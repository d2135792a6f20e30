// Query-plan explainer: parses files under a canned schema or one read
// from a schema text file (the format ParseSchemaText accepts), builds full
// indexes, and prints the compiler's plan explanation followed by the
// dataflow IR pipeline — the program dump (with per-node cardinality and
// work estimates) after lowering and after each optimizer pass (see
// DESIGN.md, "Query IR & pass pipeline"). The pipeline is fixed, so the
// last dump is the program the query runs. With --execute it also runs
// the query and prints the per-operator IR timing counters.
//
// Exit codes: 0 = success, 1 = usage error, 2 = data/query error.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "qof/datagen/schemas.h"
#include "qof/engine/system.h"
#include "qof/schema/schema_text.h"
#include "qof/util/result.h"

namespace qof {
namespace {

void PrintUsage(std::ostream& out) {
  out << "usage: qof_explain (--schema KIND | --schema-file PATH) --query FQL\n"
         "                   [options] FILE...\n"
         "  --schema KIND   canned schema: bibtex | mail | log | outline\n"
         "  --schema-file PATH\n"
         "                  schema in the text format of schema_text.h\n"
         "  --query FQL     the SELECT query to explain\n"
         "  --execute       also run the query (auto mode) and print the\n"
         "                  per-operator IR timing counters (it runs the\n"
         "                  program of the last pipeline dump)\n"
         "exit codes: 0 ok, 1 usage, 2 data/query error\n";
}

Result<StructuringSchema> SchemaByKind(const std::string& kind) {
  if (kind == "bibtex") return BibtexSchema();
  if (kind == "mail") return MailSchema();
  if (kind == "log") return LogSchema();
  if (kind == "outline") return OutlineSchema();
  return Status::InvalidArgument("unknown schema kind '" + kind +
                                 "' (want bibtex | mail | log | outline)");
}

/// Reads a whole file; false when it cannot be opened.
bool ReadFile(const std::string& path, std::string* contents) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *contents = buffer.str();
  return true;
}

Result<StructuringSchema> SchemaFromFile(const std::string& path) {
  std::string text;
  if (!ReadFile(path, &text)) {
    return Status::InvalidArgument("cannot open schema file: " + path);
  }
  return ParseSchemaText(text);
}

int Run(int argc, char** argv) {
  std::string schema_kind;
  std::string schema_file;
  std::string fql;
  bool execute = false;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--help" || arg == "-h") {
      PrintUsage(std::cout);
      return 0;
    } else if (arg == "--schema") {
      const char* value = next();
      if (value == nullptr) {
        PrintUsage(std::cerr);
        return 1;
      }
      schema_kind = value;
    } else if (arg == "--schema-file") {
      const char* value = next();
      if (value == nullptr) {
        PrintUsage(std::cerr);
        return 1;
      }
      schema_file = value;
    } else if (arg == "--query") {
      const char* value = next();
      if (value == nullptr) {
        PrintUsage(std::cerr);
        return 1;
      }
      fql = value;
    } else if (arg == "--execute") {
      execute = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unrecognized option: " << arg << "\n";
      PrintUsage(std::cerr);
      return 1;
    } else {
      files.push_back(arg);
    }
  }
  if (schema_kind.empty() == schema_file.empty() || fql.empty() ||
      files.empty()) {
    PrintUsage(std::cerr);
    return 1;
  }

  auto schema = schema_file.empty() ? SchemaByKind(schema_kind)
                                    : SchemaFromFile(schema_file);
  if (!schema.ok()) {
    std::cerr << schema.status().ToString() << "\n";
    return 2;
  }
  FileQuerySystem system(*schema);
  for (const std::string& path : files) {
    std::string contents;
    if (!ReadFile(path, &contents)) {
      std::cerr << "cannot open file: " << path << "\n";
      return 2;
    }
    Status added = system.AddFile(path, contents);
    if (!added.ok()) {
      std::cerr << "cannot add " << path << ": " << added.ToString()
                << "\n";
      return 2;
    }
  }
  Status built = system.BuildIndexes(IndexSpec::Full());
  if (!built.ok()) {
    std::cerr << "index build failed: " << built.ToString() << "\n";
    return 2;
  }

  auto explanation = system.ExplainQuery(fql);
  if (!explanation.ok()) {
    std::cerr << explanation.status().ToString() << "\n";
    return 2;
  }
  std::cout << *explanation;

  if (execute) {
    auto result = system.Execute(fql);
    if (!result.ok()) {
      std::cerr << result.status().ToString() << "\n";
      return 2;
    }
    std::cout << "\nexecution (" << result->stats.engine << " engine, "
              << result->stats.strategy << "): " << result->stats.results
              << " result(s) in " << result->stats.micros << " us\n";
    for (const auto& [op, timing] : result->stats.op_timings) {
      std::cout << "  " << op << ": " << timing.count << " node eval(s), "
                << timing.micros << " us";
      if (timing.pages_read != 0 || timing.read_calls != 0) {
        std::cout << "; io: " << timing.pages_read << " page(s) in "
                  << timing.read_calls << " read call(s)";
      }
      std::cout << "\n";
    }
  }
  return 0;
}

}  // namespace
}  // namespace qof

int main(int argc, char** argv) { return qof::Run(argc, argv); }
