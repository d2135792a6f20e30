// Multi-client query server over one FileQuerySystem: speaks the
// qof/server line protocol (see src/qof/server/protocol.h) on
// stdin/stdout. Each OPEN pins a session to the current index
// generation; QUERYs run asynchronously on the service's worker pool
// against the session's snapshot, so long queries never block other
// sessions' commands and mutations never block readers. Every response
// line is tagged with the session id it answers — with queries in
// flight, lines from different sessions interleave.
//
// The corpus is generated at startup (--schema / --entries / --seed, the
// same generators the benchmarks use), indexes are built in full, and
// both query caches are enabled.
//
// Exit codes: 0 on QUIT/EOF, 1 on usage error, 2 on startup failure.

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "qof/datagen/bibtex_gen.h"
#include "qof/datagen/log_gen.h"
#include "qof/datagen/mail_gen.h"
#include "qof/datagen/outline_gen.h"
#include "qof/datagen/schemas.h"
#include "qof/engine/system.h"
#include "qof/server/protocol.h"
#include "qof/server/service.h"

namespace qof {
namespace {

void PrintUsage(std::ostream& out) {
  out << "usage: qof_serve [options]\n"
         "  --schema KIND    bibtex | mail | log | outline (default "
         "bibtex)\n"
         "  --entries N      generated corpus size (default 20)\n"
         "  --seed N         corpus generator seed (default 1)\n"
         "  --workers N      query worker threads (default 2)\n"
         "  --queue N        admission-control bound on queued queries\n"
         "                   (default 64; 0 = unbounded)\n"
         "  --deadline-ms N  per-query deadline ceiling (default off)\n"
         "  --max-bytes N    per-query scanned-bytes ceiling (default "
         "off)\n"
         "  --max-regions N  per-query region-budget ceiling (default "
         "off)\n"
         "\n"
         "Protocol (one command per line on stdin):\n"
         "  OPEN | QUERY <sid> <fql> | ADD <sid> <name> <text> |\n"
         "  UPDATE <sid> <name> <text> | REMOVE <sid> <name> |\n"
         "  COMPACT <sid> | REFRESH <sid> | STATS <sid> | CANCEL <sid> "
         "|\n"
         "  CLOSE <sid> | QUIT\n";
}

Result<StructuringSchema> SchemaFor(const std::string& kind) {
  if (kind == "bibtex") return BibtexSchema();
  if (kind == "mail") return MailSchema();
  if (kind == "log") return LogSchema();
  if (kind == "outline") return OutlineSchema();
  return Status::InvalidArgument("unknown schema kind: " + kind);
}

std::pair<std::string, std::string> CorpusFor(const std::string& kind,
                                              int entries,
                                              uint64_t seed) {
  if (kind == "mail") {
    MailGenOptions o;
    o.num_messages = entries;
    o.seed = seed;
    o.probe_sender_rate = 0.3;
    o.probe_recipient_rate = 0.3;
    return {"corpus.mbox", GenerateMailbox(o)};
  }
  if (kind == "log") {
    LogGenOptions o;
    o.num_entries = entries * 4;
    o.seed = seed;
    o.error_rate = 0.2;
    o.num_sessions = 4;
    return {"corpus.log", GenerateLog(o)};
  }
  if (kind == "outline") {
    OutlineGenOptions o;
    o.num_top_sections = entries;
    o.seed = seed;
    o.max_depth = 3;
    o.probe_title_rate = 0.25;
    return {"corpus.outline", GenerateOutline(o)};
  }
  BibtexGenOptions o;
  o.num_references = entries;
  o.seed = seed;
  o.probe_author_rate = 0.3;
  o.probe_editor_rate = 0.2;
  return {"corpus.bib", GenerateBibtex(o)};
}

/// Serializes response lines: QUERY completions arrive on worker
/// threads while the main loop answers synchronous commands.
class ResponseWriter {
 public:
  void Write(const std::string& lines) {
    std::lock_guard<std::mutex> lock(mu_);
    std::cout << lines << std::flush;
  }

 private:
  std::mutex mu_;
};

std::string QuerySuccessDetail(const QueryResult& result) {
  return "rows=" +
         std::to_string(result.values.empty() ? result.regions.size()
                                              : result.values.size()) +
         " strategy=" + result.stats.strategy +
         " engine=" + (result.stats.engine.empty() ? "-"
                                                   : result.stats.engine) +
         " bytes=" + std::to_string(result.stats.bytes_scanned) +
         " micros=" + std::to_string(result.stats.micros);
}

std::string FormatQueryResponse(uint64_t sid,
                                const Result<QueryResult>& result) {
  if (!result.ok()) return FormatErr(sid, result.status());
  std::string out;
  if (!result->values.empty()) {
    for (const std::string& value : result->RenderedValues()) {
      out += FormatRow(sid, value);
    }
  } else {
    for (const Region& region : result->regions) {
      out += FormatRow(sid, "[" + std::to_string(region.start) + "," +
                                std::to_string(region.end) + ")");
    }
  }
  out += FormatOk(sid, QuerySuccessDetail(*result));
  return out;
}

std::string StatsDetail(const QueryService& service, uint64_t sid) {
  ServiceStats s = service.stats();
  std::string out =
      "sessions_open=" + std::to_string(s.sessions_open) +
      " sessions_opened=" + std::to_string(s.sessions_opened) +
      " queries_submitted=" + std::to_string(s.queries_submitted) +
      " queries_executed=" + std::to_string(s.queries_executed) +
      " queries_rejected=" + std::to_string(s.queries_rejected) +
      " queries_failed=" + std::to_string(s.queries_failed) +
      " mutations=" + std::to_string(s.mutations) +
      " refreshes=" + std::to_string(s.refreshes);
  auto generation = service.SessionGeneration(sid);
  if (generation.ok()) {
    out += " pinned_generation=" + std::to_string(*generation);
  }
  out += " live_generation=" +
         std::to_string(service.system()->index_generation());
  CacheStats cache = service.system()->cache_stats();
  out += " eval_hits=" + std::to_string(cache.eval_hits) +
         " eval_misses=" + std::to_string(cache.eval_misses);
  return out;
}

int Serve(int argc, char** argv) {
  std::string schema_kind = "bibtex";
  int entries = 20;
  uint64_t seed = 1;
  ServiceOptions service_options;
  service_options.workers = 2;
  service_options.max_queued = 64;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      size_t n = std::strlen(flag);
      if (arg.compare(0, n, flag) == 0 && arg.size() > n &&
          arg[n] == '=') {
        return arg.c_str() + n + 1;
      }
      return nullptr;
    };
    if (const char* v = value("--schema")) {
      schema_kind = v;
    } else if (const char* v = value("--entries")) {
      entries = std::atoi(v);
    } else if (const char* v = value("--seed")) {
      seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--workers")) {
      service_options.workers = std::atoi(v);
    } else if (const char* v = value("--queue")) {
      service_options.max_queued =
          static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (const char* v = value("--deadline-ms")) {
      service_options.limits.deadline_ms = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--max-bytes")) {
      service_options.limits.max_bytes = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--max-regions")) {
      service_options.limits.max_regions = std::strtoull(v, nullptr, 10);
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(std::cout);
      return 0;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      PrintUsage(std::cerr);
      return 1;
    }
  }

  auto schema = SchemaFor(schema_kind);
  if (!schema.ok()) {
    std::cerr << schema.status().ToString() << "\n";
    return 1;
  }
  FileQuerySystem system(*schema);
  auto [corpus_name, corpus_text] = CorpusFor(schema_kind, entries, seed);
  if (Status s = system.AddFile(corpus_name, corpus_text); !s.ok()) {
    std::cerr << "seed corpus rejected: " << s.ToString() << "\n";
    return 2;
  }
  system.SetCacheOptions(CacheOptions::Enabled());
  if (Status s = system.BuildIndexes(IndexSpec::Full()); !s.ok()) {
    std::cerr << "index build failed: " << s.ToString() << "\n";
    return 2;
  }

  QueryService service(&system, service_options);
  ResponseWriter writer;
  writer.Write("READY schema=" + schema_kind +
               " corpus_bytes=" + std::to_string(corpus_text.size()) +
               " workers=" +
               std::to_string(service_options.workers) + "\n");

  std::string line;
  while (std::getline(std::cin, line)) {
    auto command = ParseCommand(line);
    if (!command.ok()) {
      writer.Write(FormatErr(0, command.status()));
      continue;
    }
    const Command& cmd = *command;
    switch (cmd.kind) {
      case CommandKind::kOpen: {
        auto sid = service.OpenSession();
        if (!sid.ok()) {
          writer.Write(FormatErr(0, sid.status()));
        } else {
          auto generation = service.SessionGeneration(*sid);
          writer.Write(FormatOk(
              0, "session=" + std::to_string(*sid) + " generation=" +
                     std::to_string(generation.value_or(0))));
        }
        break;
      }
      case CommandKind::kQuery: {
        uint64_t sid = cmd.session;
        Status submitted = service.SubmitQuery(
            sid, cmd.text, QueryOptions(),
            [sid, &writer](Result<QueryResult> result) {
              writer.Write(FormatQueryResponse(sid, result));
            });
        if (!submitted.ok()) writer.Write(FormatErr(sid, submitted));
        break;
      }
      case CommandKind::kAdd:
      case CommandKind::kUpdate:
      case CommandKind::kRemove:
      case CommandKind::kCompact:
      case CommandKind::kRefresh: {
        Status applied = Status::OK();
        switch (cmd.kind) {
          case CommandKind::kAdd:
            applied = service.AddFile(cmd.session, cmd.name, cmd.text);
            break;
          case CommandKind::kUpdate:
            applied =
                service.UpdateFile(cmd.session, cmd.name, cmd.text);
            break;
          case CommandKind::kRemove:
            applied = service.RemoveFile(cmd.session, cmd.name);
            break;
          case CommandKind::kCompact:
            applied = service.Compact(cmd.session);
            break;
          default:
            applied = service.Refresh(cmd.session);
            break;
        }
        if (!applied.ok()) {
          writer.Write(FormatErr(cmd.session, applied));
        } else {
          auto generation = service.SessionGeneration(cmd.session);
          writer.Write(FormatOk(
              cmd.session,
              "generation=" + std::to_string(generation.value_or(0))));
        }
        break;
      }
      case CommandKind::kStats:
        if (auto gen = service.SessionGeneration(cmd.session);
            !gen.ok()) {
          writer.Write(FormatErr(cmd.session, gen.status()));
        } else {
          writer.Write(
              FormatOk(cmd.session, StatsDetail(service, cmd.session)));
        }
        break;
      case CommandKind::kCancel:
        if (Status s = service.CancelActive(cmd.session); !s.ok()) {
          writer.Write(FormatErr(cmd.session, s));
        } else {
          writer.Write(FormatOk(cmd.session, "cancelled"));
        }
        break;
      case CommandKind::kClose:
        if (Status s = service.CloseSession(cmd.session); !s.ok()) {
          writer.Write(FormatErr(cmd.session, s));
        } else {
          writer.Write(FormatOk(cmd.session, "closed"));
        }
        break;
      case CommandKind::kQuit:
        service.Shutdown();  // drain in-flight queries first
        writer.Write(FormatOk(0, "bye"));
        return 0;
    }
  }
  service.Shutdown();
  return 0;
}

}  // namespace
}  // namespace qof

int main(int argc, char** argv) { return qof::Serve(argc, argv); }
