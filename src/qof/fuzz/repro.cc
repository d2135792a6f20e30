#include "qof/fuzz/repro.h"

#include <sstream>

#include "qof/exec/fault_injector.h"

namespace qof {
namespace {

constexpr char kMagic[] = "qof-fuzz-repro v1";

void WriteHeredoc(std::ostringstream& out, const std::string& body) {
  // Always one '\n' between body and END: a body that itself ends in
  // '\n' then shows an explicit empty line before END, and the reader's
  // join-with-'\n' recovers every body byte-exactly (schema text ends
  // with a newline, document text does not — both must round-trip).
  out << " <<END\n" << body << "\nEND\n";
}

std::vector<std::string> SplitWords(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  std::string word;
  while (in >> word) out.push_back(word);
  return out;
}

}  // namespace

const std::vector<InjectedBugEntry>& InjectedBugs() {
  static const std::vector<InjectedBugEntry> kBugs = {
      {InjectedBug::kNone, "none"},
      {InjectedBug::kRelaxDirect, "relax-direct"},
      {InjectedBug::kExactSkip, "exact-skip"},
      {InjectedBug::kDropTombstone, planted_bug::kDropTombstone},
      {InjectedBug::kStaleCache, planted_bug::kStaleCache},
      {InjectedBug::kBadCse, planted_bug::kBadCse},
      {InjectedBug::kStaleSnapshot, planted_bug::kStaleSnapshot},
      {InjectedBug::kEvictPinned, planted_bug::kEvictPinned},
      {InjectedBug::kSkipDirSync, "skip-dir-sync"},
  };
  return kBugs;
}

std::string InjectedBugName(InjectedBug bug) {
  for (const InjectedBugEntry& entry : InjectedBugs()) {
    if (entry.bug == bug) return entry.name;
  }
  return "none";
}

Result<InjectedBug> InjectedBugFromName(std::string_view name) {
  for (const InjectedBugEntry& entry : InjectedBugs()) {
    if (name == entry.name) return entry.bug;
  }
  return Status::InvalidArgument("unknown injected bug name: " +
                                 std::string(name));
}

std::string WriteRepro(const ReproFile& repro) {
  const ConcreteCase& c = repro.concrete_case;
  std::ostringstream out;
  out << kMagic << "\n";
  out << "seed: " << repro.seed << "\n";
  out << "inject: " << InjectedBugName(repro.bug) << "\n";
  if (!repro.fault_site.empty()) {
    out << "inject-fault: " << repro.fault_site << " " << repro.fault_hit
        << "\n";
  }
  out << "expect-valid: " << (c.expect_valid ? 1 : 0) << "\n";
  if (!c.canned.empty()) {
    out << "canned: " << c.canned << " " << c.canned_seed << " "
        << c.canned_entries << "\n";
  }
  for (const std::vector<std::string>& subset : c.subsets) {
    out << "subset:";
    for (const std::string& name : subset) out << " " << name;
    out << "\n";
  }
  out << "query: " << c.fql << "\n";
  if (c.canned.empty()) {
    out << "schema";
    WriteHeredoc(out, c.schema_text);
    for (const auto& [name, text] : c.docs) {
      out << "doc " << name;
      WriteHeredoc(out, text);
    }
  }
  for (const MutationStep& m : c.mutations) {
    switch (m.op) {
      case MutationStep::Op::kAdd:
        out << "mutate add " << m.name;
        WriteHeredoc(out, m.text);
        break;
      case MutationStep::Op::kUpdate:
        out << "mutate update " << m.name;
        WriteHeredoc(out, m.text);
        break;
      case MutationStep::Op::kRemove:
        out << "mutate remove " << m.name << "\n";
        break;
    }
  }
  return out.str();
}

Result<ReproFile> ParseRepro(std::string_view text) {
  ReproFile repro;
  ConcreteCase& c = repro.concrete_case;

  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) {
      lines.emplace_back(text.substr(pos));
      break;
    }
    lines.emplace_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  // A trailing newline produces one empty final line; drop it.
  if (!lines.empty() && lines.back().empty()) lines.pop_back();

  if (lines.empty() || lines[0] != kMagic) {
    return Status::ParseError("repro: missing '" + std::string(kMagic) +
                              "' header");
  }

  // Reads a heredoc starting after the "... <<END" line at index i;
  // returns the index of the line after the closing END.
  auto read_heredoc = [&](size_t i, std::string* body) -> Result<size_t> {
    std::string out;
    bool first = true;
    for (; i < lines.size(); ++i) {
      if (lines[i] == "END") {
        *body = std::move(out);
        return i + 1;
      }
      if (!first) out += "\n";
      out += lines[i];
      first = false;
    }
    return Status::ParseError("repro: unterminated heredoc");
  };

  bool saw_query = false;
  size_t i = 1;
  while (i < lines.size()) {
    const std::string& line = lines[i];
    if (line.empty()) {
      ++i;
      continue;
    }
    if (line.rfind("seed: ", 0) == 0) {
      repro.seed = std::stoull(line.substr(6));
      ++i;
    } else if (line.rfind("inject: ", 0) == 0) {
      QOF_ASSIGN_OR_RETURN(repro.bug, InjectedBugFromName(line.substr(8)));
      ++i;
    } else if (line.rfind("inject-fault: ", 0) == 0) {
      std::vector<std::string> words = SplitWords(line.substr(14));
      if (words.empty() || words.size() > 2) {
        return Status::ParseError("repro: inject-fault wants <site> [hit]");
      }
      repro.fault_site = words[0];
      repro.fault_hit = words.size() == 2 ? std::stoull(words[1]) : 1;
      ++i;
    } else if (line.rfind("expect-valid: ", 0) == 0) {
      c.expect_valid = line.substr(14) != "0";
      ++i;
    } else if (line.rfind("canned: ", 0) == 0) {
      std::vector<std::string> words = SplitWords(line.substr(8));
      if (words.size() != 3) {
        return Status::ParseError("repro: canned wants <kind> <seed> <n>");
      }
      c.canned = words[0];
      c.canned_seed = static_cast<uint32_t>(std::stoul(words[1]));
      c.canned_entries = std::stoi(words[2]);
      ++i;
    } else if (line.rfind("subset:", 0) == 0) {
      c.subsets.push_back(SplitWords(line.substr(7)));
      ++i;
    } else if (line.rfind("query: ", 0) == 0) {
      c.fql = line.substr(7);
      saw_query = true;
      ++i;
    } else if (line == "schema <<END") {
      QOF_ASSIGN_OR_RETURN(i, read_heredoc(i + 1, &c.schema_text));
    } else if (line.rfind("mutate ", 0) == 0) {
      std::string rest = line.substr(7);
      MutationStep m;
      if (rest.rfind("remove ", 0) == 0) {
        m.op = MutationStep::Op::kRemove;
        m.name = rest.substr(7);
        if (m.name.empty()) {
          return Status::ParseError("repro: mutate remove wants a name");
        }
        ++i;
      } else {
        bool is_add = rest.rfind("add ", 0) == 0;
        if (!is_add && rest.rfind("update ", 0) != 0) {
          return Status::ParseError(
              "repro: mutate wants add | update | remove");
        }
        m.op = is_add ? MutationStep::Op::kAdd : MutationStep::Op::kUpdate;
        size_t skip = is_add ? 4 : 7;
        size_t marker = rest.rfind(" <<END");
        if (marker == std::string::npos || marker <= skip) {
          return Status::ParseError(
              "repro: mutate wants 'mutate <op> <name> <<END'");
        }
        m.name = rest.substr(skip, marker - skip);
        QOF_ASSIGN_OR_RETURN(i, read_heredoc(i + 1, &m.text));
      }
      c.mutations.push_back(std::move(m));
    } else if (line.rfind("doc ", 0) == 0) {
      size_t marker = line.rfind(" <<END");
      if (marker == std::string::npos || marker <= 4) {
        return Status::ParseError("repro: doc wants 'doc <name> <<END'");
      }
      std::string name = line.substr(4, marker - 4);
      std::string body;
      QOF_ASSIGN_OR_RETURN(i, read_heredoc(i + 1, &body));
      c.docs.emplace_back(std::move(name), std::move(body));
    } else {
      return Status::ParseError("repro: unrecognized line: " + line);
    }
  }
  if (!saw_query) return Status::ParseError("repro: missing query line");
  if (c.canned.empty() && c.schema_text.empty()) {
    return Status::ParseError("repro: neither canned nor schema present");
  }
  return repro;
}

Result<OracleOutcome> ReplayRepro(std::string_view text, int workers) {
  QOF_ASSIGN_OR_RETURN(ReproFile repro, ParseRepro(text));
  OracleOptions options;
  options.bug = repro.bug;
  options.fault_site = repro.fault_site;
  options.fault_hit = repro.fault_hit;
  if (workers > 0) options.workers = workers;
  return RunOracle(repro.concrete_case, options, repro.seed);
}

}  // namespace qof
