// Differential fuzzing driver: random structuring schemas, corpora and
// FQL queries cross-checked across every plan kind (see DESIGN.md,
// "Testing & fuzzing"). Exit codes: 0 = all iterations passed (or a
// replayed repro passed), 1 = an invariant violation was found (the
// repro is printed and optionally written), 2 = usage error.

#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "qof/exec/fault_injector.h"
#include "qof/fuzz/fuzzer.h"
#include "qof/fuzz/repro.h"

namespace {

void PrintUsage(std::ostream& out) {
  out << "usage: qof_fuzz [options]\n"
         "  --iterations N        cases to run (default 100)\n"
         "  --seed N              master seed (default 1)\n"
         "  --invalid-fraction F  mutated-query fraction (default 0.15)\n"
         "  --canned-fraction F   canned-corpus fraction (default 0.2)\n"
         "  --mutation-fraction F mutation-sequence fraction (default "
         "0.35)\n"
         "  --workers N           worker count of the parallel matrix rows "
         "(default 4)\n"
         "  --inject KIND         ";
  const char* separator = "";
  for (const qof::InjectedBugEntry& entry : qof::InjectedBugs()) {
    out << separator << entry.name;
    separator = " | ";
  }
  out << "\n"
         "                        | fault[:SITE[:HIT]] — fault-injection "
         "leg; SITE from\n"
         "                        --list-fault-sites (default random per "
         "iteration)\n"
         "  --list-fault-sites    print the injectable fault sites and "
         "exit\n"
         "  --no-shrink           report the unshrunk failing case\n"
         "  --repro FILE          replay a repro file instead of fuzzing\n"
         "  --repro-out FILE      write the repro of a failure here\n";
}

bool ParseInt(const char* text, long* out) {
  char* end = nullptr;
  *out = std::strtol(text, &end, 10);
  return end != text && *end == '\0';
}

bool ParseDouble(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  qof::FuzzOptions options;
  std::string repro_path;
  std::string repro_out_path;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    long n = 0;
    double f = 0;
    if (arg == "--help" || arg == "-h") {
      PrintUsage(std::cout);
      return 0;
    } else if (arg == "--iterations" && ParseInt(next(), &n)) {
      options.iterations = static_cast<int>(n);
    } else if (arg == "--seed" && ParseInt(next(), &n)) {
      options.seed = static_cast<uint64_t>(n);
    } else if (arg == "--invalid-fraction" && ParseDouble(next(), &f)) {
      options.invalid_fraction = f;
    } else if (arg == "--canned-fraction" && ParseDouble(next(), &f)) {
      options.canned_fraction = f;
    } else if (arg == "--mutation-fraction" && ParseDouble(next(), &f)) {
      options.mutation_fraction = f;
    } else if (arg == "--workers" && ParseInt(next(), &n)) {
      options.workers = static_cast<int>(n);
    } else if (arg == "--inject") {
      const char* raw = next();
      std::string name = raw ? raw : "";
      if (name == "fault" || name.rfind("fault:", 0) == 0) {
        // fault[:site[:hit]] — arm the oracle's fault-injection leg.
        options.fault_site = "random";
        if (name.size() > 6) {
          std::string rest = name.substr(6);
          size_t colon = rest.find(':');
          options.fault_site = rest.substr(0, colon);
          if (colon != std::string::npos) {
            long hit = 0;
            if (!ParseInt(rest.c_str() + colon + 1, &hit) || hit < 1) {
              std::cerr << "bad fault hit ordinal in: " << name << "\n";
              return 2;
            }
            options.fault_hit = static_cast<uint64_t>(hit);
          }
        }
        if (options.fault_site != "random") {
          const std::vector<std::string>& sites = qof::FaultSites();
          bool known = false;
          for (const std::string& site : sites) {
            known = known || site == options.fault_site;
          }
          if (!known) {
            std::cerr << "unknown fault site: " << options.fault_site
                      << " (see --list-fault-sites)\n";
            return 2;
          }
        }
      } else {
        auto bug = qof::InjectedBugFromName(name);
        if (!bug.ok()) {
          std::cerr << bug.status().ToString() << "\n";
          return 2;
        }
        options.bug = *bug;
      }
    } else if (arg == "--list-fault-sites") {
      for (const std::string& site : qof::FaultSites()) {
        std::cout << site << "\n";
      }
      return 0;
    } else if (arg == "--no-shrink") {
      options.shrink = false;
    } else if (arg == "--repro") {
      const char* path = next();
      if (path == nullptr) {
        PrintUsage(std::cerr);
        return 2;
      }
      repro_path = path;
    } else if (arg == "--repro-out") {
      const char* path = next();
      if (path == nullptr) {
        PrintUsage(std::cerr);
        return 2;
      }
      repro_out_path = path;
    } else {
      std::cerr << "unrecognized or malformed option: " << arg << "\n";
      PrintUsage(std::cerr);
      return 2;
    }
  }

  if (!repro_path.empty()) {
    std::ifstream in(repro_path);
    if (!in) {
      std::cerr << "cannot open repro file: " << repro_path << "\n";
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    auto outcome = qof::ReplayRepro(buffer.str(), options.workers);
    if (!outcome.ok()) {
      std::cerr << "repro replay error: " << outcome.status().ToString()
                << "\n";
      return 2;
    }
    if (outcome->failed) {
      std::cout << "repro still fails:\n  " << outcome->failure << "\n";
      return 1;
    }
    std::cout << "repro passes (the defect is fixed or not reproduced)\n";
    return 0;
  }

  auto report = qof::RunFuzz(options);
  if (!report.ok()) {
    std::cerr << "fuzzer harness error: " << report.status().ToString()
              << "\n";
    return 2;
  }
  std::cout << "ran " << report->iterations_run << " case(s), seed "
            << options.seed << ", case-hash " << std::hex
            << report->case_hash << std::dec << "\n";
  if (!report->failed) {
    std::cout << "all invariants held\n";
    return 0;
  }

  std::cout << "FAILURE at iteration " << report->failing_iteration
            << ":\n  " << report->failure << "\n";
  if (options.shrink) {
    std::cout << "shrunk with " << report->shrink_oracle_runs
              << " oracle run(s)\n";
  }
  std::cout << "repro:\n" << report->repro;
  if (!repro_out_path.empty()) {
    std::ofstream out(repro_out_path);
    out << report->repro;
    std::cout << "repro written to " << repro_out_path << "\n";
  }
  return 1;
}
