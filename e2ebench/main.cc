// The end-to-end benchmark binary.
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> --serve-bin <path to qof_serve>
//
// Workloads: grammar-disk, bibtex-twophase, bibtex-serve. Each replays
// a fixed op sequence drawn from --seed (its length is a per-workload
// nominal rate times --seconds), checks every answer, and prints an
// `info` line (class sizes, tail percentiles, untimed phases) followed
// by the result line. --trace 0 reports the end-to-end metrics;
// --trace 1 replays the sequence untraced and then traced, and reports
// the per-layer metrics, the tracing overhead and a span dump.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "workloads.h"

int main(int argc, char** argv) {
  e2e::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--serve-bin") {
      args.serve_bin = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 1;
    }
  }
  if (args.seconds < 1 || args.work_dir.empty()) {
    std::fprintf(stderr, "--seconds must be >= 1 and --work-dir set\n");
    return 1;
  }
  if (args.workload == "grammar-disk") return e2e::RunGrammarDisk(args);
  if (args.workload == "bibtex-twophase") return e2e::RunBibtexTwophase(args);
  if (args.workload == "bibtex-serve") return e2e::RunBibtexServe(args);
  std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
  return 1;
}
