#ifndef QOF_FUZZ_FUZZER_H_
#define QOF_FUZZ_FUZZER_H_

#include <cstdint>
#include <string>

#include "qof/fuzz/case.h"
#include "qof/fuzz/grammar_model.h"
#include "qof/fuzz/oracle.h"
#include "qof/fuzz/query_gen.h"
#include "qof/util/result.h"

namespace qof {

struct FuzzOptions {
  int iterations = 100;
  uint64_t seed = 1;
  /// Fraction of queries mutated into (likely) invalid FQL — the parsers'
  /// never-crash class.
  double invalid_fraction = 0.15;
  /// Fraction of cases run against a canned datagen corpus (bibtex, mail,
  /// log, outline) instead of a random schema.
  double canned_fraction = 0.2;
  /// Fraction of cases that get a post-build mutation sequence (random
  /// adds/updates/removes every matrix row replays and cross-checks
  /// against a from-scratch rebuild).
  double mutation_fraction = 0.35;
  /// Longest mutation sequence the generator appends.
  int max_mutations = 4;
  InjectedBug bug = InjectedBug::kNone;
  /// Fault-injection mode: "" runs the differential checks; a site name
  /// from FaultSites() arms that site every iteration; "random" draws a
  /// fresh (site, hit) pair per iteration. Either way the oracle runs its
  /// fault leg instead (see OracleOptions::fault_site).
  std::string fault_site;
  /// Hit ordinal for a fixed fault site; 0 draws 1..3 per iteration.
  uint64_t fault_hit = 0;
  bool shrink = true;
  int shrink_budget = 200;
  int workers = 4;
  SchemaGenOptions schema_gen;
  QueryGenOptions query_gen;
};

struct FuzzReport {
  int iterations_run = 0;
  bool failed = false;
  std::string failure;
  int failing_iteration = -1;
  uint64_t failing_seed = 0;  // the failing iteration's oracle seed

  FuzzCase original;  // the failing case as generated
  FuzzCase shrunk;    // after greedy shrinking (== original when disabled)
  std::string repro;  // WriteRepro(shrunk) — empty on clean runs
  int shrink_oracle_runs = 0;

  /// FNV-1a over every concretized case (schema text, docs, FQL, subsets)
  /// in generation order. Two runs with the same options are
  /// byte-identical iff their hashes match — the reproducibility tests
  /// assert exactly this.
  uint64_t case_hash = 0;
};

/// Runs the differential fuzz loop: generate a case, concretize it, run
/// the oracle, and on the first failure shrink it and build a repro.
/// A Result-level error means the harness itself is broken (a generated
/// schema failed to parse, a canned corpus failed to build) — distinct
/// from `report.failed`, which means the system under test violated an
/// invariant.
Result<FuzzReport> RunFuzz(const FuzzOptions& options);

/// The case the fuzzer would generate at iteration `i` — exposed so tests
/// can pin generator behaviour without running the oracle.
FuzzCase GenerateCase(const FuzzOptions& options, int i);

}  // namespace qof

#endif  // QOF_FUZZ_FUZZER_H_
