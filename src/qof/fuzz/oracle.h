#ifndef QOF_FUZZ_ORACLE_H_
#define QOF_FUZZ_ORACLE_H_

#include <string>

#include "qof/fuzz/case.h"
#include "qof/util/result.h"

namespace qof {

/// Deliberate bugs the oracle can simulate, to prove the harness catches
/// (and the shrinker minimizes) real plan-equivalence defects. The five
/// that live in production code are armed through a ScopedFaultInjector
/// naming a planted_bug:: entry (qof/exec/fault_injector.h) around
/// exactly the system or call the leg plants them in:
///  - kRelaxDirect drops the Prop. 3.5(a) guard: the rewrite walk treats
///    every ⊃d as relaxable, so it can leave the legitimate rewrite
///    system's equivalence class and diverge from the Thm. 3.6 normal
///    form.
///  - kExactSkip returns phase-1 candidates as the final answer even for
///    inexact plans — skipping the §6.2 filter the §6.3 condition exists
///    to justify.
///  - kDropTombstone makes the incremental maintainer lose one
///    tombstone's index splice (planted_bug::kDropTombstone, one-shot per
///    maintained system):
///    the dead document's contribution survives in the indexes, so the
///    maintenance leg's differential checks — and compaction's own
///    consistency check — must flag it.
///  - kStaleCache makes the eval cache ignore index-epoch changes
///    (planted_bug::kStaleCache): entries cached before a mutation or
///    compaction keep being served after it, so the caching leg's
///    cached-vs-plain comparison across interleaved mutations must flag
///    the stale answers.
///  - kBadCse makes the IR optimizer's CSE pass hash selection nodes
///    without their word operands (planted_bug::kBadCse), so
///    structurally different selections merge; the IR leg's tree-vs-IR
///    differential must flag the wrong answers.
///  - kStaleSnapshot makes the query service ignore a session's pinned
///    snapshot (planted_bug::kStaleSnapshot): queries are
///    silently served from the live state, so a session that should see
///    its pinned generation observes other sessions' later mutations.
///    The interleaved-session leg's replay-at-pinned-generation
///    comparison must flag the divergence.
///  - kEvictPinned makes the paged store's buffer pool evict frames that
///    are still pinned (planted_bug::kEvictPinned): a
///    multi-page posting read sees one of its pinned pages overwritten
///    mid-assembly, so decoded streams carry another page's bytes. The
///    disk-tier leg — on-disk answers and a forced full materialization
///    cross-checked against the in-memory indexes the store was saved
///    from, under a pool smaller than the longest stream — must flag the
///    corruption.
///  - kSkipDirSync makes the fault VFS's SyncDir a silent no-op
///    (FaultVfs::set_skip_dir_sync) — the classic forgot-to-fsync-the-
///    parent-directory durability bug: an atomic-rename commit (the
///    MANIFEST swing, the store it names) succeeds and is acknowledged,
///    but the rename itself is still volatile, so a power cut rolls the
///    directory back. The crash-sweep leg — power loss simulated after
///    every mutating I/O op, then recovery — must flag the cut that
///    loses an acknowledged commit (or strands the directory
///    unreadable).
enum class InjectedBug {
  kNone,
  kRelaxDirect,
  kExactSkip,
  kDropTombstone,
  kStaleCache,
  kBadCse,
  kStaleSnapshot,
  kEvictPinned,
  kSkipDirSync,
};

struct OracleOptions {
  InjectedBug bug = InjectedBug::kNone;
  /// Parallel worker count for the parallelism ∈ {1, workers} leg.
  int workers = 4;
  /// Cap on inclusion chains enumerated for the normal-form check.
  size_t max_chains = 160;
  bool check_chains = true;

  /// Fault-injection leg: when non-empty, the oracle skips the
  /// differential legs and instead drives the full life cycle (build,
  /// query in every mode, export/import, mutations, journal) with a
  /// one-shot fault armed at this site (see qof/exec/fault_injector.h,
  /// FaultSites()). The leg verifies the injected failure never crashes,
  /// always surfaces a diagnosable error, leaves the system queryable,
  /// and that after recovery the state compacts to an index store
  /// byte-identical to a from-scratch rebuild.
  std::string fault_site;
  /// 1-based ordinal of the pass through `fault_site` that fails.
  uint64_t fault_hit = 1;
};

/// The oracle's verdict on one case. `failed` means the invariants were
/// violated (a differential mismatch or a normal-form divergence) —
/// distinct from the Result-level error, which means the harness itself
/// could not run the case (e.g. an unparseable generated schema) and
/// indicates a fuzzer bug.
struct OracleOutcome {
  bool failed = false;
  std::string failure;
};

/// Runs one case through every plan kind and checks the invariants:
///  1. baseline scan, full-index auto, forced two-phase, and (when the
///     plan is exact) index-only all return identical regions and
///     RenderedValues, at parallelism 1 and `workers`;
///  2. each index subset's auto and forced two-phase runs agree with the
///     baseline (§6.3 exact subsets answer on the index, inexact ones
///     must filter — either way the answers match);
///  3. errors are consistent: if one plan rejects the query, all do;
///  4. when the case carries a mutation sequence, the sequence is applied
///     to a *built* system (incremental maintenance, serial and parallel)
///     and cross-checked: all execution modes agree on the maintained
///     system, its answers match a from-scratch rebuild of the mutated
///     corpus, and after compaction the exported index stores are
///     byte-identical to the rebuild's;
///  5. with both query caches enabled the same query run twice returns
///     byte-identical answers to an uncached system (the second run
///     served from the caches without recomputation), and the agreement
///     survives every interleaved mutation and a final compaction —
///     old-generation cache entries are never served;
///  6. for inclusion chains enumerated from the schema's RIG, every
///     random-order rewrite walk converges to Optimize()'s normal form,
///     and re-optimizing any intermediate chain yields the same normal
///     form (Thm. 3.6);
///  7. the dataflow IR pipeline (lowering + CSE/pushdown/ordering/fusion
///     + executor) agrees with the reference tree evaluator on every
///     expression leg of the plan (candidates, projection, join
///     attributes), with the eval cache off and on (one cache shared by
///     both evaluators, so entries cross between them);
///  8. driven through the multi-client QueryService on a deterministic
///     interleaved-session schedule, every session's queries are
///     byte-identical to a single-threaded replay at the generation the
///     session has pinned — repeatable reads across other sessions'
///     mutations, read-your-writes after its own (see
///     qof/fuzz/session_leg.h).
/// `seed` drives the walk order and chain sampling only — the case
/// itself is fixed by `concrete_case`.
Result<OracleOutcome> RunOracle(const ConcreteCase& concrete_case,
                                const OracleOptions& options,
                                uint64_t seed);

}  // namespace qof

#endif  // QOF_FUZZ_ORACLE_H_
