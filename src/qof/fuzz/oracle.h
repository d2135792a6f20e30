#ifndef QOF_FUZZ_ORACLE_H_
#define QOF_FUZZ_ORACLE_H_

#include <string>

#include "qof/fuzz/case.h"
#include "qof/util/result.h"

namespace qof {

/// Deliberate bugs the oracle can simulate, to prove the harness catches
/// (and the shrinker minimizes) real defects. The five that live in
/// production code are armed through a ScopedFaultInjector naming their
/// planted_bug:: entry (qof/exec/fault_injector.h), only on the matrix
/// rows whose layer holds them or around the one call a separate check
/// plants them in:
///  - kRelaxDirect drops the Prop. 3.5(a) guard: the rewrite walk treats
///    every ⊃d as relaxable, so it can leave the legitimate rewrite
///    system's equivalence class and diverge from the Thm. 3.6 normal
///    form (the chain walk).
///  - kExactSkip returns phase-1 candidates as the final answer even for
///    inexact plans — skipping the §6.2 filter the §6.3 condition exists
///    to justify (checked on the subset rows).
///  - kDropTombstone makes the incremental maintainer lose one
///    tombstone's index splice (one-shot per mutated row): the dead
///    document's contribution survives in the indexes, so the post-
///    mutation checks — or compaction's own consistency check — flag it.
///  - kStaleCache makes the eval cache ignore index-epoch changes (cache
///    rows): entries cached before a mutation or compaction keep being
///    served after it, against the row's own baseline scan.
///  - kBadCse makes the IR optimizer's CSE pass hash selection nodes
///    without their word operands, so structurally different selections
///    merge; the IR-vs-ExprEvaluator differential flags the answers.
///  - kStaleSnapshot makes the query service ignore a session's pinned
///    snapshot: queries are silently served from the live state, which
///    the interleaved-session check's replay at the pinned generation
///    flags.
///  - kEvictPinned makes the paged store's buffer pool evict frames that
///    are still pinned (store rows, with a one-page pool while armed): a
///    multi-page posting read sees one of its pinned pages overwritten,
///    so decoded streams carry another page's bytes — wrong answers, or
///    an export (which pages every stream in) that differs from the
///    fresh build.
///  - kSkipDirSync makes the fault VFS's SyncDir a silent no-op
///    (FaultVfs::set_skip_dir_sync) — the forgot-to-fsync-the-parent-
///    directory bug: an atomic-rename commit (the MANIFEST swing, the
///    store it names) is acknowledged while the rename is still volatile,
///    so a power cut rolls the directory back. The crash sweep flags the
///    cut that loses an acknowledged commit.
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
  /// Worker count of the matrix rows at parallelism `workers`.
  int workers = 4;

  /// Fault-injection leg: when non-empty, the oracle skips the
  /// differential checks and runs one row's lifecycle (CheckFaultLifecycle
  /// picks it from the site) with a one-shot fault armed at this site (see qof/exec/fault_injector.h,
  /// FaultSites()), plus the journal sub-check for journal.* sites.
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

/// Runs one case through the configuration matrix and the separate
/// checks.
///
/// The matrix (qof/fuzz/matrix.h) is a table of system configurations,
/// one value per row on each of four axes: index (full, or case subset
/// i), storage (memory, or a paged store saved and reopened at 256-byte
/// pages with a 64-page pool), plan and eval caches (off, on) and
/// parallelism (1, `workers`). The rows cover every pair of axis values.
/// Every row runs one lifecycle:
///  1. build the row; auto, two-phase (when the view is indexed) and
///     index-only (when the plan is exact) return the regions and
///     RenderedValues of a baseline scan over an unindexed system —
///     errors included: if one strategy rejects the query, all do. On
///     cache rows a second auto run must agree and be served from the
///     caches (a plan hit, no new eval misses);
///  2. apply each mutation through ApplyMutation and check again against
///     the row's own baseline scan, cold and warm on cache rows;
///  3. compact: the exported store equals, generation aside
///     (SameStoreIgnoringGeneration), a fresh serial build of
///     LiveDocsAfter(mutations) with the row's index, and after a
///     mutation every strategy returns the fresh build's answers.
/// §6.3 is checked on the subset rows: exact subsets answer on the
/// index, inexact ones must filter, and either way the answers match.
///
/// The separate checks each test something other than a configuration:
///  - the interleaved-session check (qof/fuzz/session_leg.h): every
///    session's answers through the QueryService equal a single-threaded
///    replay at the generation the session pinned;
///  - the crash sweep (qof/fuzz/crash_leg.h): a power cut after every
///    I/O op of a durable index directory recovers to an acknowledged
///    prefix;
///  - the IR differential: the dataflow IR pipeline (lowering, passes,
///    executor) agrees with the reference ExprEvaluator on every
///    expression leg of the plan, with the eval cache off and shared;
///  - the Thm. 3.6 chain walk: for inclusion chains enumerated from the
///    schema's RIG, every random-order rewrite walk converges to
///    Optimize()'s normal form, and so does re-optimizing any
///    intermediate chain.
/// `seed` drives the walk order, chain sampling, session schedule and
/// crash-sweep power cuts only — the case itself is fixed by
/// `concrete_case`.
Result<OracleOutcome> RunOracle(const ConcreteCase& concrete_case,
                                const OracleOptions& options,
                                uint64_t seed);

}  // namespace qof

#endif  // QOF_FUZZ_ORACLE_H_
