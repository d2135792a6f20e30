#ifndef QOF_ENGINE_SYSTEM_H_
#define QOF_ENGINE_SYSTEM_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "qof/algebra/evaluator.h"
#include "qof/cache/cache.h"
#include "qof/compiler/query_compiler.h"
#include "qof/engine/index_spec.h"
#include "qof/engine/indexer.h"
#include "qof/engine/snapshot.h"
#include "qof/exec/exec_context.h"
#include "qof/ir/executor.h"
#include "qof/ir/passes.h"
#include "qof/maintain/maintainer.h"
#include "qof/query/parser.h"
#include "qof/schema/rig_derivation.h"
#include "qof/store/paged_store.h"
#include "qof/text/corpus.h"
#include "qof/util/result.h"
#include "qof/util/thread_pool.h"

namespace qof {

/// How a query was (or must be) executed.
enum class ExecutionMode {
  kAuto,      // pick the cheapest sound strategy
  kIndexOnly, // require full computation on indices; error when unsound
  kTwoPhase,  // force candidates + parse + filter
  kBaseline,  // force the full-scan "standard database" plan
};

/// Per-query execution report; every experiment in EXPERIMENTS.md reads
/// these fields.
struct QueryStats {
  std::string strategy;  // "index-only" | "two-phase" | "index-join" |
                         // "baseline" | "empty"
  bool exact = false;
  uint64_t candidates = 0;       // phase-1 candidate count
  uint64_t results = 0;
  uint64_t bytes_scanned = 0;    // file bytes read during execution
  uint64_t corpus_bytes = 0;     // total corpus size, for comparison
  uint64_t objects_built = 0;    // database objects materialized
  EvalStats algebra;             // region-algebra operation counts
  uint64_t micros = 0;
  /// QueryOptions::soft_fail only: a governance limit tripped and the
  /// result is the verified prefix, not the full answer (`exact` is false
  /// and a note records the limit that tripped).
  bool truncated = false;
  /// "ir" when the dataflow IR executor evaluated an index plan; empty
  /// for strategies that evaluate no algebra (baseline, empty).
  std::string engine;
  /// Wall time, node counts and cursor I/O per IR operator kind
  /// (exclusive of input evaluation); empty when `engine` is.
  IrOpTimings op_timings;
  std::vector<std::string> notes;  // compiler + engine decisions
};

/// The answer to a query: matching view regions (SELECT r) or projected
/// values (SELECT r.path), plus the stats.
struct QueryResult {
  std::vector<Region> regions;
  std::vector<Value> values;  // projections only
  QueryStats stats;

  /// Projected values rendered as text (atoms verbatim, composites
  /// space-joined), sorted — convenient for assertions and display.
  std::vector<std::string> RenderedValues() const;
};

/// The user-facing facade: a database view over files (paper §1's
/// "uniform framework"). Register a structuring schema, add files, build
/// indices, run FQL.
///
///   auto schema = BibtexSchema();
///   FileQuerySystem system(*schema);
///   system.AddFile("refs.bib", text);
///   system.BuildIndexes(IndexSpec::Full());
///   auto result = system.Execute(
///       "SELECT r FROM References r "
///       "WHERE r.Authors.Name.Last_Name = \"Chang\"");
class FileQuerySystem {
 public:
  explicit FileQuerySystem(StructuringSchema schema);

  /// Adds a file's text. Before BuildIndexes this just registers the
  /// document; after, the indexes are maintained *incrementally* — only
  /// the new file is parsed and its contribution spliced in (see
  /// src/qof/maintain/). Queries keep working across mutations and note
  /// the maintenance generation in their stats.
  ///
  /// `options` (here and on Update/Remove) bounds the maintenance work
  /// the same way it bounds queries: a deadline, cancellation or budget
  /// trip aborts with the typed error *before* any state changes —
  /// corpus and indexes stay exactly as they were.
  Status AddFile(std::string name, std::string_view text,
                 const QueryOptions& options = {});

  /// Replaces a file's text. With built indexes, only this file is
  /// re-parsed; its old contribution is spliced out and the new one in.
  /// Without built indexes the corpus entry is replaced in place.
  Status UpdateFile(std::string_view name, std::string_view text,
                    const QueryOptions& options = {});

  /// Removes a file; with built indexes its contribution is spliced out
  /// (the region names stay registered, possibly with empty instances).
  Status RemoveFile(std::string_view name,
                    const QueryOptions& options = {});

  /// Folds tombstoned spans out of the corpus and rebases the indexes —
  /// no re-parsing. After compaction the indexes are byte-identical
  /// (under ExportIndexes) to a from-scratch build. Also runs
  /// automatically once the MaintainOptions thresholds trip.
  Status CompactIndexes();

  /// Maintenance knobs (thresholds, fault injection for tests). Applies
  /// to the current maintainer and to ones created by future builds.
  void SetMaintainOptions(const MaintainOptions& options);

  /// Maintenance counters; zeros before indexes are built.
  MaintainStats maintain_stats() const;

  /// Mutations applied since the indexes were built (0 = pristine).
  /// Thread-safe (reads under the state lock, like maintain_stats()).
  uint64_t index_generation() const { return maintain_stats().generation; }

  // --- snapshot isolation (multi-client service support) ----------------
  //
  // Concurrency contract: mutations (AddFile / UpdateFile / RemoveFile /
  // CompactIndexes / BuildIndexes / OpenStore) are serialized against
  // each other internally and may run concurrently with any number of
  // ExecuteOnSnapshot calls. The *live* Execute path is NOT safe
  // against concurrent mutations — multi-client callers (see
  // qof/server/) route every query through a snapshot.

  /// Pins the current corpus + indexes + compiler as an immutable
  /// generation-stamped view. Queries on the snapshot see exactly this
  /// state forever — a mutation arriving later forks the state and
  /// writes private copies of just the pieces it touches (copy-on-write),
  /// never blocking on readers and never becoming visible to them. Dropping the last reference releases the
  /// pinned state (and its eval-cache entries). Requires built indexes.
  Result<SnapshotRef> AcquireSnapshot();

  /// Parses and runs `fql` against `snapshot` instead of the live state.
  /// Thread-safe: any number of snapshot executions may run concurrently
  /// with each other and with mutations. Execution is serial (no worker
  /// pool) — the multi-client service gets its parallelism across
  /// queries, not within one. Both caches serve it: the eval cache under
  /// the snapshot's pinned epoch, the plan cache guarded by
  /// PlanCache::Entry::build (plans depend on the compiler, which is
  /// replaced per build — entries from another build are ignored).
  Result<QueryResult> ExecuteOnSnapshot(const IndexSnapshot& snapshot,
                                        std::string_view fql,
                                        ExecutionMode mode =
                                            ExecutionMode::kAuto,
                                        const QueryOptions& options = {});

  /// (Re)parses all files and builds word + region indices per the spec.
  /// Documents are processed in parallel on the system's thread pool
  /// (see SetParallelism; `spec.parallelism` overrides per build); the
  /// result is identical at any worker count.
  Status BuildIndexes(const IndexSpec& spec = IndexSpec::Full());

  /// Sets the worker count shared by index builds and two-phase query
  /// execution: 0 (the default) means one worker per hardware thread,
  /// 1 forces the serial code paths, n > 1 uses n workers. Results are
  /// deterministic — identical indexes, regions, values and stats at any
  /// setting; only wall time changes.
  void SetParallelism(int threads) { parallelism_ = threads; }
  int parallelism() const { return parallelism_; }

  /// Parses and runs an FQL query. `mode` kAuto picks: empty plans
  /// short-circuit; exact plans (with index-served projection) run
  /// index-only; single join predicates with indexed attributes use the
  /// index-assisted join; everything else runs two-phase. kBaseline
  /// always works, indices or not.
  ///
  /// `options` governs the execution (see qof/exec/exec_context.h): a
  /// deadline, cooperative cancellation, and byte / region budgets,
  /// enforced at document, candidate and algebra-operator granularity on
  /// every strategy. A tripped limit returns the typed error
  /// (kDeadlineExceeded / kCancelled / kBudgetExhausted) whose message
  /// carries partial-progress stats — or, with `options.soft_fail`, the
  /// verified-so-far prefix with `stats.truncated` set.
  ///
  /// Under kAuto the engine also degrades gracefully: a corrupt or
  /// missing index mid-plan (kInternal / kNotFound) or a region budget
  /// blown by index-side materialization falls back one rung
  /// (index strategy -> two-phase -> baseline), appending an explanatory
  /// note. Deadline, cancellation and the byte budget never degrade — a
  /// cheaper strategy cannot refund time or bytes already spent.
  Result<QueryResult> Execute(std::string_view fql,
                              ExecutionMode mode = ExecutionMode::kAuto,
                              const QueryOptions& options = {});

  /// Installs (or disables, with a default-constructed CacheOptions) the
  /// two query caches. The plan cache maps FQL text to its parsed AST and
  /// compiled plan; the eval cache shares region-algebra subexpression
  /// results keyed by serialized normal form + index epoch. Enabling them
  /// never changes results — only cost. Both are invalidated here and on
  /// BuildIndexes / OpenStore; the eval cache additionally retires
  /// entries whenever the maintenance generation or compaction count
  /// moves — per epoch, so entries pinned by a live snapshot survive
  /// mutations and keep serving that snapshot's queries warm.
  void SetCacheOptions(const CacheOptions& options);
  const CacheOptions& cache_options() const { return cache_options_; }

  /// Combined counters of both caches (all zeros while disabled).
  CacheStats cache_stats() const;

  /// The compiled plan for a query (for inspection / tests / benches).
  Result<QueryPlan> Plan(std::string_view fql) const;

  /// Human-readable plan report: the strategy kAuto would pick, the
  /// candidate/projection/join expressions with cost estimates, exactness
  /// and the compiler's notes. Requires built indexes.
  Result<std::string> Explain(std::string_view fql) const;

  /// Explain() plus the IR optimizer pipeline: the lowered dataflow
  /// program and its dump after every pass (CSE, pushdown, ordering,
  /// annotation), each node annotated with cost estimates. The last dump
  /// is the program Execute() runs for this query. Deterministic for a
  /// given system state — the qof_explain tool and the golden test print
  /// it verbatim.
  Result<std::string> ExplainQuery(std::string_view fql) const;

  /// Accepts "<View>" and "<View>s" ("Reference", "References") plus any
  /// alias registered here.
  void AddViewAlias(std::string alias);

  /// True when this system answers queries on `view` (it is the schema's
  /// view name or a registered alias). Used by Workspace routing.
  bool HandlesView(const std::string& view) const {
    return view_aliases_.count(view) > 0;
  }

  const StructuringSchema& schema() const { return schema_; }
  const Rig& full_rig() const { return full_rig_; }
  /// What RunPasses reads to narrow ⊃d/⊂d separators (schema facts
  /// only, so valid for the life of the system).
  SeparatorFacts separator_facts() const {
    return {&full_rig_, &same_span_rig_};
  }
  const Corpus& corpus() const { return *corpus_; }
  bool indexes_built() const { return built_ != nullptr; }
  const RegionIndex& region_index() const { return built_->regions; }
  const WordIndex& word_index() const { return built_->words; }
  const IndexSpec& index_spec() const { return spec_; }
  uint64_t index_build_micros() const {
    return built_ ? built_->build_micros : 0;
  }

  /// Approximate index footprint (regions + words), for the §6/§7
  /// space-vs-speed tradeoff experiments.
  uint64_t IndexBytes() const;

  // --- index persistence: the paged store (src/qof/store/) --------------

  /// The store image SaveStore would write at the default page size:
  /// the built indexes plus their spec, per-document fingerprints and
  /// maintenance generation. Word postings are sorted, so byte equality
  /// of two exports stands in for index equality. Compacts first if
  /// mutations left tombstoned spans. Fails if indexes are not built or
  /// the spec has a non-serializable token filter.
  Result<std::string> ExportIndexes();

  /// Writes the built indexes as a paged "QOFSTOR1" store file: meta
  /// page, spec and document-table sections, fenced dictionaries, and
  /// block-compressed posting streams. Compacts first if mutations left
  /// tombstoned spans (same rule as ExportIndexes), and forces full
  /// residency when the current indexes are themselves disk-backed.
  /// Fails if indexes are not built, the spec has a non-serializable
  /// token filter, or `page_size` is not a multiple of 256.
  Status SaveStore(const std::string& path,
                   uint32_t page_size = kDefaultPageSize);

  /// Installs indexes backed by a paged store file *without* loading
  /// them: the dictionaries' fence keys are read at open, and region
  /// instances / posting lists page in lazily through the store's buffer
  /// pool as queries touch them. Query results are byte-identical to the
  /// in-memory indexes the store was saved from. Validates the store's
  /// document table against the corpus (the error names stale documents)
  /// and is all-or-nothing: the store is opened and validated into a
  /// staging area first, so a damaged or stale store leaves previously
  /// installed indexes fully intact and queryable. Subsequent mutations
  /// (AddFile etc.) force full residency first.
  Status OpenStore(const std::string& path, PagedStoreOptions options = {});

  /// Provenance and health of the installed indexes.
  struct IndexStats {
    bool built = false;
    /// "none" | "built" | "paged-store"
    std::string source = "none";
    uint64_t generation = 0;
    /// True while index data still pages in from a store file.
    bool disk_resident = false;
    /// Buffer-pool counters; zeros unless a store is open.
    BufferPoolStats pool;
  };
  IndexStats index_stats() const;

 private:
  /// Explain()'s report for an already compiled plan.
  std::string ExplainPlan(const QueryPlan& plan) const;

  /// Everything one query execution reads, bundled so the same body
  /// serves the live state (members) and a pinned snapshot. When
  /// `scan_counter` is set, byte accounting for the whole execution is
  /// routed there (thread-locally) instead of the corpus's shared
  /// counter — concurrent snapshot queries over one corpus each keep
  /// exact per-query totals.
  struct ExecSurface {
    const Corpus* corpus = nullptr;
    const BuiltIndexes* built = nullptr;        // null before BuildIndexes
    const QueryCompiler* compiler = nullptr;    // null before BuildIndexes
    CacheEpoch epoch;
    MaintainStats maintain;
    bool maintained = false;  // a maintainer exists (indexes built)
    EvalCache* eval_cache = nullptr;
    ThreadPool* pool = nullptr;                 // null -> serial paths
    std::atomic<uint64_t>* scan_counter = nullptr;

    uint64_t BytesScanned() const {
      return scan_counter != nullptr
                 ? scan_counter->load(std::memory_order_relaxed)
                 : corpus->bytes_read();
    }
  };

  Status CheckView(const std::string& view) const;

  /// (Re)creates the maintainer over the current built_ + corpus_,
  /// resuming from `generation` (non-zero after an OpenStore).
  void ResetMaintainer(uint64_t generation);

  /// The store image of the current indexes (compacting first when the
  /// corpus is fragmented). Caller must hold state_mu_.
  Result<std::string> EncodeStoreLocked(uint32_t page_size);

  /// Before a write: when a snapshot was handed the current state since
  /// the last fork, replaces corpus_ and built_ by copies that share all
  /// their pieces with it (see ForkOf in system.cc), so the write copies
  /// only what it touches and the pinned originals never change. Pages a
  /// disk-backed index in first, which is the only way it fails. Caller
  /// must hold state_mu_.
  Status ForkIfPinnedLocked();

  /// What the maintainer mutates: the current corpus and indexes. Caller
  /// must hold state_mu_.
  MaintainTarget TargetLocked() { return {corpus_.get(), built_.get()}; }

  /// The baseline plan body, shared by kBaseline executions and the
  /// auto-mode fallback (which has already parsed and view-checked the
  /// query, so it must not pay for either again). Does not reset the
  /// corpus byte counter: the caller owns it, so bytes accumulate across
  /// fallback rungs and stay monotone for the byte budget.
  Result<QueryResult> RunBaselinePlan(const ExecSurface& surface,
                                      const SelectQuery& query,
                                      const ExecContext* ctx,
                                      bool soft_fail);

  /// Parses `fql` through the plan cache, serving only entries stamped
  /// with `build` (the live build for Execute, the pinned one for a
  /// snapshot): plans depend on the compiler, which each build replaces,
  /// and a snapshot can outlive a rebuild. A hit skips parsing, and
  /// compiling too once a plan is attached; a miss parses and publishes
  /// the parse (plan still null) for ExecuteWithSurface to complete.
  /// With the plan cache off this only parses.
  Result<std::shared_ptr<const PlanCache::Entry>> ParseCached(
      std::string_view fql, uint64_t build);

  /// The strategy ladder itself, parameterized by the surface it reads.
  /// A compiled plan is published back to the plan cache under `fql`
  /// when the cache is on; `cached_plan` skips compilation when the
  /// lookup already produced one.
  Result<QueryResult> ExecuteWithSurface(
      const ExecSurface& surface, const SelectQuery& query,
      ExecutionMode mode, const QueryOptions& options, std::string_view fql,
      std::shared_ptr<const QueryPlan> cached_plan);

  /// The epoch eval-cache entries are keyed under right now. Reads
  /// maintainer state directly (no public accessors), so it is safe both
  /// with and without state_mu_ held.
  CacheEpoch CurrentEpochUnlocked() const {
    MaintainStats ms = maintainer_ != nullptr ? maintainer_->stats(*corpus_)
                                              : MaintainStats{};
    return CacheEpoch{ms.generation, ms.compactions, builds_};
  }

  /// The shared worker pool, lazily (re)built for `threads` workers;
  /// nullptr when `threads` <= 1 so serial paths take no pool detour.
  ThreadPool* EnsurePool(int threads);

  StructuringSchema schema_;
  Rig full_rig_;
  Rig same_span_rig_;
  /// Serializes mutations and state publication (corpus_/built_/
  /// compiler_/maintainer_ swaps, snapshot pinning) — see the
  /// concurrency contract above AcquireSnapshot(). Mutable so const
  /// stats accessors can take it.
  mutable std::mutex state_mu_;
  /// Published state: snapshots copy these shared_ptrs; mutations either
  /// mutate in place (nothing pinned) or fork first (ForkIfPinnedLocked).
  std::shared_ptr<Corpus> corpus_ = std::make_shared<Corpus>();
  /// Set when AcquireSnapshot hands out corpus_/built_, cleared by the
  /// fork. A flag rather than a use_count() test: the count a writer
  /// reads orders nothing against a reader that just released its pin on
  /// another thread, so an in-place write could race that reader's last
  /// reads. A write after every pin dropped still forks, and copies what
  /// it touches once more.
  bool pinned_ = false;
  IndexSpec spec_;
  int parallelism_ = 0;  // 0 = hardware concurrency
  std::unique_ptr<ThreadPool> pool_;
  std::shared_ptr<BuiltIndexes> built_;
  std::shared_ptr<const QueryCompiler> compiler_;
  /// Set by OpenStore; the indexes' backing sources co-own it. Cleared
  /// (here) by BuildIndexes — open cursors keep the old
  /// store alive through their own shared_ptrs.
  std::shared_ptr<const PagedStore> store_;
  /// index_stats() provenance: how built_ came to be.
  std::string index_source_ = "none";
  /// Counts BuildIndexes/OpenStore (the `build` epoch component:
  /// generations reset across rebuilds, epochs must not collide).
  uint64_t builds_ = 0;
  MaintainOptions maintain_options_;
  std::unique_ptr<IndexMaintainer> maintainer_;
  CacheOptions cache_options_;
  std::unique_ptr<PlanCache> plan_cache_;
  std::shared_ptr<EvalCache> eval_cache_;
  std::set<std::string> view_aliases_;
};

}  // namespace qof

#endif  // QOF_ENGINE_SYSTEM_H_
