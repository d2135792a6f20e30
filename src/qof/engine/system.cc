#include "qof/engine/system.h"

#include <algorithm>
#include <chrono>

#include "qof/engine/baseline.h"
#include "qof/engine/condition_eval.h"
#include "qof/engine/index_io.h"
#include "qof/engine/join.h"
#include "qof/engine/two_phase.h"
#include "qof/ir/ir.h"
#include "qof/ir/passes.h"
#include "qof/store/paged_file.h"

namespace qof {
namespace {

class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  uint64_t Micros() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Decorates a governance error with partial-progress stats so a caller
/// that hit a limit knows how far execution got. Other codes pass through.
Status WithProgress(const Status& status, const char* phase,
                    uint64_t bytes_scanned, const ExecContext* ctx) {
  if (!IsGovernanceError(status)) return status;
  std::string msg = status.message() + " [" + phase + ": " +
                    std::to_string(bytes_scanned) + " bytes scanned";
  if (ctx != nullptr && ctx->regions_charged() > 0) {
    msg += ", " + std::to_string(ctx->regions_charged()) +
           " index regions materialized";
  }
  msg += "]";
  return Status(status.code(), std::move(msg));
}

}  // namespace

std::vector<std::string> QueryResult::RenderedValues() const {
  // Rendering projections needs no store: projected values are fully
  // materialized (object refs were resolved during navigation).
  ObjectStore empty;
  std::vector<std::string> out;
  out.reserve(values.size());
  for (const Value& v : values) out.push_back(FlattenText(empty, v));
  std::sort(out.begin(), out.end());
  return out;
}

FileQuerySystem::FileQuerySystem(StructuringSchema schema)
    : schema_(std::move(schema)),
      full_rig_(DeriveFullRig(schema_)),
      same_span_rig_(DeriveSameSpanRig(schema_)) {
  const std::string& view = schema_.view_name();
  view_aliases_.insert(view);
  view_aliases_.insert(view + "s");
  if (!view.empty() && view.back() == 'y') {
    view_aliases_.insert(view.substr(0, view.size() - 1) + "ies");
  }
}

Status FileQuerySystem::AddFile(std::string name, std::string_view text,
                                const QueryOptions& options) {
  ExecContext governed(options);
  const ExecContext* ctx = governed.active() ? &governed : nullptr;
  std::lock_guard<std::mutex> lock(state_mu_);
  QOF_RETURN_IF_ERROR(ForkIfPinnedLocked());
  if (maintainer_ != nullptr) {
    return maintainer_
        ->AddDocument(TargetLocked(), std::move(name), text,
                      EnsurePool(parallelism_), ctx)
        .status();
  }
  if (ctx != nullptr) QOF_RETURN_IF_ERROR(ctx->Check());
  return corpus_->AddDocument(std::move(name), text).status();
}

Status FileQuerySystem::UpdateFile(std::string_view name,
                                   std::string_view text,
                                   const QueryOptions& options) {
  ExecContext governed(options);
  const ExecContext* ctx = governed.active() ? &governed : nullptr;
  std::lock_guard<std::mutex> lock(state_mu_);
  QOF_RETURN_IF_ERROR(ForkIfPinnedLocked());
  if (maintainer_ != nullptr) {
    return maintainer_
        ->UpdateDocument(TargetLocked(), name, text,
                         EnsurePool(parallelism_), ctx)
        .status();
  }
  if (ctx != nullptr) QOF_RETURN_IF_ERROR(ctx->Check());
  return corpus_->ReplaceDocument(name, text).status();
}

Status FileQuerySystem::RemoveFile(std::string_view name,
                                   const QueryOptions& options) {
  ExecContext governed(options);
  const ExecContext* ctx = governed.active() ? &governed : nullptr;
  std::lock_guard<std::mutex> lock(state_mu_);
  QOF_RETURN_IF_ERROR(ForkIfPinnedLocked());
  if (maintainer_ != nullptr) {
    return maintainer_->RemoveDocument(TargetLocked(), name,
                                       EnsurePool(parallelism_), ctx);
  }
  if (ctx != nullptr) QOF_RETURN_IF_ERROR(ctx->Check());
  return corpus_->RemoveDocument(name).status();
}

Status FileQuerySystem::CompactIndexes() {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (maintainer_ == nullptr) {
    return Status::InvalidArgument(
        "indexes not built; nothing to compact");
  }
  QOF_RETURN_IF_ERROR(ForkIfPinnedLocked());
  return maintainer_->Compact(TargetLocked(), EnsurePool(parallelism_));
}

void FileQuerySystem::SetMaintainOptions(const MaintainOptions& options) {
  std::lock_guard<std::mutex> lock(state_mu_);
  maintain_options_ = options;
  if (maintainer_ != nullptr) maintainer_->options() = options;
}

MaintainStats FileQuerySystem::maintain_stats() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return maintainer_ != nullptr ? maintainer_->stats(*corpus_)
                                : MaintainStats{};
}

void FileQuerySystem::ResetMaintainer(uint64_t generation) {
  maintainer_ = std::make_unique<IndexMaintainer>(&schema_, spec_,
                                                  maintain_options_);
  maintainer_->set_generation(generation);
}

namespace {

/// The one copy-on-write step, for corpus and indexes alike: a copy of a
/// pinned state object. The copy shares every text byte, instance, shard
/// and posting list with the original (CowPtr handles), so it costs the
/// document table and a few thousand handle copies; the write then
/// copies only the pieces it touches.
template <typename T>
std::shared_ptr<T> ForkOf(const std::shared_ptr<T>& pinned) {
  return pinned != nullptr ? std::make_shared<T>(*pinned) : nullptr;
}

}  // namespace

Status FileQuerySystem::ForkIfPinnedLocked() {
  if (!pinned_) return Status::OK();
  if (built_ != nullptr) {
    // No lazy load may write into a shard or instance two states share:
    // a disk-backed index pages in fully before it is shared.
    QOF_RETURN_IF_ERROR(built_->regions.EnsureResident());
    QOF_RETURN_IF_ERROR(built_->words.EnsureResident());
  }
  corpus_ = ForkOf(corpus_);
  built_ = ForkOf(built_);
  pinned_ = false;
  return Status::OK();
}

ThreadPool* FileQuerySystem::EnsurePool(int threads) {
  threads = EffectiveParallelism(threads);
  if (threads <= 1) return nullptr;
  if (pool_ == nullptr || pool_->size() != threads) {
    pool_ = std::make_unique<ThreadPool>(threads);
  }
  return pool_.get();
}

Status FileQuerySystem::BuildIndexes(const IndexSpec& spec) {
  std::lock_guard<std::mutex> lock(state_mu_);
  // spec.parallelism == 0 defers to the system-wide knob.
  ThreadPool* pool = EnsurePool(
      spec.parallelism != 0 ? spec.parallelism : parallelism_);
  QOF_ASSIGN_OR_RETURN(BuiltIndexes built,
                       qof::BuildIndexes(schema_, *corpus_, spec, pool));
  // Publish-by-swap: snapshots pinning the previous build keep it alive
  // through their shared_ptrs; the corpus itself was only read.
  built_ = std::make_shared<BuiltIndexes>(std::move(built));
  spec_ = spec;
  compiler_ = std::make_shared<const QueryCompiler>(
      &full_rig_, spec.IndexedNames(schema_), schema_.view_name(),
      spec.within);
  store_.reset();
  index_source_ = "built";
  ++builds_;
  ResetMaintainer(/*generation=*/0);
  // A rebuild replaces the compiler: plan-cache entries (keyed by FQL
  // text alone) may describe plans for the old index spec — drop them
  // all. The eval cache only advances its epoch: the `build` component
  // makes the new epoch unique, and entries pinned by live snapshots of
  // the old build keep serving those snapshots.
  if (plan_cache_ != nullptr) plan_cache_->Clear();
  if (eval_cache_ != nullptr) {
    eval_cache_->AdvanceEpoch(CurrentEpochUnlocked());
  }
  return Status::OK();
}

void FileQuerySystem::AddViewAlias(std::string alias) {
  view_aliases_.insert(std::move(alias));
}

Status FileQuerySystem::CheckView(const std::string& view) const {
  if (view_aliases_.count(view) > 0) return Status::OK();
  return Status::InvalidArgument("unknown view '" + view +
                                 "' (expected " + schema_.view_name() +
                                 ")");
}

Result<QueryPlan> FileQuerySystem::Plan(std::string_view fql) const {
  QOF_ASSIGN_OR_RETURN(SelectQuery query, ParseFql(fql));
  QOF_RETURN_IF_ERROR(CheckView(query.view));
  if (compiler_ == nullptr) {
    return Status::InvalidArgument(
        "indexes not built; call BuildIndexes() first");
  }
  return compiler_->Compile(query);
}

Result<std::string> FileQuerySystem::Explain(std::string_view fql) const {
  QOF_ASSIGN_OR_RETURN(QueryPlan plan, Plan(fql));
  return ExplainPlan(plan);
}

std::string FileQuerySystem::ExplainPlan(const QueryPlan& plan) const {
  std::string out = "query:     " + plan.query.ToString() + "\n";
  if (plan.trivially_empty) {
    out += "strategy:  empty (Prop. 3.3: no conforming file has results)\n";
    return out;
  }
  if (!plan.view_indexed) {
    out += "strategy:  baseline (view region not indexed)\n";
    return out;
  }
  const bool wants_projection = plan.query.IsProjection();
  std::string strategy;
  if (plan.exact && (!wants_projection || plan.projection != nullptr)) {
    strategy = "index-only (exact, no file access)";
  } else if (plan.index_join && !wants_projection) {
    strategy = "index-join (attribute text reads only)";
  } else {
    strategy = "two-phase (parse candidates, filter in database)";
  }
  out += "strategy:  " + strategy + "\n";

  out += "candidates: " + plan.candidates->ToString() + "\n";
  // The cost figures the optimizer passes read, taken on the lowering
  // before any pass runs: n-ary ∪/∩ cost like their left fold.
  IrProgram lowered =
      LowerToIr(plan.candidates.get(), nullptr, nullptr, nullptr);
  const SeparatorFacts facts = separator_facts();
  AssignSeparators(&lowered, &built_->regions, &facts);
  AnnotateIrCosts(&lowered, &built_->regions, &built_->words);
  const IrNode& root = lowered.nodes[lowered.candidates];
  out += "            ~" +
         std::to_string(static_cast<long long>(root.est_cardinality)) +
         " regions, ~" +
         std::to_string(static_cast<long long>(root.est_work)) +
         " work units\n";
  if (plan.projection != nullptr) {
    out += "projection: " + plan.projection->ToString() + "\n";
  }
  if (plan.index_join) {
    out += "join lhs:   " + plan.join_lhs_attrs->ToString() + "\n";
    out += "join rhs:   " + plan.join_rhs_attrs->ToString() + "\n";
  }
  out += std::string("exact:      ") + (plan.exact ? "yes" : "no") + "\n";
  for (const std::string& note : plan.notes) {
    out += "note:       " + note + "\n";
  }
  return out;
}

Result<std::string> FileQuerySystem::ExplainQuery(std::string_view fql) const {
  QOF_ASSIGN_OR_RETURN(QueryPlan plan, Plan(fql));
  std::string out = ExplainPlan(plan);
  if (plan.trivially_empty || !plan.view_indexed) return out;
  IrProgram ir =
      LowerToIr(plan.candidates.get(), plan.projection.get(),
                plan.join_lhs_attrs.get(), plan.join_rhs_attrs.get());
  std::vector<PassTrace> trace;
  const SeparatorFacts facts = separator_facts();
  RunPasses(&ir, &built_->regions, &built_->words, &facts, &trace);
  out += "\nIR pipeline:\n";
  for (const PassTrace& step : trace) {
    out += "-- after " + step.name + " --\n" + step.dump;
  }
  return out;
}

Result<std::shared_ptr<const PlanCache::Entry>> FileQuerySystem::ParseCached(
    std::string_view fql, uint64_t build) {
  // Plans depend only on the schema and the index spec, never on the
  // indexed data, so mutations need not invalidate them. PlanCache is
  // internally locked, so concurrent snapshot queries can share it.
  std::string key;
  if (plan_cache_ != nullptr) {
    key.assign(fql);
    auto hit = plan_cache_->Lookup(key);
    if (hit != nullptr && hit->build == build) return hit;
  }
  auto entry = std::make_shared<PlanCache::Entry>();
  QOF_ASSIGN_OR_RETURN(entry->query, ParseFql(fql));
  entry->build = build;
  if (plan_cache_ != nullptr) plan_cache_->Insert(key, entry);
  return std::shared_ptr<const PlanCache::Entry>(std::move(entry));
}

Result<QueryResult> FileQuerySystem::Execute(std::string_view fql,
                                             ExecutionMode mode,
                                             const QueryOptions& options) {
  QOF_ASSIGN_OR_RETURN(auto parsed, ParseCached(fql, builds_));
  ExecSurface surface;
  surface.corpus = corpus_.get();
  surface.built = built_.get();
  surface.compiler = compiler_.get();
  surface.epoch = CurrentEpochUnlocked();
  surface.maintain = maintainer_ != nullptr ? maintainer_->stats(*corpus_)
                                             : MaintainStats{};
  surface.maintained = maintainer_ != nullptr;
  surface.eval_cache = eval_cache_.get();
  // Two-phase candidate verification runs on the system pool.
  surface.pool = EnsurePool(parallelism_);
  // The live path owns the corpus counter (no concurrent readers by
  // contract — see AcquireSnapshot's concurrency notes).
  corpus_->ResetBytesRead();
  return ExecuteWithSurface(surface, parsed->query, mode, options, fql,
                            parsed->plan);
}

Result<SnapshotRef> FileQuerySystem::AcquireSnapshot() {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (built_ == nullptr || compiler_ == nullptr) {
    return Status::InvalidArgument(
        "indexes not built; snapshots require BuildIndexes() first");
  }
  auto snapshot = std::make_unique<IndexSnapshot>();
  snapshot->corpus = corpus_;
  snapshot->built = built_;
  snapshot->compiler = compiler_;
  snapshot->epoch = CurrentEpochUnlocked();
  snapshot->maintain = maintainer_->stats(*corpus_);
  // The next write forks instead of mutating what this snapshot reads.
  pinned_ = true;
  // Pin the epoch so eval-cache entries keyed under it survive later
  // mutations; the deleter unpins when the last reference drops. The
  // deleter captures the cache by shared_ptr: even if SetCacheOptions
  // swaps the system's cache meanwhile, the unpin reaches the instance
  // that was pinned.
  std::shared_ptr<EvalCache> cache = eval_cache_;
  if (cache != nullptr) cache->Pin(snapshot->epoch);
  return SnapshotRef(snapshot.release(),
                     [cache](const IndexSnapshot* s) {
                       if (cache != nullptr) cache->Unpin(s->epoch);
                       delete s;
                     });
}

Result<QueryResult> FileQuerySystem::ExecuteOnSnapshot(
    const IndexSnapshot& snapshot, std::string_view fql,
    ExecutionMode mode, const QueryOptions& options) {
  QOF_ASSIGN_OR_RETURN(auto parsed, ParseCached(fql, snapshot.epoch.build));
  // Per-query byte accounting: the snapshot's corpus is shared with
  // other concurrent queries (and possibly the live state), so its
  // member counter can't be reset — route this thread's scanning into a
  // local counter instead.
  std::atomic<uint64_t> scanned{0};
  Corpus::ScanCounterScope scope(&scanned);
  ExecSurface surface;
  surface.corpus = snapshot.corpus.get();
  surface.built = snapshot.built.get();
  surface.compiler = snapshot.compiler.get();
  surface.epoch = snapshot.epoch;
  surface.maintain = snapshot.maintain;
  surface.maintained = true;
  // The cache outlives the snapshot only via the system; grab the
  // current instance — entries for the snapshot's pinned epoch are
  // retained as long as the snapshot lives.
  surface.eval_cache = eval_cache_.get();
  // Snapshot queries run concurrently, so they cannot share the system
  // pool (ParallelFor is not reentrant across callers): they run serial.
  surface.pool = nullptr;
  surface.scan_counter = &scanned;
  return ExecuteWithSurface(surface, parsed->query, mode, options, fql,
                            parsed->plan);
}

void FileQuerySystem::SetCacheOptions(const CacheOptions& options) {
  cache_options_ = options;
  plan_cache_ = options.enable_plan_cache
                    ? std::make_unique<PlanCache>(options.max_plans)
                    : nullptr;
  eval_cache_ = options.enable_eval_cache
                    ? std::make_shared<EvalCache>(options.max_cached_regions)
                    : nullptr;
}

CacheStats FileQuerySystem::cache_stats() const {
  CacheStats merged;
  if (plan_cache_ != nullptr) {
    CacheStats p = plan_cache_->stats();
    merged.plan_hits = p.plan_hits;
    merged.plan_misses = p.plan_misses;
    merged.plan_evictions = p.plan_evictions;
    merged.invalidations += p.invalidations;
  }
  if (eval_cache_ != nullptr) {
    CacheStats e = eval_cache_->stats();
    merged.eval_hits = e.eval_hits;
    merged.eval_misses = e.eval_misses;
    merged.eval_evictions = e.eval_evictions;
    merged.eval_regions_cached = e.eval_regions_cached;
    merged.invalidations += e.invalidations;
  }
  return merged;
}

Result<QueryResult> FileQuerySystem::RunBaselinePlan(
    const ExecSurface& surface, const SelectQuery& query,
    const ExecContext* ctx, bool soft_fail) {
  Timer timer;
  QueryResult result;
  result.stats.corpus_bytes = surface.corpus->size();
  ObjectStore store;
  QOF_ASSIGN_OR_RETURN(
      BaselineResult baseline,
      RunBaseline(schema_, *surface.corpus, query, full_rig_, &store, ctx,
                  soft_fail));
  result.regions = std::move(baseline.regions);
  result.values = std::move(baseline.projected);
  result.stats.strategy = "baseline";
  result.stats.exact = !baseline.truncated;
  result.stats.truncated = baseline.truncated;
  if (baseline.truncated) {
    result.stats.notes.push_back("result truncated: " +
                                 baseline.interrupted.message());
  }
  result.stats.objects_built = baseline.objects_built;
  result.stats.results = result.regions.size();
  result.stats.bytes_scanned = surface.BytesScanned();
  result.stats.micros = timer.Micros();
  return result;
}

Result<QueryResult> FileQuerySystem::ExecuteWithSurface(
    const ExecSurface& surface, const SelectQuery& query,
    ExecutionMode mode, const QueryOptions& options, std::string_view fql,
    std::shared_ptr<const QueryPlan> cached_plan) {
  QOF_RETURN_IF_ERROR(CheckView(query.view));

  const Corpus& corpus = *surface.corpus;

  // Arm governance. With no limits set `ctx` stays null and every checked
  // path below takes its pre-governance fast path.
  ExecContext governed(options);
  const ExecContext* ctx = nullptr;
  if (governed.active()) {
    governed.set_scanned_bytes_counter(
        surface.scan_counter != nullptr ? surface.scan_counter
                                        : &corpus.bytes_read_counter());
    ctx = &governed;
  }
  // Layers without an explicit ExecContext* — the store's buffer pool on
  // a page miss — pick the context up thread-locally, so a governed
  // query's deadline and cancellation reach into the disk tier.
  ExecContext::ThreadScope thread_scope(ctx);
  // Arm this thread's scan accounting so the disk tier's decompressed
  // index bytes (Corpus::ChargeScanBytes) are counted. Snapshot queries
  // already route to their private counter — this resolves to the same
  // one; the live path resolves to the corpus's own counter, exactly
  // where its ScanText charges always landed.
  Corpus::ScanCounterScope scan_scope(
      surface.scan_counter != nullptr
          ? surface.scan_counter
          : &corpus.mutable_bytes_read_counter());

  // The baseline needs no indices at all.
  if (mode == ExecutionMode::kBaseline) {
    auto out = RunBaselinePlan(surface, query, ctx, options.soft_fail);
    if (!out.ok()) {
      return WithProgress(out.status(), "baseline", surface.BytesScanned(),
                          ctx);
    }
    return out;
  }

  Timer timer;
  QueryResult result;
  result.stats.corpus_bytes = corpus.size();

  if (surface.compiler == nullptr || surface.built == nullptr) {
    return Status::InvalidArgument(
        "indexes not built; call BuildIndexes() first (or use "
        "ExecutionMode::kBaseline)");
  }
  std::shared_ptr<const QueryPlan> plan_ptr = std::move(cached_plan);
  if (plan_ptr == nullptr) {
    QOF_ASSIGN_OR_RETURN(QueryPlan compiled,
                         surface.compiler->Compile(query));
    plan_ptr = std::make_shared<const QueryPlan>(std::move(compiled));
    if (plan_cache_ != nullptr) {
      auto entry = std::make_shared<PlanCache::Entry>();
      entry->query = query;
      entry->build = surface.epoch.build;
      entry->plan = plan_ptr;
      plan_cache_->Insert(std::string(fql), std::move(entry));
    }
  }
  const QueryPlan& plan = *plan_ptr;
  result.stats.notes = plan.notes;
  if (surface.maintained && surface.maintain.generation > 0) {
    const MaintainStats& ms = surface.maintain;
    result.stats.notes.push_back(
        "indexes maintained incrementally: generation " +
        std::to_string(ms.generation) + ", " +
        std::to_string(ms.tombstones) + " tombstone(s), " +
        std::to_string(ms.compactions) + " compaction(s)");
  }

  if (plan.trivially_empty) {
    result.stats.strategy = "empty";
    result.stats.exact = true;
    result.stats.micros = timer.Micros();
    return result;
  }

  // Baseline fallback shared by the view-not-indexed case and the bottom
  // rung of the degradation ladder: the query is already parsed and
  // view-checked, and the accumulated notes (ending in the fallback
  // decision) come before any notes the plan itself adds.
  auto run_baseline_fallback = [&]() -> Result<QueryResult> {
    auto fallback = RunBaselinePlan(surface, query, ctx, options.soft_fail);
    if (!fallback.ok()) {
      return WithProgress(fallback.status(), "baseline",
                          surface.BytesScanned(), ctx);
    }
    fallback->stats.notes.insert(fallback->stats.notes.begin(),
                                 result.stats.notes.begin(),
                                 result.stats.notes.end());
    return fallback;
  };

  if (!plan.view_indexed) {
    if (mode == ExecutionMode::kIndexOnly ||
        mode == ExecutionMode::kTwoPhase) {
      return Status::InvalidArgument(
          "view region is not indexed; only baseline execution can "
          "answer this query");
    }
    result.stats.notes.push_back("auto: baseline (view not indexed)");
    return run_baseline_fallback();
  }

  const bool wants_projection = query.IsProjection();
  const bool index_serves_projection =
      !wants_projection || plan.projection != nullptr;

  // Graceful degradation (kAuto only): a corrupt or missing index
  // mid-plan (kInternal / kNotFound) or a region budget blown by
  // index-side materialization falls back one rung of the ladder
  //   index strategy -> two-phase -> baseline
  // with a note naming the trigger. Deadline, cancellation and the byte
  // budget never degrade: a cheaper strategy cannot refund wall-clock
  // time or bytes already scanned.
  auto degradable = [&](const Status& status) {
    if (mode != ExecutionMode::kAuto) return false;
    if (status.code() == StatusCode::kInternal ||
        status.code() == StatusCode::kNotFound) {
      return true;
    }
    return status.IsBudgetExhausted() && ctx != nullptr &&
           ctx->regions_exhausted();
  };
  auto degrade_to = [&](const char* rung, const Status& status) {
    result.stats.notes.push_back(std::string("degraded to ") + rung + ": " +
                                 status.message());
    governed.ResetForFallback();
  };

  // Lower the plan's expression legs into one dataflow program, optimize
  // it, and evaluate each node at most once per query: slots are shared
  // across the candidate/projection/join roots.
  result.stats.engine = "ir";
  IrProgram ir =
      LowerToIr(plan.candidates.get(), plan.projection.get(),
                plan.join_lhs_attrs.get(), plan.join_rhs_attrs.get());
  const SeparatorFacts facts = separator_facts();
  RunPasses(&ir, &surface.built->regions, &surface.built->words, &facts);
  IrExecutor ir_exec(&ir, &surface.built->regions, &surface.built->words,
                     surface.corpus, ctx, surface.eval_cache, surface.epoch);
  ir_exec.SetJoinFn([&corpus](const RegionSet& cands, const RegionSet& lhs,
                              const RegionSet& rhs) {
    return RunIndexJoin(corpus, cands, lhs, rhs);
  });
  auto record_timings = [&] { result.stats.op_timings = ir_exec.timings(); };

  // Phase 1: evaluate the candidate expression on the indices. With the
  // eval cache on, every composite subexpression is first looked up by
  // its serialized normal form under the surface's index epoch.
  RegionSet candidates;
  {
    auto cand = ir_exec.EvaluateRoot(ir.candidates, &result.stats.algebra);
    if (!cand.ok()) {
      // No index-backed rung can run without candidates (two-phase needs
      // them too): kAuto degrades straight to the baseline.
      if (!degradable(cand.status())) {
        return WithProgress(cand.status(), "phase-1 candidates",
                            surface.BytesScanned(), ctx);
      }
      degrade_to("baseline", cand.status());
      return run_baseline_fallback();
    }
    candidates = std::move(*cand);
  }
  result.stats.candidates = candidates.size();

  bool index_rung_degraded = false;
  if (plan.exact && index_serves_projection &&
      mode != ExecutionMode::kTwoPhase) {
    // Full computation on the indexing engine (§5): no parsing at all.
    // Built into locals and committed only on success, so a degradation
    // leaves `result` clean for the next rung.
    Status rung = Status::OK();
    std::vector<Value> values;
    if (wants_projection) {
      // The IR program's kProject root evaluates the attribute
      // expression and keeps the attributes within candidates, with the
      // candidate root served from its memoized slot.
      Result<RegionSet> within_r =
          ir_exec.EvaluateRoot(ir.project, &result.stats.algebra);
      if (!within_r.ok()) {
        rung = within_r.status();
      } else {
        for (const Region& r : *within_r) {
          values.push_back(
              Value::Str(std::string(corpus.ScanText(r.start, r.end))));
        }
      }
    }
    if (rung.ok()) {
      result.regions.assign(candidates.begin(), candidates.end());
      if (wants_projection) {
        result.values = std::move(values);
        result.stats.notes.push_back(
            "projection served by region index (attribute text reads "
            "only)");
      }
      result.stats.strategy = "index-only";
      result.stats.exact = true;
      result.stats.results =
          wants_projection ? result.values.size() : result.regions.size();
      result.stats.bytes_scanned = surface.BytesScanned();
      record_timings();
      result.stats.micros = timer.Micros();
      return result;
    }
    if (!degradable(rung)) {
      return WithProgress(rung, "index-only", surface.BytesScanned(), ctx);
    }
    degrade_to("two-phase", rung);
    index_rung_degraded = true;
  }

  if (mode == ExecutionMode::kIndexOnly) {
    return Status::InvalidArgument(
        "plan is not exact (" + std::string(plan.exact ? "projection" :
        "candidates") + " need the database); index-only mode cannot "
        "answer this query");
  }

  // §5.2 index-assisted join: compare attribute text without parsing.
  // Skipped once an index rung already degraded — the join reads the same
  // indexes that just failed.
  if (!index_rung_degraded && plan.index_join && !wants_projection &&
      mode != ExecutionMode::kTwoPhase) {
    // The kJoin root evaluates both attribute legs (sharing any
    // subexpression the candidates already computed) and runs the join
    // through the injected callback.
    auto joined = ir_exec.EvaluateRoot(ir.join, &result.stats.algebra);
    if (joined.ok()) {
      result.regions.assign(joined->begin(), joined->end());
      result.stats.strategy = "index-join";
      result.stats.exact = true;
      result.stats.results = result.regions.size();
      result.stats.bytes_scanned = surface.BytesScanned();
      record_timings();
      result.stats.micros = timer.Micros();
      return result;
    }
    if (!degradable(joined.status())) {
      return WithProgress(joined.status(), "index-join",
                          surface.BytesScanned(), ctx);
    }
    degrade_to("two-phase", joined.status());
  }

  // Phase 2 (§6.2): parse candidates, filter in the database.
  ObjectStore store;
  auto two_phase =
      RunTwoPhase(schema_, corpus, plan, candidates, full_rig_, &store,
                  surface.pool, ctx, options.soft_fail);
  if (!two_phase.ok()) {
    if (!degradable(two_phase.status())) {
      return WithProgress(two_phase.status(), "two-phase",
                          surface.BytesScanned(), ctx);
    }
    degrade_to("baseline", two_phase.status());
    return run_baseline_fallback();
  }
  result.regions = std::move(two_phase->regions);
  result.values = std::move(two_phase->projected);
  result.stats.strategy = "two-phase";
  // After filtering the answer is exact — unless soft-fail truncated it
  // to the verified prefix.
  result.stats.exact = !two_phase->truncated;
  result.stats.truncated = two_phase->truncated;
  if (two_phase->truncated) {
    result.stats.notes.push_back("result truncated: " +
                                 two_phase->interrupted.message());
  }
  result.stats.objects_built = two_phase->candidates_parsed;
  result.stats.results =
      wants_projection ? result.values.size() : result.regions.size();
  result.stats.bytes_scanned = surface.BytesScanned();
  record_timings();
  result.stats.micros = timer.Micros();
  return result;
}

uint64_t FileQuerySystem::IndexBytes() const {
  if (built_ == nullptr) return 0;
  return built_->regions.ApproxBytes() + built_->words.ApproxBytes();
}

Result<std::string> FileQuerySystem::EncodeStoreLocked(uint32_t page_size) {
  if (built_ == nullptr) {
    return Status::InvalidArgument("indexes not built; nothing to export");
  }
  if (corpus_->fragmented()) {
    // Store offsets must describe a dense layout; folding the tombstones
    // away also makes the image canonical (byte-comparable to a fresh
    // build's). Same rules as CompactIndexes (whose lock we already
    // hold): readers pinned to the fragmented layout keep their copy.
    QOF_RETURN_IF_ERROR(ForkIfPinnedLocked());
    QOF_RETURN_IF_ERROR(
        maintainer_->Compact(TargetLocked(), EnsurePool(parallelism_)));
  }
  return EncodeIndexStore(
      *built_, spec_, *corpus_,
      maintainer_ != nullptr ? maintainer_->generation() : 0, page_size);
}

Result<std::string> FileQuerySystem::ExportIndexes() {
  std::lock_guard<std::mutex> lock(state_mu_);
  return EncodeStoreLocked(kDefaultPageSize);
}

Status FileQuerySystem::SaveStore(const std::string& path,
                                  uint32_t page_size) {
  std::lock_guard<std::mutex> lock(state_mu_);
  QOF_ASSIGN_OR_RETURN(std::string image, EncodeStoreLocked(page_size));
  return WriteFileBytes(path, image);
}

Status FileQuerySystem::OpenStore(const std::string& path,
                                  PagedStoreOptions options) {
  std::lock_guard<std::mutex> lock(state_mu_);
  // Staged: a damaged or stale store (or an injected index_io fault) must
  // leave the installed indexes, spec, compiler and maintainer exactly as
  // they were — still queryable.
  QOF_ASSIGN_OR_RETURN(LoadedIndexStore loaded,
                       LoadIndexStore(path, options));
  if (corpus_->fragmented()) {
    return Status::InvalidArgument(
        "corpus has tombstoned spans; compact before opening a store");
  }
  std::vector<std::string> stale = DiagnoseStaleDocs(loaded.docs, *corpus_);
  if (!stale.empty()) {
    return Status::InvalidArgument("store does not match the corpus: " +
                                   FormatStaleDocs(stale));
  }
  auto built = std::make_shared<BuiltIndexes>(std::move(loaded.indexes));
  auto compiler = std::make_shared<const QueryCompiler>(
      &full_rig_, loaded.spec.IndexedNames(schema_), schema_.view_name(),
      loaded.spec.within);
  // Commit: nothing past this point can fail.
  spec_ = std::move(loaded.spec);
  built_ = std::move(built);
  compiler_ = std::move(compiler);
  store_ = std::move(loaded.store);
  index_source_ = "paged-store";
  ++builds_;
  ResetMaintainer(loaded.generation);
  // Same reasoning as BuildIndexes: plans may describe the old spec —
  // clear the plan cache; the eval cache advances to the new build's
  // epoch, keeping only entries pinned by live snapshots.
  if (plan_cache_ != nullptr) plan_cache_->Clear();
  if (eval_cache_ != nullptr) {
    eval_cache_->AdvanceEpoch(CurrentEpochUnlocked());
  }
  return Status::OK();
}

FileQuerySystem::IndexStats FileQuerySystem::index_stats() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  IndexStats stats;
  stats.built = built_ != nullptr;
  stats.source = index_source_;
  stats.generation =
      maintainer_ != nullptr ? maintainer_->generation() : 0;
  stats.disk_resident =
      built_ != nullptr && (built_->regions.disk_resident() ||
                            built_->words.disk_resident());
  if (store_ != nullptr) stats.pool = store_->pool_stats();
  return stats;
}

}  // namespace qof
