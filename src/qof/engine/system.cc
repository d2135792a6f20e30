#include "qof/engine/system.h"

#include <algorithm>
#include <chrono>

#include "qof/engine/baseline.h"
#include "qof/engine/condition_eval.h"
#include "qof/engine/index_io.h"
#include "qof/engine/join.h"
#include "qof/engine/two_phase.h"
#include "qof/exec/fault_injector.h"
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

/// Parses `fql` through `cache` (a state's plan cache; null when the
/// caches are off, and then this only parses). A hit skips parsing, and
/// compiling too once a plan is attached; a miss parses and publishes the
/// parse (plan still null) for ExecuteWithSurface to complete.
Result<std::shared_ptr<const PlanCache::Entry>> ParseCached(
    std::string_view fql, PlanCache* cache) {
  std::string key;
  if (cache != nullptr) {
    key.assign(fql);
    if (auto hit = cache->Lookup(key)) return hit;
  }
  auto entry = std::make_shared<PlanCache::Entry>();
  QOF_ASSIGN_OR_RETURN(entry->query, ParseFql(fql));
  if (cache != nullptr) cache->Insert(key, entry);
  return std::shared_ptr<const PlanCache::Entry>(std::move(entry));
}

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
  QOF_RETURN_IF_ERROR(BeginWriteLocked());
  if (maintainer_ != nullptr) {
    return maintainer_
        ->AddDocument(TargetLocked(), std::move(name), text,
                      pool_.get(), ctx)
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
  QOF_RETURN_IF_ERROR(BeginWriteLocked());
  if (maintainer_ != nullptr) {
    return maintainer_
        ->UpdateDocument(TargetLocked(), name, text,
                         pool_.get(), ctx)
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
  QOF_RETURN_IF_ERROR(BeginWriteLocked());
  if (maintainer_ != nullptr) {
    return maintainer_->RemoveDocument(TargetLocked(), name,
                                       pool_.get(), ctx);
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
  QOF_RETURN_IF_ERROR(BeginWriteLocked());
  return maintainer_->Compact(TargetLocked(), pool_.get());
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

Status FileQuerySystem::BeginWriteLocked() {
  if (pinned_) {
    if (built_ != nullptr) {
      // No lazy load may write into a shard or instance two states
      // share: a disk-backed index pages in fully before it is shared.
      QOF_RETURN_IF_ERROR(built_->regions.EnsureResident());
      QOF_RETURN_IF_ERROR(built_->words.EnsureResident());
    }
    corpus_ = ForkOf(corpus_);
    built_ = ForkOf(built_);
    pinned_ = false;
  }
  RenewCachesLocked(/*new_compiler=*/false);
  return Status::OK();
}

namespace {

/// Replaces `cache` by an empty one reporting into the same counters,
/// counting the retired one as an invalidation unless it was empty.
template <typename Cache>
void Renew(std::shared_ptr<Cache>* cache,
           const std::shared_ptr<CacheCounters>& counters) {
  if (!(*cache)->empty()) {
    counters->invalidations.fetch_add(1, std::memory_order_relaxed);
  }
  *cache = std::make_shared<Cache>(counters);
}

}  // namespace

void FileQuerySystem::RenewCachesLocked(bool new_compiler) {
  if (cache_counters_ == nullptr) return;
  // The planted bug: the new state keeps the old state's eval cache, so
  // it serves entries computed before the write (--inject stale-cache).
  if (!PlantedBugArmed(planted_bug::kStaleCache)) {
    Renew(&eval_cache_, cache_counters_);
  }
  if (new_compiler) Renew(&plan_cache_, cache_counters_);
}

void FileQuerySystem::SetParallelism(int threads) {
  parallelism_ = threads;
  pool_ = std::make_unique<ThreadPool>(threads);
}

Status FileQuerySystem::BuildIndexes(const IndexSpec& spec) {
  std::lock_guard<std::mutex> lock(state_mu_);
  QOF_ASSIGN_OR_RETURN(
      BuiltIndexes built,
      qof::BuildIndexes(schema_, *corpus_, spec, pool_.get()));
  // Publish-by-swap: snapshots pinning the previous build keep it alive
  // through their shared_ptrs; the corpus itself was only read.
  built_ = std::make_shared<BuiltIndexes>(std::move(built));
  spec_ = spec;
  compiler_ = std::make_shared<const QueryCompiler>(
      &full_rig_, spec.IndexedNames(schema_), schema_.view_name(),
      spec.within);
  store_.reset();
  index_source_ = "built";
  ResetMaintainer(/*generation=*/0);
  // A rebuild replaces the compiler, so plans (keyed by FQL text alone)
  // may describe the old index spec: both caches start empty.
  RenewCachesLocked(/*new_compiler=*/true);
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

IndexSnapshot FileQuerySystem::CurrentState() const {
  return IndexSnapshot{
      corpus_, built_, compiler_, plan_cache_, eval_cache_,
      maintainer_ != nullptr ? maintainer_->stats(*corpus_)
                             : MaintainStats{}};
}

Result<QueryResult> FileQuerySystem::Execute(std::string_view fql,
                                             ExecutionMode mode,
                                             const QueryOptions& options) {
  const IndexSnapshot state = CurrentState();
  // Two-phase candidate verification runs on the system pool.
  return ExecuteWithSurface({state, pool_.get()}, fql, mode, options);
}

Result<SnapshotRef> FileQuerySystem::AcquireSnapshot() {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (built_ == nullptr || compiler_ == nullptr) {
    return Status::InvalidArgument(
        "indexes not built; snapshots require BuildIndexes() first");
  }
  // The next write forks instead of mutating what this snapshot reads.
  pinned_ = true;
  return std::make_shared<const IndexSnapshot>(CurrentState());
}

Result<QueryResult> FileQuerySystem::ExecuteOnSnapshot(
    const IndexSnapshot& snapshot, std::string_view fql,
    ExecutionMode mode, const QueryOptions& options) {
  // Snapshot queries run concurrently, so they cannot share the system
  // pool (ParallelFor is not reentrant across callers): each runs its
  // candidates on its own thread.
  return ExecuteWithSurface({snapshot, nullptr}, fql, mode, options);
}

void FileQuerySystem::SetCacheOptions(const CacheOptions& options) {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (!options.enabled) {
    cache_counters_ = nullptr;
    plan_cache_ = nullptr;
    eval_cache_ = nullptr;
    return;
  }
  cache_counters_ = std::make_shared<CacheCounters>();
  plan_cache_ = std::make_shared<PlanCache>(cache_counters_);
  eval_cache_ = std::make_shared<EvalCache>(cache_counters_);
}

CacheStats FileQuerySystem::cache_stats() const {
  std::shared_ptr<const CacheCounters> counters;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    counters = cache_counters_;
  }
  return counters != nullptr ? counters->stats() : CacheStats{};
}

Result<QueryResult> FileQuerySystem::RunBaselinePlan(
    const ExecSurface& surface, const SelectQuery& query,
    const ExecContext* ctx, bool soft_fail) {
  Timer timer;
  QueryResult result;
  const Corpus& corpus = *surface.state.corpus;
  result.stats.corpus_bytes = corpus.size();
  ObjectStore store;
  QOF_ASSIGN_OR_RETURN(
      BaselineResult baseline,
      RunBaseline(schema_, corpus, query, full_rig_, &store, ctx,
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
    const ExecSurface& surface, std::string_view fql, ExecutionMode mode,
    const QueryOptions& options) {
  const IndexSnapshot& state = surface.state;
  QOF_ASSIGN_OR_RETURN(auto parsed, ParseCached(fql, state.plan_cache.get()));
  const SelectQuery& query = parsed->query;
  QOF_RETURN_IF_ERROR(CheckView(query.view));

  const Corpus& corpus = *state.corpus;

  // Arm governance. With no limits set `ctx` stays null and every checked
  // path below takes its pre-governance fast path.
  ExecContext governed(options);
  const ExecContext* ctx = nullptr;
  if (governed.active()) {
    governed.set_scanned_bytes_counter(&surface.scanned);
    ctx = &governed;
  }
  // Layers without an explicit ExecContext* — the store's buffer pool on
  // a page miss — pick the context up thread-locally, so a governed
  // query's deadline and cancellation reach into the disk tier.
  ExecContext::ThreadScope thread_scope(ctx);
  // Route this thread's scan accounting into the query's own counter:
  // the corpus may be shared with concurrent queries (snapshots), and the
  // disk tier's decompressed index bytes (Corpus::ChargeScanBytes) count
  // only inside a scope.
  Corpus::ScanCounterScope scan_scope(&surface.scanned);

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

  if (state.compiler == nullptr || state.built == nullptr) {
    return Status::InvalidArgument(
        "indexes not built; call BuildIndexes() first (or use "
        "ExecutionMode::kBaseline)");
  }
  std::shared_ptr<const QueryPlan> plan_ptr = parsed->plan;
  if (plan_ptr == nullptr) {
    QOF_ASSIGN_OR_RETURN(QueryPlan compiled, state.compiler->Compile(query));
    plan_ptr = std::make_shared<const QueryPlan>(std::move(compiled));
    if (state.plan_cache != nullptr) {
      auto entry = std::make_shared<PlanCache::Entry>();
      entry->query = query;
      entry->plan = plan_ptr;
      state.plan_cache->Insert(std::string(fql), std::move(entry));
    }
  }
  const QueryPlan& plan = *plan_ptr;
  result.stats.notes = plan.notes;
  if (state.maintain.generation > 0) {
    const MaintainStats& ms = state.maintain;
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
  RunPasses(&ir, &state.built->regions, &state.built->words, &facts);
  IrExecutor ir_exec(&ir, &state.built->regions, &state.built->words,
                     &corpus, ctx, state.eval_cache.get());
  ir_exec.SetJoinFn([&corpus](const RegionSet& cands, const RegionSet& lhs,
                              const RegionSet& rhs) {
    return RunIndexJoin(corpus, cands, lhs, rhs);
  });
  auto record_timings = [&] { result.stats.op_timings = ir_exec.timings(); };

  // Phase 1: evaluate the candidate expression on the indices. With the
  // eval cache on, every composite subexpression is first looked up by
  // its serialized normal form in the state's cache.
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
  auto two_phase = RunTwoPhase(schema_, corpus, plan, candidates, full_rig_,
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
    QOF_RETURN_IF_ERROR(BeginWriteLocked());
    QOF_RETURN_IF_ERROR(
        maintainer_->Compact(TargetLocked(), pool_.get()));
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
  ResetMaintainer(loaded.generation);
  // Same reasoning as BuildIndexes: both caches start empty.
  RenewCachesLocked(/*new_compiler=*/true);
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
