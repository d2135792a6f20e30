#include "qof/ir/executor.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "qof/algebra/select_kernels.h"
#include "qof/exec/fault_injector.h"
#include "qof/region/cost_model.h"
#include "qof/region/region_cursor.h"
#include "qof/text/tokenizer.h"

namespace qof {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t MicrosSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            start)
          .count());
}

void Record(EvalStats* stats, const RegionSet& produced) {
  if (stats == nullptr) return;
  stats->regions_produced += produced.size();
  stats->max_intermediate =
      std::max<uint64_t>(stats->max_intermediate, produced.size());
}

/// Folds one worker's per-node stats into the query total. Every field is
/// a sum except max_intermediate, which is a max — both are commutative,
/// so the merged total is independent of wave completion order.
void MergeStats(EvalStats* into, const EvalStats& s) {
  if (into == nullptr) return;
  into->set_ops += s.set_ops;
  into->select_ops += s.select_ops;
  into->nest_ops += s.nest_ops;
  into->simple_incl_ops += s.simple_incl_ops;
  into->direct_incl_ops += s.direct_incl_ops;
  into->regions_produced += s.regions_produced;
  into->max_intermediate =
      std::max(into->max_intermediate, s.max_intermediate);
  into->bytes_scanned += s.bytes_scanned;
  into->cache_hits += s.cache_hits;
  into->cache_misses += s.cache_misses;
}

bool Cacheable(IrOp op) {
  // kLoad borrows the index instance (a cache entry would duplicate it);
  // kProject/kJoin are engine rungs the tree engine never caches either.
  return op != IrOp::kLoad && op != IrOp::kProject && op != IrOp::kJoin;
}

/// True while the calling thread is inside a ParallelFor task of this
/// executor. ParallelFor is not reentrant, so morsel splitting must not
/// trigger from such a thread — the morsel falls back to the serial
/// kernel there (identical results by construction).
thread_local bool tls_in_pool_task = false;

struct PoolTaskScope {
  bool prev;
  PoolTaskScope() : prev(tls_in_pool_task) { tls_in_pool_task = true; }
  ~PoolTaskScope() { tls_in_pool_task = prev; }
  PoolTaskScope(const PoolTaskScope&) = delete;
  PoolTaskScope& operator=(const PoolTaskScope&) = delete;
};

/// The members of `s` falling in pivot range `r`: [bounds[r-1], bounds[r])
/// in canonical Region order (open ends at the edges). The ranges
/// partition the whole key space, so for any two canonically sorted sets
/// the per-range subsets of an element-local set operation concatenate to
/// exactly the full operation's result.
RegionSet SubRangeSet(const RegionSet& s, const std::vector<Region>& bounds,
                      size_t r) {
  const std::vector<Region>& v = s.regions();
  auto lo = r == 0 ? v.begin()
                   : std::lower_bound(v.begin(), v.end(), bounds[r - 1]);
  auto hi = r == bounds.size()
                ? v.end()
                : std::lower_bound(v.begin(), v.end(), bounds[r]);
  return RegionSet::FromSortedUnique(std::vector<Region>(lo, hi));
}

/// Equidistant pivots from the largest input, deduplicated — at most
/// `target` ranges, fewer when the input repeats pivot values.
std::vector<Region> PickBounds(const RegionSet& largest, size_t target) {
  const std::vector<Region>& v = largest.regions();
  std::vector<Region> bounds;
  for (size_t r = 1; r < target; ++r) {
    const Region& piv = v[r * v.size() / target];
    if (bounds.empty() || bounds.back() < piv) bounds.push_back(piv);
  }
  return bounds;
}

}  // namespace

IrExecutor::IrExecutor(const IrProgram* program, const RegionIndex* regions,
                       const WordIndex* words, const Corpus* corpus,
                       const ExecContext* ctx, EvalCache* cache,
                       CacheEpoch epoch)
    : program_(program),
      regions_(regions),
      words_(words),
      corpus_(corpus),
      ctx_(ctx),
      cache_(cache),
      epoch_(epoch),
      slots_(program->nodes.size()) {}

Status IrExecutor::Charge(EvalStats* stats,
                          const RegionSet& produced) const {
  Record(stats, produced);
  if (ctx_ != nullptr) return ctx_->ChargeRegions(produced.size());
  return Status::OK();
}

void IrExecutor::AddTiming(IrOp op, uint64_t micros,
                           const CursorIoStats* io) {
  std::lock_guard<std::mutex> lock(timings_mu_);
  IrOpTiming& t = timings_[IrOpName(op)];
  ++t.count;
  t.micros += micros;
  if (io != nullptr) {
    t.pages_read += io->pages_read;
    t.read_calls += io->read_calls;
    t.prefetch_hits += io->prefetch_hits;
  }
}

bool IrExecutor::CursorCandidate(const IrNode& node) const {
  if (!regions_->disk_resident()) return false;
  const bool eligible =
      node.op == IrOp::kSelect || node.op == IrOp::kIncluding ||
      node.op == IrOp::kIncluded || node.op == IrOp::kProject;
  if (!eligible || node.inputs.empty()) return false;
  if (program_->nodes[node.inputs[0]].op != IrOp::kLoad) return false;
  if (node.op == IrOp::kSelect) {
    // Only the single-token exact-match form: its posting-driven kernel
    // probes the child for exact spans {p, p+len}, which IntersectCursor
    // reproduces block-skippingly. Everything else (phrases, prefixes,
    // containment) falls back to the materializing kernel.
    if (node.select.kind != ExprKind::kSelectMatches || words_ == nullptr) {
      return false;
    }
    if (Tokenizer::Tokenize(node.select.word).size() != 1) return false;
  }
  return true;
}

bool IrExecutor::CursorPathWanted(int id, int load_id) const {
  // Parallel mode decides from the snapshot ScheduleParallel took before
  // dispatching any wave: a live read of the load slot would make the
  // cursor-vs-kernel choice depend on which wave filled the load first.
  // (Either path yields byte-identical results; pinning the choice keeps
  // I/O counters and timings reproducible run to run.)
  if (parallel_active_) return cursor_elected_[id] != 0;
  // Serial: once something has forced the instance resident, probing the
  // in-memory set directly is cheaper than streaming it back off disk.
  return !slots_[load_id].done;
}

Result<RegionSet> IrExecutor::EvaluateRoot(int root, EvalStats* stats) {
  if (regions_ == nullptr) {
    return Status::InvalidArgument("IR executor has no region index");
  }
  if (root < 0 || root >= static_cast<int>(program_->nodes.size())) {
    return Status::InvalidArgument("IR program has no such root");
  }
  QOF_RETURN_IF_ERROR(MaybeInjectFault(fault_site::kAlgebraEval));
  // Morsel scans on pool workers must account text bytes where this
  // thread's scope says (per-query counters under the service).
  scan_counter_ = Corpus::CurrentThreadScanCounter();
  if (pool_ != nullptr && workers_ > 1 && !slots_[root].done) {
    QOF_RETURN_IF_ERROR(ScheduleParallel(root, stats));
  }
  QOF_ASSIGN_OR_RETURN(const RegionSet* result, EvalNode(root, stats));
  // Slots keep borrowing/sharing internally; only this API boundary
  // copies — same contract as ExprEvaluator::Evaluate.
  return *result;
}

Result<const RegionSet*> IrExecutor::EvalNode(int id, EvalStats* stats) {
  const IrNode& node = program_->nodes[id];

  if (node.op == IrOp::kLoad && parallel_active_) {
    // Loads are the one slot two tasks can race for: a cursor-path
    // fallback materializes its (soft-edged) load input inline, possibly
    // concurrently with another fallback or with the load's own wave
    // task. Classic double-checked fill under the slot mutex.
    std::lock_guard<std::mutex> lock(slot_mu_);
    Slot& slot = slots_[id];
    if (slot.done) return &slot.set();
    if (ctx_ != nullptr) QOF_RETURN_IF_ERROR(ctx_->Check());
    QOF_ASSIGN_OR_RETURN(const RegionSet* set, regions_->Get(node.name));
    AddTiming(node.op, 0);
    slot.borrowed = set;
    slot.done = true;
    return &slot.set();
  }

  Slot& slot = slots_[id];
  if (slot.done) return &slot.set();

  // One governance checkpoint per operator, exactly like the tree
  // evaluator (kProject/kJoin are engine rungs the tree never polls for).
  if (ctx_ != nullptr && node.op != IrOp::kProject &&
      node.op != IrOp::kJoin) {
    QOF_RETURN_IF_ERROR(ctx_->Check());
  }

  if (node.op == IrOp::kLoad) {
    QOF_ASSIGN_OR_RETURN(const RegionSet* set, regions_->Get(node.name));
    AddTiming(node.op, 0);
    slot.borrowed = set;
    slot.done = true;
    return &slot.set();
  }

  if (cache_ != nullptr && Cacheable(node.op)) {
    if (auto hit = cache_->Lookup(node.key, epoch_)) {
      if (stats != nullptr) ++stats->cache_hits;
      // A hit charges what computing the node would have charged for its
      // own result — governance stays cache-independent.
      QOF_RETURN_IF_ERROR(Charge(stats, *hit));
      slot.shared = std::move(hit);
      slot.done = true;
      return &slot.set();
    }
    if (stats != nullptr) ++stats->cache_misses;
    QOF_ASSIGN_OR_RETURN(Slot computed, ComputeNode(id, stats));
    auto shared =
        std::make_shared<const RegionSet>(std::move(computed.owned));
    cache_->Insert(node.key, epoch_, shared);
    slot.shared = std::move(shared);
    slot.done = true;
    return &slot.set();
  }

  QOF_ASSIGN_OR_RETURN(slot, ComputeNode(id, stats));
  slot.done = true;
  return &slot.set();
}

Result<std::optional<IrExecutor::Slot>> IrExecutor::TryCursorPath(
    int id, EvalStats* stats) {
  const IrNode& node = program_->nodes[id];
  if (!CursorCandidate(node)) return std::optional<Slot>();
  // The bulk input must be a load whose slot nothing has forced yet —
  // see CursorPathWanted for how parallel mode pins this choice.
  if (!CursorPathWanted(id, node.inputs[0])) return std::optional<Slot>();
  const int load_id = node.inputs[0];

  if (node.op == IrOp::kSelect) {
    auto tokens = Tokenizer::Tokenize(node.select.word);
    QOF_ASSIGN_OR_RETURN(
        std::unique_ptr<RegionCursor> cursor,
        regions_->OpenCursor(program_->nodes[load_id].name));
    if (cursor == nullptr) return std::optional<Slot>();
    cursor->set_prefetch_allowed(prefetch_);
    if (words_->disk_resident()) {
      QOF_RETURN_IF_ERROR(words_->EnsureLoaded(tokens[0].text));
    }
    const std::string word(tokens[0].text);
    const std::vector<TextPos>& postings = words_->Lookup(word);
    const uint64_t len = word.size();
    std::vector<Region> spans;
    spans.reserve(postings.size());
    for (TextPos p : postings) spans.push_back({p, p + len});
    RegionSet probe = RegionSet::FromSortedUnique(std::move(spans));

    if (stats != nullptr) ++stats->select_ops;
    const Clock::time_point start = Clock::now();
    Slot out;
    QOF_ASSIGN_OR_RETURN(out.owned, IntersectCursor(probe, *cursor));
    QOF_RETURN_IF_ERROR(Charge(stats, out.owned));
    const CursorIoStats io = cursor->io_stats();
    AddTiming(node.op, MicrosSince(start), &io);
    return std::optional<Slot>(std::move(out));
  }

  // kIncluding/kIncluded/kProject: the other operand is the (typically
  // small) probe side; evaluate it first — it may itself take a cursor
  // path — then stream the loaded side. kProject keeps its engine-rung
  // contract: no stats, no charge.
  QOF_ASSIGN_OR_RETURN(const RegionSet* probe,
                       EvalNode(node.inputs[1], stats));
  QOF_ASSIGN_OR_RETURN(
      std::unique_ptr<RegionCursor> cursor,
      regions_->OpenCursor(program_->nodes[load_id].name));
  if (cursor == nullptr) return std::optional<Slot>();
  cursor->set_prefetch_allowed(prefetch_);
  if (stats != nullptr && node.op != IrOp::kProject) {
    ++stats->simple_incl_ops;
  }
  const Clock::time_point start = Clock::now();
  Slot out;
  QOF_ASSIGN_OR_RETURN(out.owned,
                       node.op == IrOp::kIncluding
                           ? IncludingCursor(*probe, *cursor)
                           : IncludedInCursor(*probe, *cursor));
  if (node.op != IrOp::kProject) {
    QOF_RETURN_IF_ERROR(Charge(stats, out.owned));
  }
  const CursorIoStats io = cursor->io_stats();
  AddTiming(node.op, MicrosSince(start), &io);
  return std::optional<Slot>(std::move(out));
}

bool IrExecutor::MorselEligible(size_t driving_size) const {
  return pool_ != nullptr && workers_ > 1 && !tls_in_pool_task &&
         driving_size >= 2 * morsel_grain_;
}

Result<IrExecutor::Slot> IrExecutor::ComputeNode(int id, EvalStats* stats) {
  const IrNode& node = program_->nodes[id];
  {
    QOF_ASSIGN_OR_RETURN(std::optional<Slot> streamed,
                         TryCursorPath(id, stats));
    if (streamed.has_value()) return std::move(*streamed);
  }
  // Inputs are evaluated (and governed) before the operator's own work,
  // which alone counts toward the per-operator timings.
  std::vector<const RegionSet*> inputs;
  inputs.reserve(node.inputs.size());
  for (int input : node.inputs) {
    QOF_ASSIGN_OR_RETURN(const RegionSet* set, EvalNode(input, stats));
    inputs.push_back(set);
  }

  if (node.op == IrOp::kFusedChain) return ComputeFused(node, stats);

  if (node.op == IrOp::kUnion || node.op == IrOp::kIntersect ||
      node.op == IrOp::kDifference) {
    size_t largest = 0;
    for (const RegionSet* in : inputs) {
      largest = std::max(largest, static_cast<size_t>(in->size()));
    }
    if (MorselEligible(largest)) return MorselSetFold(node, inputs, stats);
  }
  if (node.op == IrOp::kSelect && MorselEligible(inputs[0]->size())) {
    return MorselSelect(node, *inputs[0], stats);
  }

  const Clock::time_point start = Clock::now();
  Slot out;
  switch (node.op) {
    case IrOp::kUnion:
    case IrOp::kIntersect:
    case IrOp::kDifference: {
      // Left-fold of the binary kernel; every intermediate is charged,
      // so governance matches the binary tree the node replaced.
      for (size_t k = 1; k < inputs.size(); ++k) {
        const RegionSet& acc = k == 1 ? *inputs[0] : out.owned;
        if (stats != nullptr) ++stats->set_ops;
        out.owned = node.op == IrOp::kUnion        ? Union(acc, *inputs[k])
                    : node.op == IrOp::kIntersect  ? Intersect(acc, *inputs[k])
                                                   : Difference(acc, *inputs[k]);
        QOF_RETURN_IF_ERROR(Charge(stats, out.owned));
      }
      break;
    }
    case IrOp::kInnermost:
    case IrOp::kOutermost:
      if (stats != nullptr) ++stats->nest_ops;
      out.owned = node.op == IrOp::kInnermost ? Innermost(*inputs[0])
                                              : Outermost(*inputs[0]);
      QOF_RETURN_IF_ERROR(Charge(stats, out.owned));
      break;
    case IrOp::kSelect: {
      if (stats != nullptr) ++stats->select_ops;
      uint64_t scanned = 0;
      QOF_ASSIGN_OR_RETURN(
          std::vector<Region> members,
          RunSelectKernel(node.select, *inputs[0], words_, corpus_,
                          &scanned, node.key));
      if (stats != nullptr) stats->bytes_scanned += scanned;
      out.owned = RegionSet::FromSortedUnique(std::move(members));
      QOF_RETURN_IF_ERROR(Charge(stats, out.owned));
      break;
    }
    case IrOp::kIncluding:
    case IrOp::kIncluded:
      if (stats != nullptr) ++stats->simple_incl_ops;
      out.owned = node.op == IrOp::kIncluding
                      ? Including(*inputs[0], *inputs[1])
                      : IncludedIn(*inputs[0], *inputs[1]);
      QOF_RETURN_IF_ERROR(Charge(stats, out.owned));
      break;
    case IrOp::kDirectlyIncluding:
    case IrOp::kDirectlyIncluded:
      if (stats != nullptr) ++stats->direct_incl_ops;
      // Disk-backed indexes materialize every instance for the universe;
      // surface I/O errors before the infallible Universe() call.
      QOF_RETURN_IF_ERROR(regions_->EnsureResident());
      out.owned = node.op == IrOp::kDirectlyIncluding
                      ? DirectlyIncluding(*inputs[0], *inputs[1],
                                          regions_->Universe(),
                                          regions_->Parents())
                      : DirectlyIncluded(*inputs[0], *inputs[1],
                                         regions_->Universe(),
                                         regions_->Parents());
      QOF_RETURN_IF_ERROR(Charge(stats, out.owned));
      break;
    case IrOp::kProject:
      // The engine's index-only projection rung: attrs within candidates,
      // uncharged — identical to the tree engine's post-evaluation step.
      out.owned = IncludedIn(*inputs[0], *inputs[1]);
      break;
    case IrOp::kJoin: {
      if (!join_fn_) {
        return Status::Internal("IR executor has no join callback");
      }
      QOF_ASSIGN_OR_RETURN(
          std::vector<Region> joined,
          join_fn_(*inputs[0], *inputs[1], *inputs[2]));
      out.owned = RegionSet::FromUnsorted(std::move(joined));
      break;
    }
    case IrOp::kLoad:
    case IrOp::kFusedChain:
      return Status::Internal("unreachable IR op in ComputeNode");
  }
  AddTiming(node.op, MicrosSince(start));
  return out;
}

Result<IrExecutor::Slot> IrExecutor::MorselSetFold(
    const IrNode& node, const std::vector<const RegionSet*>& inputs,
    EvalStats* stats) {
  const Clock::time_point start = Clock::now();
  const RegionSet* largest = inputs[0];
  for (const RegionSet* in : inputs) {
    if (in->size() > largest->size()) largest = in;
  }
  const size_t target = std::min<size_t>(
      std::max<size_t>(2, largest->size() / morsel_grain_),
      static_cast<size_t>(workers_) * 4);
  // Ranges partition the canonical key space, so ∪/∩/− (all decided per
  // element by exact equality) commute with the split: the per-range
  // folds concatenate to exactly the serial fold's result, and the k-th
  // intermediate's size is the sum of the per-range k-th sizes — which
  // is how the serial fold's per-step charges are replayed below.
  const std::vector<Region> bounds = PickBounds(*largest, target);
  const size_t ranges = bounds.size() + 1;
  const size_t steps = inputs.size() - 1;

  struct RangeOut {
    Status status = Status::OK();
    bool claimed = false;
    std::vector<uint64_t> step_sizes;
    std::vector<Region> result;
  };
  std::vector<RangeOut> outs(ranges);
  std::atomic<bool> stop{false};
  pool_->ParallelFor(
      ranges,
      [&](int /*worker*/, size_t r) {
        PoolTaskScope in_task;
        ExecContext::ThreadScope thread_scope(ctx_);
        Corpus::ScanCounterScope scan_scope(scan_counter_);
        RangeOut& ro = outs[r];
        ro.claimed = true;
        if (ctx_ != nullptr) {
          ro.status = ctx_->Check();
          if (!ro.status.ok()) {
            stop.store(true, std::memory_order_relaxed);
            return;
          }
        }
        ro.step_sizes.resize(steps, 0);
        RegionSet acc = SubRangeSet(*inputs[0], bounds, r);
        for (size_t k = 1; k < inputs.size(); ++k) {
          const RegionSet rhs = SubRangeSet(*inputs[k], bounds, r);
          acc = node.op == IrOp::kUnion        ? Union(acc, rhs)
                : node.op == IrOp::kIntersect  ? Intersect(acc, rhs)
                                               : Difference(acc, rhs);
          ro.step_sizes[k - 1] = acc.size();
        }
        ro.result.assign(acc.regions().begin(), acc.regions().end());
      },
      &stop);

  // Deterministic outcome scan in range order (two-phase pattern):
  // unclaimed ranges mean a stop fired — surface its cause.
  for (size_t r = 0; r < ranges; ++r) {
    if (!outs[r].claimed) {
      if (ctx_ != nullptr) QOF_RETURN_IF_ERROR(ctx_->Check());
      return Status::Internal("set-op morsel skipped without a recorded cause");
    }
    QOF_RETURN_IF_ERROR(outs[r].status);
  }

  // Replay the serial fold's per-step accounting from per-range sizes.
  for (size_t k = 0; k < steps; ++k) {
    uint64_t total = 0;
    for (size_t r = 0; r < ranges; ++r) total += outs[r].step_sizes[k];
    if (stats != nullptr) {
      ++stats->set_ops;
      stats->regions_produced += total;
      stats->max_intermediate = std::max(stats->max_intermediate, total);
    }
    if (ctx_ != nullptr) QOF_RETURN_IF_ERROR(ctx_->ChargeRegions(total));
  }

  // Merge: concatenate per-range results in range order — already the
  // canonical order, no sort needed. The planted racy-merge bug drops
  // the first range, the lost-update outcome of an unsynchronized merge
  // (kept sorted/unique so the corruption reaches the oracle instead of
  // tripping a debug assert here).
  std::vector<Region> merged;
  const size_t first = inject_racy_merge_ && ranges > 1 ? 1 : 0;
  for (size_t r = first; r < ranges; ++r) {
    merged.insert(merged.end(), outs[r].result.begin(),
                  outs[r].result.end());
  }
  Slot out;
  out.owned = RegionSet::FromSortedUnique(std::move(merged));
  AddTiming(node.op, MicrosSince(start));
  return out;
}

Result<IrExecutor::Slot> IrExecutor::MorselSelect(const IrNode& node,
                                                  const RegionSet& child,
                                                  EvalStats* stats) {
  const Clock::time_point start = Clock::now();
  const std::vector<Region>& members = child.regions();
  const size_t target = std::min<size_t>(
      std::max<size_t>(2, members.size() / morsel_grain_),
      static_cast<size_t>(workers_) * 4);

  struct RangeOut {
    Status status = Status::OK();
    bool claimed = false;
    uint64_t scanned = 0;
    std::vector<Region> result;
  };
  std::vector<RangeOut> outs(target);
  std::atomic<bool> stop{false};
  pool_->ParallelFor(
      target,
      [&](int /*worker*/, size_t r) {
        PoolTaskScope in_task;
        ExecContext::ThreadScope thread_scope(ctx_);
        Corpus::ScanCounterScope scan_scope(scan_counter_);
        RangeOut& ro = outs[r];
        ro.claimed = true;
        if (ctx_ != nullptr) {
          ro.status = ctx_->Check();
          if (!ro.status.ok()) {
            stop.store(true, std::memory_order_relaxed);
            return;
          }
        }
        // Index split: selection filters members independently, so each
        // morsel selects from a contiguous slice and the slices
        // concatenate in order.
        const size_t lo = r * members.size() / target;
        const size_t hi = (r + 1) * members.size() / target;
        RegionSet part = RegionSet::FromSortedUnique(
            std::vector<Region>(members.begin() + lo, members.begin() + hi));
        auto kept = RunSelectKernel(node.select, part, words_, corpus_,
                                    &ro.scanned, node.key);
        if (!kept.ok()) {
          ro.status = kept.status();
          stop.store(true, std::memory_order_relaxed);
          return;
        }
        ro.result = std::move(kept).value();
      },
      &stop);

  for (size_t r = 0; r < target; ++r) {
    if (!outs[r].claimed) {
      if (ctx_ != nullptr) QOF_RETURN_IF_ERROR(ctx_->Check());
      return Status::Internal("select morsel skipped without a recorded cause");
    }
    QOF_RETURN_IF_ERROR(outs[r].status);
  }

  if (stats != nullptr) {
    ++stats->select_ops;
    // bytes_scanned is the one stat allowed to vary with the worker
    // count: the kernel's posting-vs-scan dispatch looks at child size,
    // and morsels present smaller children. Selected members are
    // identical regardless.
    for (const RangeOut& ro : outs) stats->bytes_scanned += ro.scanned;
  }
  std::vector<Region> merged;
  const size_t first = inject_racy_merge_ && target > 1 ? 1 : 0;
  for (size_t r = first; r < target; ++r) {
    merged.insert(merged.end(), outs[r].result.begin(),
                  outs[r].result.end());
  }
  Slot out;
  out.owned = RegionSet::FromSortedUnique(std::move(merged));
  QOF_RETURN_IF_ERROR(Charge(stats, out.owned));
  AddTiming(node.op, MicrosSince(start));
  return out;
}

Status IrExecutor::ScheduleParallel(int root, EvalStats* stats) {
  const size_t n = program_->nodes.size();
  cursor_elected_.assign(n, 0);
  std::vector<char> reach(n, 0);
  std::vector<int> pending;
  std::vector<int> stack = {root};
  while (!stack.empty()) {
    const int id = stack.back();
    stack.pop_back();
    if (id < 0 || reach[id] || slots_[id].done) continue;
    reach[id] = 1;
    pending.push_back(id);
    const IrNode& nd = program_->nodes[id];
    // Soft edge: a cursor-path candidate must NOT force its load input —
    // eagerly materializing the instance is exactly what the disk fast
    // path exists to avoid. The load is left unscheduled; if the cursor
    // path falls back at runtime it materializes the load inline under
    // slot_mu_ (see EvalNode's kLoad branch).
    const bool elect = CursorCandidate(nd) && !slots_[nd.inputs[0]].done;
    if (elect) cursor_elected_[id] = 1;
    for (size_t i = 0; i < nd.inputs.size(); ++i) {
      if (elect && i == 0) continue;
      stack.push_back(nd.inputs[i]);
    }
  }

  // Hard-dependency counts and reverse edges over the pending subgraph.
  std::vector<int> indeg(n, 0);
  std::vector<std::vector<int>> dependents(n);
  for (int id : pending) {
    const IrNode& nd = program_->nodes[id];
    for (size_t i = 0; i < nd.inputs.size(); ++i) {
      if (cursor_elected_[id] && i == 0) continue;
      const int in = nd.inputs[i];
      if (in >= 0 && reach[in] && !slots_[in].done) {
        ++indeg[id];
        dependents[in].push_back(id);
      }
    }
  }

  std::vector<int> ready;
  for (int id : pending) {
    if (indeg[id] == 0) ready.push_back(id);
  }
  std::sort(ready.begin(), ready.end());

  parallel_active_ = true;
  Status result = Status::OK();
  while (!ready.empty() && result.ok()) {
    std::vector<int> wave = std::move(ready);
    ready.clear();
    if (wave.size() == 1) {
      // A lone ready node runs inline on the query thread — the pool is
      // then free for the node's own morsels (ParallelFor must not nest).
      EvalStats local;
      Result<const RegionSet*> r = EvalNode(wave[0], &local);
      MergeStats(stats, local);
      if (!r.ok()) result = r.status();
    } else {
      struct Outcome {
        Status status = Status::OK();
        bool claimed = false;
        EvalStats stats;
      };
      std::vector<Outcome> outcomes(wave.size());
      std::atomic<bool> stop{false};
      pool_->ParallelFor(
          wave.size(),
          [&](int /*worker*/, size_t i) {
            PoolTaskScope in_task;
            ExecContext::ThreadScope thread_scope(ctx_);
            Corpus::ScanCounterScope scan_scope(scan_counter_);
            Outcome& oc = outcomes[i];
            oc.claimed = true;
            Result<const RegionSet*> r = EvalNode(wave[i], &oc.stats);
            if (!r.ok()) {
              oc.status = r.status();
              stop.store(true, std::memory_order_relaxed);
            }
          },
          &stop);
      // Node-id order (waves are sorted) keeps stats merging and
      // first-error reporting deterministic, like two-phase execution.
      for (const Outcome& oc : outcomes) {
        if (oc.claimed) MergeStats(stats, oc.stats);
      }
      for (size_t i = 0; i < wave.size() && result.ok(); ++i) {
        if (!outcomes[i].claimed) {
          Status cause =
              ctx_ != nullptr ? ctx_->Check() : Status::OK();
          result = !cause.ok() ? cause
                               : Status::Internal(
                                     "IR node skipped without a recorded "
                                     "cause");
        } else {
          result = outcomes[i].status;
        }
      }
    }
    if (!result.ok()) break;
    for (int id : wave) {
      for (int dep : dependents[id]) {
        if (--indeg[dep] == 0) ready.push_back(dep);
      }
    }
    std::sort(ready.begin(), ready.end());
  }
  parallel_active_ = false;
  return result;
}

Result<IrExecutor::Slot> IrExecutor::ComputeFused(const IrNode& node,
                                                  EvalStats* stats) {
  const RegionSet& source = slots_[node.inputs[0]].set();
  const std::vector<std::string> stage_keys =
      FusedStageKeys(*program_, node);
  // Each stage is one logical operator however many batches run it.
  if (stats != nullptr) {
    for (const IrStage& stage : node.stages) {
      if (stage.kind == IrStage::Kind::kSelect) {
        ++stats->select_ops;
      } else {
        ++stats->simple_incl_ops;
      }
    }
  }
  const Clock::time_point start = Clock::now();

  std::vector<Region> out;
  const size_t batch_size = CostModel::kFusedBatch;
  const std::vector<Region>& members = source.regions();
  // An empty source still runs one (empty) batch so stage validation
  // errors (bad selection parameters) surface exactly as unfused.
  size_t begin = 0;
  do {
    if (ctx_ != nullptr) QOF_RETURN_IF_ERROR(ctx_->Check());
    const size_t end = std::min(members.size(), begin + batch_size);
    RegionSet current = RegionSet::FromSortedUnique(
        std::vector<Region>(members.begin() + begin, members.begin() + end));
    for (size_t j = 0; j < node.stages.size(); ++j) {
      const IrStage& stage = node.stages[j];
      switch (stage.kind) {
        case IrStage::Kind::kSelect: {
          uint64_t scanned = 0;
          QOF_ASSIGN_OR_RETURN(
              std::vector<Region> kept,
              RunSelectKernel(stage.select, current, words_, corpus_,
                              &scanned, stage_keys[j]));
          if (stats != nullptr) stats->bytes_scanned += scanned;
          current = RegionSet::FromSortedUnique(std::move(kept));
          break;
        }
        case IrStage::Kind::kIncluding:
          current = Including(current, slots_[stage.rhs].set());
          break;
        case IrStage::Kind::kIncluded:
          current = IncludedIn(current, slots_[stage.rhs].set());
          break;
      }
      // Per stage per batch; summed over batches this equals exactly
      // what the unfused chain would have charged per stage.
      QOF_RETURN_IF_ERROR(Charge(stats, current));
    }
    out.insert(out.end(), current.regions().begin(),
               current.regions().end());
    begin = end;
  } while (begin < members.size());

  Slot result;
  // Every stage keeps a canonically-ordered subset of its batch and the
  // batches partition the source in canonical order, so the
  // concatenation is already sorted and unique. No final re-charge: the
  // last stage's per-batch charges sum to this set's size.
  result.owned = RegionSet::FromSortedUnique(std::move(out));
  AddTiming(node.op, MicrosSince(start));
  return result;
}

}  // namespace qof
