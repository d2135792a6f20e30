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

bool Cacheable(IrOp op) {
  // kLoad borrows the index instance (a cache entry would duplicate it);
  // kProject/kJoin are engine rungs, not algebra operators.
  return op != IrOp::kLoad && op != IrOp::kProject && op != IrOp::kJoin;
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

Result<RegionSet> IrExecutor::EvaluateRoot(int root, EvalStats* stats) {
  if (regions_ == nullptr) {
    return Status::InvalidArgument("IR executor has no region index");
  }
  if (root < 0 || root >= static_cast<int>(program_->nodes.size())) {
    return Status::InvalidArgument("IR program has no such root");
  }
  QOF_RETURN_IF_ERROR(MaybeInjectFault(fault_site::kAlgebraEval));
  QOF_ASSIGN_OR_RETURN(const RegionSet* result, EvalNode(root, stats));
  // Slots keep borrowing/sharing internally; only this API boundary
  // copies — same contract as ExprEvaluator::Evaluate.
  return *result;
}

Result<const RegionSet*> IrExecutor::EvalNode(int id, EvalStats* stats) {
  const IrNode& node = program_->nodes[id];

  Slot& slot = slots_[id];
  if (slot.done) return &slot.set();

  // One governance checkpoint per operator, exactly like the tree
  // evaluator (kProject/kJoin are engine rungs, not operators).
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
  // The bulk input must be a load whose slot nothing has forced yet:
  // once the instance is resident, probing the in-memory set directly is
  // cheaper than streaming it back off disk.
  const int load_id = node.inputs[0];
  if (slots_[load_id].done) return std::optional<Slot>();

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
      // uncharged, like every engine rung.
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
