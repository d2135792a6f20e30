#include "qof/algebra/evaluator.h"

#include <algorithm>

#include "qof/algebra/select_kernels.h"
#include "qof/exec/fault_injector.h"
#include "qof/util/string_util.h"

namespace qof {
namespace {

void Record(EvalStats* stats, const RegionSet& produced) {
  if (!stats) return;
  stats->regions_produced += produced.size();
  stats->max_intermediate =
      std::max<uint64_t>(stats->max_intermediate, produced.size());
}

}  // namespace

Status ExprEvaluator::Charge(EvalStats* stats,
                             const RegionSet& produced) const {
  Record(stats, produced);
  if (ctx_ != nullptr) return ctx_->ChargeRegions(produced.size());
  return Status::OK();
}

Result<RegionSet> ExprEvaluator::Evaluate(const RegionExpr& expr,
                                          EvalStats* stats) const {
  if (index_ == nullptr) {
    return Status::InvalidArgument("evaluator has no region index");
  }
  QOF_RETURN_IF_ERROR(MaybeInjectFault(fault_site::kAlgebraEval));
  QOF_ASSIGN_OR_RETURN(EvalResult result, Eval(expr, stats));
  // A borrowed result (the expression was a bare region name) or a shared
  // cache hit is copied once here at the API boundary; every internal
  // leaf lookup and cache hit is free.
  if (result.shared != nullptr) return *result.shared;
  if (result.borrowed != nullptr) return *result.borrowed;
  return std::move(result.owned);
}

std::string ExprEvaluator::SourceName(const RegionExpr& expr) {
  const RegionExpr* e = &expr;
  while (IsSelectKind(e->kind()) || e->kind() == ExprKind::kInnermost ||
         e->kind() == ExprKind::kOutermost) {
    e = e->child().get();
  }
  return e->kind() == ExprKind::kName ? e->name() : std::string();
}

Result<ExprEvaluator::EvalResult> ExprEvaluator::Eval(
    const RegionExpr& expr, EvalStats* stats) const {
  // One governance checkpoint per algebra operator: operators are the
  // natural unit of progress for index plans.
  if (ctx_ != nullptr) QOF_RETURN_IF_ERROR(ctx_->Check());
  if (expr.kind() == ExprKind::kName) {
    // Leaves borrow the index instance directly — never cached (a cache
    // entry would only duplicate what the index already holds).
    QOF_ASSIGN_OR_RETURN(const RegionSet* set, index_->Get(expr.name()));
    return EvalResult::Borrowed(set);
  }
  return EvalCached(expr, stats);
}

Result<ExprEvaluator::EvalResult> ExprEvaluator::EvalCached(
    const RegionExpr& expr, EvalStats* stats) const {
  if (cache_ == nullptr) return EvalNode(expr, stats);
  // Serialized expressions are canonical and re-parseable (and the
  // compiler emits Thm 3.6 normal forms), so the string is a perfect key.
  std::string key = expr.ToString();
  if (auto hit = cache_->Lookup(key)) {
    if (stats) ++stats->cache_hits;
    // A hit charges exactly what computing the node would have charged
    // for its own result, keeping governance behavior cache-independent.
    QOF_RETURN_IF_ERROR(Charge(stats, *hit));
    return EvalResult::Shared(std::move(hit));
  }
  if (stats) ++stats->cache_misses;
  QOF_ASSIGN_OR_RETURN(EvalResult computed, EvalNode(expr, stats));
  // Composite nodes always own their result (only kName leaves borrow).
  auto shared = std::make_shared<const RegionSet>(std::move(computed.owned));
  cache_->Insert(key, shared);
  return EvalResult::Shared(std::move(shared));
}

Result<ExprEvaluator::EvalResult> ExprEvaluator::EvalNode(
    const RegionExpr& expr, EvalStats* stats) const {
  switch (expr.kind()) {
    case ExprKind::kName: {
      QOF_ASSIGN_OR_RETURN(const RegionSet* set, index_->Get(expr.name()));
      return EvalResult::Borrowed(set);
    }
    case ExprKind::kUnion:
    case ExprKind::kIntersect:
    case ExprKind::kDifference: {
      QOF_ASSIGN_OR_RETURN(EvalResult l, Eval(*expr.left(), stats));
      QOF_ASSIGN_OR_RETURN(EvalResult r, Eval(*expr.right(), stats));
      if (stats) ++stats->set_ops;
      RegionSet out = expr.kind() == ExprKind::kUnion
                          ? Union(l.set(), r.set())
                      : expr.kind() == ExprKind::kIntersect
                          ? Intersect(l.set(), r.set())
                          : Difference(l.set(), r.set());
      QOF_RETURN_IF_ERROR(Charge(stats, out));
      return EvalResult::Owned(std::move(out));
    }
    case ExprKind::kInnermost:
    case ExprKind::kOutermost: {
      QOF_ASSIGN_OR_RETURN(EvalResult c, Eval(*expr.child(), stats));
      if (stats) ++stats->nest_ops;
      RegionSet out = expr.kind() == ExprKind::kInnermost
                          ? Innermost(c.set())
                          : Outermost(c.set());
      QOF_RETURN_IF_ERROR(Charge(stats, out));
      return EvalResult::Owned(std::move(out));
    }
    case ExprKind::kSelectMatches:
    case ExprKind::kSelectContains:
    case ExprKind::kSelectPhrase:
    case ExprKind::kSelectStartsWith:
    case ExprKind::kSelectContainsPrefix:
    case ExprKind::kSelectNear:
    case ExprKind::kSelectAtLeast:
      return EvalSelect(expr, stats);
    case ExprKind::kIncluding:
    case ExprKind::kIncluded: {
      QOF_ASSIGN_OR_RETURN(EvalResult l, Eval(*expr.left(), stats));
      QOF_ASSIGN_OR_RETURN(EvalResult r, Eval(*expr.right(), stats));
      if (stats) ++stats->simple_incl_ops;
      RegionSet out = expr.kind() == ExprKind::kIncluding
                          ? Including(l.set(), r.set())
                          : IncludedIn(l.set(), r.set());
      QOF_RETURN_IF_ERROR(Charge(stats, out));
      return EvalResult::Owned(std::move(out));
    }
    case ExprKind::kDirectlyIncluding:
    case ExprKind::kDirectlyIncluded: {
      QOF_ASSIGN_OR_RETURN(EvalResult l, Eval(*expr.left(), stats));
      QOF_ASSIGN_OR_RETURN(EvalResult r, Eval(*expr.right(), stats));
      return EvalDirect(expr, l.set(), r.set(), stats);
    }
  }
  return Status::Internal("unhandled expression kind");
}

Result<ExprEvaluator::EvalResult> ExprEvaluator::EvalDirect(
    const RegionExpr& expr, const RegionSet& left, const RegionSet& right,
    EvalStats* stats) const {
  if (stats) ++stats->direct_incl_ops;
  // Always the whole universe, never the RIG-narrowed separator tables the
  // IR executor probes: this evaluator is the oracle that path is checked
  // against (the fuzzer's IR leg).
  // ⊃d consults the indexed universe and its parent table; a disk-backed
  // index must materialize every instance first, and an I/O failure has
  // to surface here (Universe() itself is infallible and would answer
  // short).
  QOF_RETURN_IF_ERROR(index_->EnsureResident());
  const bool including = expr.kind() == ExprKind::kDirectlyIncluding;
  RegionSet out;
  if (direct_ == DirectAlgorithm::kLayered && including) {
    // "I − {S}": every indexed instance except the one the right operand
    // was drawn from.
    std::vector<const RegionSet*> others =
        index_->AllExcept(SourceName(*expr.right()));
    out = DirectlyIncludingLayered(left, right, others);
  } else if (direct_ == DirectAlgorithm::kLayered) {
    // ⊂d via the layered program for the mirrored operands: r ⊂d s holds
    // iff s ⊃d r; compute the s-side and map back.
    std::vector<const RegionSet*> others =
        index_->AllExcept(SourceName(*expr.left()));
    RegionSet direct_parents = DirectlyIncludingLayered(right, left, others);
    // Keep the left members one of whose direct enclosers is a selected
    // parent.
    out = DirectlyIncluded(left, direct_parents, index_->Universe(),
                           index_->Parents());
  } else {
    out = including ? DirectlyIncluding(left, right, index_->Universe(),
                                        index_->Parents())
                    : DirectlyIncluded(left, right, index_->Universe(),
                                       index_->Parents());
  }
  QOF_RETURN_IF_ERROR(Charge(stats, out));
  return EvalResult::Owned(std::move(out));
}

Result<ExprEvaluator::EvalResult> ExprEvaluator::EvalSelect(
    const RegionExpr& expr, EvalStats* stats) const {
  QOF_ASSIGN_OR_RETURN(EvalResult child_result, Eval(*expr.child(), stats));
  const RegionSet& child = child_result.set();
  if (stats) ++stats->select_ops;
  // The selection itself lives in the shared kernel (select_kernels.h) so
  // the tree evaluator and the IR executor run the exact same code.
  SelectSpec spec;
  spec.kind = expr.kind();
  spec.word = expr.word();
  spec.word2 = expr.word2();
  spec.param = expr.param();
  uint64_t scanned = 0;
  QOF_ASSIGN_OR_RETURN(
      std::vector<Region> out,
      RunSelectKernel(spec, child, words_, corpus_, &scanned,
                      expr.ToString()));
  if (stats) stats->bytes_scanned += scanned;
  RegionSet result = RegionSet::FromSortedUnique(std::move(out));
  QOF_RETURN_IF_ERROR(Charge(stats, result));
  return EvalResult::Owned(std::move(result));
}

}  // namespace qof
