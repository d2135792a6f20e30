#include "qof/algebra/cost_model.h"

#include <algorithm>
#include <cmath>

namespace qof {

std::string CostEstimate::ToString() const {
  std::string out = "~";
  out += std::to_string(static_cast<long long>(cardinality));
  out += " regions, ~";
  out += std::to_string(static_cast<long long>(work));
  out += " work units";
  return out;
}

Result<CostEstimate> CostEstimator::Estimate(const RegionExpr& expr) const {
  switch (expr.kind()) {
    case ExprKind::kName: {
      CostEstimate est;
      if (regions_ != nullptr) {
        // Count-only: a disk-backed instance's cardinality comes from
        // the store dictionary, not from materializing it.
        est.cardinality =
            static_cast<double>(regions_->InstanceCount(expr.name()));
      }
      est.work = est.cardinality;  // one pass over the instance
      return est;
    }
    case ExprKind::kUnion:
    case ExprKind::kIntersect:
    case ExprKind::kDifference: {
      QOF_ASSIGN_OR_RETURN(CostEstimate l, Estimate(*expr.left()));
      QOF_ASSIGN_OR_RETURN(CostEstimate r, Estimate(*expr.right()));
      CostEstimate est;
      est.work = l.work + r.work + l.cardinality + r.cardinality;
      switch (expr.kind()) {
        case ExprKind::kUnion:
          est.cardinality = l.cardinality + r.cardinality;
          break;
        case ExprKind::kIntersect:
          est.cardinality = std::min(l.cardinality, r.cardinality);
          break;
        default:  // difference
          est.cardinality = l.cardinality;
          break;
      }
      return est;
    }
    case ExprKind::kInnermost:
    case ExprKind::kOutermost: {
      QOF_ASSIGN_OR_RETURN(CostEstimate c, Estimate(*expr.child()));
      CostEstimate est;
      est.cardinality = c.cardinality;  // upper bound
      est.work = c.work + c.cardinality * std::max(
                                              1.0,
                                              std::log2(c.cardinality + 1));
      return est;
    }
    case ExprKind::kSelectMatches:
    case ExprKind::kSelectContains:
    case ExprKind::kSelectPhrase:
    case ExprKind::kSelectStartsWith:
    case ExprKind::kSelectContainsPrefix:
    case ExprKind::kSelectNear:
    case ExprKind::kSelectAtLeast: {
      QOF_ASSIGN_OR_RETURN(CostEstimate c, Estimate(*expr.child()));
      double postings = 0;
      if (words_ != nullptr) {
        // Phrases filter on their first word; prefix forms on the merged
        // postings of all matching words.
        auto tokens = Tokenizer::Tokenize(expr.word());
        if (!tokens.empty()) {
          std::string word(tokens[0].text);
          if (expr.kind() == ExprKind::kSelectStartsWith ||
              expr.kind() == ExprKind::kSelectContainsPrefix) {
            postings =
                static_cast<double>(words_->LookupPrefix(word).size());
          } else {
            postings = static_cast<double>(words_->Lookup(word).size());
          }
        }
      }
      CostEstimate est;
      est.cardinality = std::min(c.cardinality, postings);
      est.work = c.work + c.cardinality;
      if (expr.kind() == ExprKind::kSelectPhrase) {
        // Verification reads candidate text.
        est.work += est.cardinality * 8;
      }
      return est;
    }
    case ExprKind::kIncluding:
    case ExprKind::kIncluded:
    case ExprKind::kDirectlyIncluding:
    case ExprKind::kDirectlyIncluded: {
      QOF_ASSIGN_OR_RETURN(CostEstimate l, Estimate(*expr.left()));
      QOF_ASSIGN_OR_RETURN(CostEstimate r, Estimate(*expr.right()));
      CostEstimate est;
      // The result is a subset of the left operand, bounded by the right
      // operand's size (each right region certifies at most a handful of
      // lefts; min is the classic upper bound).
      est.cardinality = std::min(l.cardinality, r.cardinality);
      double merge = l.cardinality + r.cardinality;
      bool direct = expr.kind() == ExprKind::kDirectlyIncluding ||
                    expr.kind() == ExprKind::kDirectlyIncluded;
      if (direct && regions_ != nullptr) {
        // ⊃d probes each right member into the universe, ⊂d each left.
        double probes = expr.kind() == ExprKind::kDirectlyIncluding
                            ? r.cardinality
                            : l.cardinality;
        merge += CostModel::DirectProbeWork(
            probes, static_cast<double>(regions_->UniverseSize()));
        merge *= kDirectFactor;
      }
      est.work = l.work + r.work + merge;
      return est;
    }
  }
  return Status::Internal("unhandled expression kind");
}

}  // namespace qof
