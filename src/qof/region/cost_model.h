#ifndef QOF_REGION_COST_MODEL_H_
#define QOF_REGION_COST_MODEL_H_

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace qof {

/// One shared table of size-ratio dispatch constants, used by the region
/// kernels, the tree evaluator's adaptive selection dispatch, and the IR
/// cost annotation (AnnotateIrCosts) that the optimizer passes and
/// Explain read. Keeping the thresholds in a single place guarantees the
/// layers agree on *when* the asymmetric (galloping / posting-driven)
/// paths win, so a plan the optimizer costs one way cannot execute
/// another way.
struct CostModel {
  /// Crossover ratio for the adaptive set kernels: gallop when
  /// small * kGallopRatio < large (probing the small operand into the
  /// large one in O(m log n) beats the O(m + n) linear merge exactly when
  /// the operands are skewed past this ratio).
  static constexpr size_t kGallopRatio = 16;

  /// Weight of a ⊃d/⊂d relative to ⊃/⊂ on the same operands (measured
  /// ratio of the paper's layered program is 3–12×; 4 is a fair middle).
  static constexpr double kDirectFactor = 4.0;

  /// Work of the parent-table ⊃d/⊂d probes: each of `probes` regions
  /// gallops into a universe of `universe` members, O(log(U/m)) each,
  /// then takes a short walk up the parent chain (one unit).
  static double DirectProbeWork(double probes, double universe) {
    if (probes <= 0) return 0;
    return probes * (1.0 + std::log2(1.0 + universe / probes));
  }

  /// Below this many total attribute regions (both join sides summed) the
  /// nested-loop join's lower constant factor beats the sort-merge join's
  /// sort; at or above it, sort both sides once and merge linearly.
  static constexpr size_t kSortMergeJoinMinPairs = 64;

  /// Adaptive set-kernel direction: probe `small` into `large`?
  static constexpr bool PreferGallop(size_t small, size_t large) {
    return small < large / kGallopRatio;
  }

  /// Adaptive selection-kernel direction: iterating the word's postings
  /// and probing the child set costs O(P log C); scanning the child and
  /// probing the postings costs O(C log P). Both probe factors are
  /// logarithmic, so the linear term decides; reusing the region kernels'
  /// crossover ratio keeps the policy consistent across layers.
  static constexpr bool PreferPostingDriven(uint64_t posting_count,
                                            uint64_t child_size) {
    return posting_count < child_size / kGallopRatio;
  }
};

}  // namespace qof

#endif  // QOF_REGION_COST_MODEL_H_
