#ifndef QOF_ENGINE_JOIN_H_
#define QOF_ENGINE_JOIN_H_

#include <vector>

#include "qof/region/region_set.h"
#include "qof/text/corpus.h"
#include "qof/util/result.h"

namespace qof {

/// How RunIndexJoin matches the two attribute groups.
enum class JoinAlgorithm {
  /// Per-candidate std::set comparison — the original quadratic-ish
  /// algorithm, kept as the differential oracle for tests and benches.
  kNestedLoop,
  /// Flatten both sides to (candidate, trimmed text) pairs, sort each
  /// side once, two-pointer intersect per candidate. No per-candidate
  /// allocations; the attribute texts stay string_views into the corpus.
  kSortMerge,
};

/// The §5.2 index-assisted join for `path = path` predicates: instead of
/// parsing whole candidate regions, the region index locates both
/// attribute-region sets; only *their* text is loaded (the "reduce the
/// amount of information loaded to the database" step), grouped per
/// candidate, and compared. Returns the candidates whose two groups share
/// a (whitespace-trimmed) string. Both algorithms scan exactly the same
/// attribute texts (right-side groups are skipped when the left group is
/// empty), so byte accounting is algorithm-independent. The engine runs
/// sort-merge, which is no slower than the nested loop even at one
/// attribute a side (bench_join_scaling).
Result<std::vector<Region>> RunIndexJoin(
    const Corpus& corpus, const RegionSet& candidates,
    const RegionSet& lhs_attrs, const RegionSet& rhs_attrs,
    JoinAlgorithm algorithm = JoinAlgorithm::kSortMerge);

}  // namespace qof

#endif  // QOF_ENGINE_JOIN_H_
