#ifndef QOF_ALGEBRA_SELECT_KERNELS_H_
#define QOF_ALGEBRA_SELECT_KERNELS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "qof/algebra/expr.h"
#include "qof/region/region.h"
#include "qof/region/region_set.h"
#include "qof/text/corpus.h"
#include "qof/text/word_index.h"
#include "qof/util/result.h"

namespace qof {

/// A selection's parameters, independent of how the query reached them
/// (tree expression node or IR node). `kind` must be one of the
/// ExprKind::kSelect* kinds.
struct SelectSpec {
  ExprKind kind = ExprKind::kSelectContains;
  std::string word;
  std::string word2;  // kSelectNear only
  uint64_t param = 0;  // kSelectNear distance / kSelectAtLeast count

  /// The serialized form of the equivalent expression node applied to
  /// `child` — used in error messages (mirrors RegionExpr::ToString).
  std::string Describe(const std::string& child) const;
};

/// Runs one selection over `child`, returning the matching members in
/// canonical order (a subset of `child` except for posting-driven
/// kSelectMatches, which synthesizes the spans — still canonical).
///
/// This is THE selection implementation: the tree evaluator and the IR
/// executor both call it, so their results are byte-identical by
/// construction. σ= and STARTS have a posting-driven and a child-driven
/// direction; CostModel::PreferPostingDriven picks one from the posting
/// and child sizes.
///
/// Cost: the driving side (child members, or postings when
/// posting-driven) is walked in ascending order with a forward galloping
/// cursor into the other side, so C members against P postings cost
/// O(C log(P/C + 1)) in searches plus O(1) per member for CONTAINS,
/// HASPREFIX, ATLEAST, σ=, STARTS and phrase σ. NEAR and phrase CONTAINS
/// also scan the first word's occurrences inside each member. A child
/// whose members start mid-list (a slice of a larger set) reaches its
/// first cursor position in O(log P).
///
/// `words` must be non-null; `corpus` may be null unless the spec needs
/// phrase verification. Text bytes read during phrase verification are
/// added to `*bytes_scanned` when non-null. `context` supplies the
/// expression rendering for error messages.
Result<std::vector<Region>> RunSelectKernel(const SelectSpec& spec,
                                            const RegionSet& child,
                                            const WordIndex* words,
                                            const Corpus* corpus,
                                            uint64_t* bytes_scanned,
                                            const std::string& context);

}  // namespace qof

#endif  // QOF_ALGEBRA_SELECT_KERNELS_H_
