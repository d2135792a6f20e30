#ifndef QOF_ALGEBRA_EVALUATOR_H_
#define QOF_ALGEBRA_EVALUATOR_H_

#include <cstdint>
#include <string>

#include <memory>

#include "qof/algebra/expr.h"
#include "qof/cache/eval_cache.h"
#include "qof/exec/exec_context.h"
#include "qof/region/region_index.h"
#include "qof/region/region_set.h"
#include "qof/text/corpus.h"
#include "qof/text/word_index.h"
#include "qof/util/result.h"

namespace qof {

/// Execution statistics of one expression evaluation; the experiments
/// report these alongside wall time.
struct EvalStats {
  uint64_t set_ops = 0;        // ∪ ∩ −
  uint64_t select_ops = 0;     // σ / contains / phrase
  uint64_t nest_ops = 0;       // ι ω
  uint64_t simple_incl_ops = 0;  // ⊃ ⊂
  uint64_t direct_incl_ops = 0;  // ⊃d ⊂d
  uint64_t regions_produced = 0;   // summed over all intermediate results
  uint64_t max_intermediate = 0;   // largest intermediate result
  uint64_t bytes_scanned = 0;      // text bytes read (phrase verification)
  uint64_t cache_hits = 0;         // subexpressions served by the EvalCache
  uint64_t cache_misses = 0;       // subexpressions computed then cached

  uint64_t total_ops() const {
    return set_ops + select_ops + nest_ops + simple_incl_ops +
           direct_incl_ops;
  }
};

/// How ⊃d/⊂d are computed.
enum class DirectAlgorithm {
  /// Parent-table probe (see region_set.h) — the default.
  kFast,
  /// The paper's §3.1 layer-by-layer ω program; kept for the E3 cost
  /// experiment. Assumes the right operand's region name is not
  /// self-nested (true for every natural structuring schema here).
  kLayered,
};

/// Evaluates region-algebra expressions against a region index, word index
/// and (for phrase verification only) the corpus. The evaluator itself
/// never scans file text except in kSelectPhrase, which is exactly the
/// engine's contract: queries run on indices, not on files.
class ExprEvaluator {
 public:
  /// `word_index` may be null if the expression uses no selections;
  /// `corpus` may be null if it uses no phrase selections. `ctx`
  /// (optional, borrowed) is polled once per operator and charged for
  /// every intermediate region produced, making index-plan evaluation
  /// deadline-aware and budget-bounded.
  /// `cache` (optional, borrowed) shares computed subexpression results
  /// across evaluations: every composite node is looked up by its
  /// serialized form under `epoch` before being computed, and published
  /// after. Cached hits still charge the region budget, so governance is
  /// identical with and without the cache.
  ExprEvaluator(const RegionIndex* region_index,
                const WordIndex* word_index, const Corpus* corpus,
                DirectAlgorithm direct = DirectAlgorithm::kFast,
                const ExecContext* ctx = nullptr,
                EvalCache* cache = nullptr, CacheEpoch epoch = {})
      : index_(region_index),
        words_(word_index),
        corpus_(corpus),
        direct_(direct),
        ctx_(ctx),
        cache_(cache),
        epoch_(epoch) {}

  /// Evaluates `expr`; accumulates statistics into `stats` if non-null.
  Result<RegionSet> Evaluate(const RegionExpr& expr,
                             EvalStats* stats = nullptr) const;

 private:
  /// Internal evaluation result: a computed set (owned), a borrowed view
  /// of an index instance, or a shared immutable set from the EvalCache.
  /// kName leaves borrow, so looking a leaf up costs O(1) instead of
  /// copying the whole instance; cache hits share, so a repeated
  /// subexpression costs a hash lookup — only the public Evaluate()
  /// boundary copies.
  struct EvalResult {
    RegionSet owned;
    const RegionSet* borrowed = nullptr;
    std::shared_ptr<const RegionSet> shared;
    const RegionSet& set() const {
      if (shared != nullptr) return *shared;
      return borrowed ? *borrowed : owned;
    }
    static EvalResult Owned(RegionSet s) {
      return {std::move(s), nullptr, nullptr};
    }
    static EvalResult Borrowed(const RegionSet* s) { return {{}, s, nullptr}; }
    static EvalResult Shared(std::shared_ptr<const RegionSet> s) {
      return {{}, nullptr, std::move(s)};
    }
  };

  Result<EvalResult> Eval(const RegionExpr& expr, EvalStats* stats) const;
  /// Cache-aware wrapper around the computation of one composite node.
  Result<EvalResult> EvalCached(const RegionExpr& expr,
                                EvalStats* stats) const;
  /// The actual per-node computation (no cache involvement).
  Result<EvalResult> EvalNode(const RegionExpr& expr,
                              EvalStats* stats) const;
  /// Records `produced` into stats and charges it against the region
  /// budget; fails with kBudgetExhausted once the budget is blown.
  Status Charge(EvalStats* stats, const RegionSet& produced) const;
  Result<EvalResult> EvalSelect(const RegionExpr& expr,
                                EvalStats* stats) const;
  Result<EvalResult> EvalDirect(const RegionExpr& expr,
                                const RegionSet& left,
                                const RegionSet& right,
                                EvalStats* stats) const;

  /// The region name feeding `expr` through selections, or "" when the
  /// operand is composite (needed by the layered ⊃d program's "I − {S}").
  static std::string SourceName(const RegionExpr& expr);

  const RegionIndex* index_;
  const WordIndex* words_;
  const Corpus* corpus_;
  DirectAlgorithm direct_;
  const ExecContext* ctx_ = nullptr;
  EvalCache* cache_ = nullptr;
  CacheEpoch epoch_;
};

}  // namespace qof

#endif  // QOF_ALGEBRA_EVALUATOR_H_
