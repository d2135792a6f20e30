#ifndef QOF_IR_EXECUTOR_H_
#define QOF_IR_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "qof/algebra/evaluator.h"
#include "qof/cache/eval_cache.h"
#include "qof/exec/exec_context.h"
#include "qof/ir/ir.h"
#include "qof/region/region_cursor.h"
#include "qof/region/region_index.h"
#include "qof/region/region_set.h"
#include "qof/text/corpus.h"
#include "qof/text/word_index.h"
#include "qof/util/result.h"

namespace qof {

/// Wall-time spent computing nodes of one IR operator kind (exclusive of
/// input evaluation), how many nodes of that kind ran, and the disk I/O
/// their cursor-path kernels did (zeros for memory-resident execution).
struct IrOpTiming {
  uint64_t count = 0;
  uint64_t micros = 0;
  /// Pages actually pulled from disk for this operator's cursor reads.
  uint64_t pages_read = 0;
  /// VFS read invocations those pages took (one per page, plus retries).
  uint64_t read_calls = 0;
};

/// Keyed by IrOpName(); std::map so renderings are deterministic.
using IrOpTimings = std::map<std::string, IrOpTiming>;

/// Evaluates an optimized IrProgram. Nodes are computed demand-driven
/// from a requested root and memoized in per-node slots that persist
/// across EvaluateRoot calls, so a subexpression shared between legs
/// (candidates / projection / join attributes) is computed once per
/// query regardless of cache state — the executor-level guarantee the
/// CSE pass creates.
///
/// Governance, caching and statistics mirror the tree evaluator
/// node-for-node: one ExecContext::Check() per operator, every composite
/// node looked up in / published to the index state's EvalCache under its
/// canonical key (identical to the equivalent expression's ToString(),
/// so IR and tree share entries), cache hits charging their own result
/// size, and kLoad borrowing index instances uncharged. kProject/kJoin
/// are engine rungs, not algebra operators: never cached, checked or
/// charged.
///
/// Execution is serial, on the calling thread.
class IrExecutor {
 public:
  /// All pointers are borrowed. `words`/`corpus` may be null when no node
  /// needs them; `ctx`/`cache` follow the tree evaluator's contract.
  IrExecutor(const IrProgram* program, const RegionIndex* regions,
             const WordIndex* words, const Corpus* corpus,
             const ExecContext* ctx = nullptr, EvalCache* cache = nullptr);

  /// Callback evaluating a kJoin node (candidates, lhs attrs, rhs attrs)
  /// — injected by the engine so qof_ir does not depend on qof_engine.
  using JoinFn = std::function<Result<std::vector<Region>>(
      const RegionSet& candidates, const RegionSet& lhs_attrs,
      const RegionSet& rhs_attrs)>;
  void SetJoinFn(JoinFn fn) { join_fn_ = std::move(fn); }

  /// Evaluates the node `root` (a root id from the program) and returns a
  /// copy of its result. Re-entrant across roots: previously computed
  /// nodes are served from their slots.
  Result<RegionSet> EvaluateRoot(int root, EvalStats* stats = nullptr);

  /// Per-operator timing counters accumulated over every node computed so
  /// far (slot-memoized re-reads do not re-count).
  const IrOpTimings& timings() const { return timings_; }

 private:
  /// Memoized per-node result; mirrors the tree evaluator's EvalResult
  /// ownership triple.
  struct Slot {
    bool done = false;
    RegionSet owned;
    const RegionSet* borrowed = nullptr;
    std::shared_ptr<const RegionSet> shared;
    const RegionSet& set() const {
      if (shared != nullptr) return *shared;
      return borrowed != nullptr ? *borrowed : owned;
    }
  };

  /// Ensures node `id`'s slot is filled; returns its set.
  Result<const RegionSet*> EvalNode(int id, EvalStats* stats);
  /// The uncached computation of one composite node.
  Result<Slot> ComputeNode(int id, EvalStats* stats);
  /// Disk fast path for kSelect/kIncluding/kIncluded/kProject whose bulk
  /// input is a load of a still-unmaterialized disk instance: probes the
  /// instance through a block-skipping RegionCursor instead of forcing it
  /// into memory, so a selective query pages in only the blocks its probe
  /// regions land in. Returns nullopt when inapplicable (the caller then
  /// computes the node normally); results are byte-identical either way.
  Result<std::optional<Slot>> TryCursorPath(int id, EvalStats* stats);
  Status Charge(EvalStats* stats, const RegionSet& produced) const;

  /// True when `node` matches TryCursorPath's statically decidable
  /// eligibility tests (runtime fallbacks — no cursor for the name —
  /// still possible).
  bool CursorCandidate(const IrNode& node) const;

  void AddTiming(IrOp op, uint64_t micros,
                 const CursorIoStats* io = nullptr);

  const IrProgram* program_;
  const RegionIndex* regions_;
  const WordIndex* words_;
  const Corpus* corpus_;
  const ExecContext* ctx_;
  EvalCache* cache_;
  JoinFn join_fn_;
  std::vector<Slot> slots_;
  IrOpTimings timings_;
};

}  // namespace qof

#endif  // QOF_IR_EXECUTOR_H_
