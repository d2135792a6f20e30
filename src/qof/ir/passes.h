#ifndef QOF_IR_PASSES_H_
#define QOF_IR_PASSES_H_

#include <string>
#include <vector>

#include "qof/ir/ir.h"
#include "qof/region/region_index.h"
#include "qof/text/word_index.h"

namespace qof {

/// One recorded pipeline step: the program dump after the named pass ran
/// ("lower" records the pre-pass state).
struct PassTrace {
  std::string name;
  std::string dump;
};

/// The one pass pipeline, always run in full: cse → pushdown → order →
/// annotate. Each pass leaves the program canonical (topological order,
/// no dead nodes, fresh keys). `regions`/`words` feed the cost
/// annotations (null is allowed: every cardinality then estimates as zero
/// and ordering falls back to the deterministic key tie-break). The final
/// annotate step refreshes the costs so dumps and --explain show the
/// estimates of the program that runs. With `trace`, records the lowered
/// program ("lower") and the dump after each pass.
void RunPasses(IrProgram* program, const RegionIndex* regions,
               const WordIndex* words,
               std::vector<PassTrace>* trace = nullptr);

// --- individual passes (exposed for the per-pass golden tests) ---------

/// Common-subexpression elimination: structurally identical nodes (equal
/// canonical keys) merge into the lowest-id occurrence, across all of the
/// program's roots. A shared node then evaluates once per query
/// regardless of cache state. The bad-cse planted bug, when armed, makes
/// it merge selections while ignoring their word operands.
void PassCse(IrProgram* program);

/// Pushes selections toward the loads: through n-ary ∩ (into the
/// cheapest operand), − (into the minuend) and the left operand of
/// ⊃/⊂/⊃d/⊂d; corpus-free selections additionally distribute over ∪.
/// Never through ι/ω, whose semantics depend on the whole member set.
void PassPushdown(IrProgram* program, const RegionIndex* regions,
                  const WordIndex* words);

/// Cost-based operand ordering for n-ary ∩/∪: operands sort by estimated
/// cardinality ascending with the canonical key as deterministic
/// tie-break, so the left-fold keeps intermediates small.
void PassOrderOperands(IrProgram* program, const RegionIndex* regions,
                       const WordIndex* words);

/// Annotates every node with cardinality/work estimates over the shared
/// CostModel table — the system's one cost model: the size-refined
/// expression ordering of §3.2 (Def. 3.4) that the passes and Explain
/// read. Unknown names estimate as empty; n-ary ∪/∩/− cost like the
/// left fold of the binary operator they replaced.
void AnnotateIrCosts(IrProgram* program, const RegionIndex* regions,
                     const WordIndex* words);

}  // namespace qof

#endif  // QOF_IR_PASSES_H_
