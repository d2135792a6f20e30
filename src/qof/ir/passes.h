#ifndef QOF_IR_PASSES_H_
#define QOF_IR_PASSES_H_

#include <string>
#include <vector>

#include "qof/ir/ir.h"
#include "qof/region/region_index.h"
#include "qof/rig/rig.h"
#include "qof/text/word_index.h"

namespace qof {

/// The schema facts AssignSeparators reads; both are required.
struct SeparatorFacts {
  /// The full RIG (DeriveFullRig): every region in the index is a parse
  /// node, so a region strictly between two others has its name on a RIG
  /// path between theirs.
  const Rig* full_rig = nullptr;
  /// DeriveSameSpanRig of the same schema.
  const Rig* same_span_rig = nullptr;
};

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
/// annotate step assigns each ⊃d/⊂d node its separators from `facts`
/// (null narrows nothing) and refreshes the costs, so dumps and --explain
/// show the program that runs. With `trace`, records the lowered program
/// ("lower") and the dump after each pass.
void RunPasses(IrProgram* program, const RegionIndex* regions,
               const WordIndex* words, const SeparatorFacts* facts = nullptr,
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

/// Narrows each ⊃d/⊂d node's separators (paper §3). A region can lie
/// strictly between an outer region of name X and an inner one of name Y
/// only if its name is on a full-RIG path X ⇝ N ⇝ Y, so the node records
/// X plus every indexed N on such a path, and the executor probes their
/// SeparatorTable instead of the universe, as Thm 3.6 narrows ⊃d to ⊃ at
/// compile time. Paths may skip returning through X unless an X region
/// can share its span with a Y region below it (a same-span path X ⇝ Y):
/// an X region strictly in between is then itself a separator. It is
/// indexed even under a §7 context restriction, since it lies below an
/// indexed X region and so inside that region's context. An operand's name is its leftmost
/// load's through select, ⊃, ⊂, ⊃d, ⊂d, ∩, −, ω and ι, or that shared by
/// every input of a union. A node keeps the universe (empty separators)
/// when either operand has no single name, a name is not in the RIG, or
/// the set would be every indexed name.
void AssignSeparators(IrProgram* program, const RegionIndex* regions,
                      const SeparatorFacts* facts);

/// Annotates every node with cardinality/work estimates over the shared
/// CostModel table — the system's one cost model: the size-refined
/// expression ordering of §3.2 (Def. 3.4) that the passes and Explain
/// read. Unknown names estimate as empty; n-ary ∪/∩/− cost like the
/// left fold of the binary operator they replaced. A ⊃d/⊂d probe is
/// sized by its separators' instance counts (no I/O), or by the
/// universe's size when it has none.
void AnnotateIrCosts(IrProgram* program, const RegionIndex* regions,
                     const WordIndex* words);

}  // namespace qof

#endif  // QOF_IR_PASSES_H_
