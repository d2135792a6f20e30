#ifndef QOF_IR_PASSES_H_
#define QOF_IR_PASSES_H_

#include <functional>
#include <string>
#include <vector>

#include "qof/ir/ir.h"
#include "qof/region/region_index.h"
#include "qof/text/word_index.h"

namespace qof {

/// Knobs for the optimizer pass pipeline. All passes are on by default;
/// the per-pass switches exist for the golden tests and ablation benches.
/// `inject_bad_cse` is a planted bug for the differential fuzzer: CSE
/// merges selection nodes while ignoring their word operands, so two
/// non-identical selections collapse into one.
struct IrPlanOptions {
  bool enable_cse = true;
  bool enable_pushdown = true;
  bool enable_ordering = true;
  bool enable_fusion = true;
  bool inject_bad_cse = false;
};

/// One recorded pipeline step: the program dump after the named pass ran
/// ("lower" records the pre-pass state).
struct PassTrace {
  std::string name;
  std::string dump;
};

/// Runs small composable passes over an IrProgram in registration order,
/// canonicalizing (topo order, dead-node removal, fresh keys) after each
/// one and optionally recording per-pass dumps for --explain and goldens.
class PassManager {
 public:
  void Add(std::string name, std::function<void(IrProgram*)> pass) {
    passes_.push_back({std::move(name), std::move(pass)});
  }

  void Run(IrProgram* program, std::vector<PassTrace>* trace) const;

 private:
  struct Entry {
    std::string name;
    std::function<void(IrProgram*)> pass;
  };
  std::vector<Entry> passes_;
};

/// The standard pipeline: cse → pushdown → order → fuse, honoring
/// `options`. `regions`/`words` feed the cost annotations (null is
/// allowed: every cardinality then estimates as zero and ordering falls
/// back to the deterministic key tie-break). Cost annotations are
/// refreshed after the last pass so dumps and --explain stay annotated.
void RunPasses(IrProgram* program, const IrPlanOptions& options,
               const RegionIndex* regions, const WordIndex* words,
               std::vector<PassTrace>* trace = nullptr);

// --- individual passes (exposed for the per-pass golden tests) ---------

/// Common-subexpression elimination: structurally identical nodes (equal
/// canonical keys) merge into the lowest-id occurrence, across all of the
/// program's roots. A shared node then evaluates once per query
/// regardless of cache state.
void PassCse(IrProgram* program, bool inject_bad_cse = false);

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

/// Fuses chains of per-member stages (fusable selections, ⊃, ⊂) into
/// single kFusedChain nodes executed over batched region runs.
void PassFuse(IrProgram* program);

/// Annotates every node with CostEstimator-equivalent cardinality/work
/// estimates over the shared CostModel table.
void AnnotateIrCosts(IrProgram* program, const RegionIndex* regions,
                     const WordIndex* words);

}  // namespace qof

#endif  // QOF_IR_PASSES_H_
