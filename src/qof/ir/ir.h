#ifndef QOF_IR_IR_H_
#define QOF_IR_IR_H_

#include <string>
#include <vector>

#include "qof/algebra/expr.h"
#include "qof/algebra/select_kernels.h"
#include "qof/util/result.h"

namespace qof {

/// Operators of the dataflow query IR. The tree algebra's binary ∪/∩/−
/// flatten into n-ary nodes during lowering; everything else maps 1:1,
/// plus two engine ops: kProject (the engine's index-only projection
/// root) and kJoin (the engine's index-assisted join root). Every node is
/// one operator.
enum class IrOp {
  kLoad,        // region-index instance by name
  kUnion,       // n-ary ∪ (left-fold of the binary op)
  kIntersect,   // n-ary ∩
  kDifference,  // n-ary −: inputs[0] minus each of inputs[1..]
  kInnermost,   // ι
  kOutermost,   // ω
  kIncluding,           // ⊃   inputs = {left, right}
  kIncluded,            // ⊂
  kDirectlyIncluding,   // ⊃d
  kDirectlyIncluded,    // ⊂d
  kSelect,      // one SelectSpec over inputs[0]
  kProject,     // IncludedIn(inputs[0] = attrs, inputs[1] = candidates)
  kJoin,        // index join over {candidates, lhs attrs, rhs attrs}
};

const char* IrOpName(IrOp op);

/// One IR node. `inputs` refer to lower node ids (the program is kept in
/// topological order); `key` is the node's canonical serialization —
/// identical to RegionExpr::ToString() of the equivalent expression tree,
/// so IR results share EvalCache entries with the tree evaluator.
struct IrNode {
  IrOp op = IrOp::kLoad;
  std::string name;    // kLoad
  SelectSpec select;   // kSelect
  std::vector<int> inputs;
  std::string key;
  /// kDirectlyIncluding/kDirectlyIncluded: the sorted names whose regions
  /// can separate the operands (AssignSeparators); the probe walks their
  /// SeparatorTable. Empty probes the whole universe.
  std::vector<std::string> separators;
  // Cost annotations (AnnotateIrCosts over the shared CostModel table);
  // negative until AnnotateIrCosts runs.
  double est_cardinality = -1;
  double est_work = -1;
};

/// A multi-root dataflow program: all of a compiled plan's expression
/// legs lowered together, so subexpression sharing crosses legs. Root
/// ids are -1 when the plan has no such leg.
struct IrProgram {
  std::vector<IrNode> nodes;  // topological: every input id < node id
  int candidates = -1;
  int projection = -1;  // the raw attribute expression root
  int project = -1;     // kProject over {projection, candidates}
  int join_lhs = -1;
  int join_rhs = -1;
  int join = -1;  // kJoin over {candidates, join_lhs, join_rhs}

  /// Deterministic textual form (goldens, --explain): one `%id = op ...`
  /// line per node plus a roots line; cost annotations appended when
  /// present, and each ⊃d/⊂d node's separators (`seps={A,B}` or
  /// `seps=universe`).
  std::string Dump() const;
};

/// Canonical serialization of one node given its inputs' keys (which must
/// be current). Exposed for passes that rewrite nodes incrementally.
std::string ComputeNodeKey(const IrProgram& program, const IrNode& node);

/// Recomputes every node's canonical key bottom-up. Passes that rewire
/// nodes call this before comparing or caching keys.
void RecomputeKeys(IrProgram* program);

/// Rebuilds the program in deterministic topological order (DFS from the
/// roots), dropping nodes no root reaches. Passes run this afterwards so
/// invariants (inputs < id, no dead nodes) hold for the next pass.
void Canonicalize(IrProgram* program);

/// Lowers a compiled plan's expression legs into one flat program. Any
/// leg pointer may be null. No optimization happens here — every
/// occurrence of a subexpression becomes its own node (the CSE pass
/// merges them).
IrProgram LowerToIr(const RegionExpr* candidates,
                    const RegionExpr* projection,
                    const RegionExpr* join_lhs, const RegionExpr* join_rhs);

}  // namespace qof

#endif  // QOF_IR_IR_H_
