#ifndef QOF_RIG_RIG_H_
#define QOF_RIG_RIG_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "qof/util/result.h"
#include "qof/util/status.h"

namespace qof {

/// A Region Inclusion Graph (paper §3.2, Def. 3.1): nodes are region names;
/// an edge (Ri, Rj) states that an Ri region *may directly include* an Rj
/// region. Cycles are allowed (self-nested regions). The optimizer's
/// rewrite conditions (Prop. 3.5) reduce to the reachability tests below;
/// each test documents its derivation from the proposition.
class Rig {
 public:
  using NodeId = int32_t;
  static constexpr NodeId kInvalidNode = -1;

  Rig() = default;

  /// Adds (or finds) a node by name.
  NodeId AddNode(std::string_view name);

  /// Node id for a name, or kInvalidNode.
  NodeId FindNode(std::string_view name) const;

  /// Adds the edge (from, to); nodes are created as needed. Idempotent.
  void AddEdge(std::string_view from, std::string_view to);
  void AddEdge(NodeId from, NodeId to);

  bool HasEdge(NodeId from, NodeId to) const;
  bool HasEdge(std::string_view from, std::string_view to) const;

  size_t num_nodes() const { return names_.size(); }
  size_t num_edges() const;
  const std::string& name(NodeId id) const { return names_[id]; }
  const std::vector<NodeId>& out_edges(NodeId id) const { return adj_[id]; }
  std::vector<std::string> NodeNames() const { return names_; }

  /// True when a path of length >= 1 exists from `from` to `to` (a node
  /// reaches itself only through a cycle; a region cannot properly contain
  /// itself otherwise).
  bool Reachable(NodeId from, NodeId to) const;

  /// Prop. 3.5(a), first disjunct: the edge (i,j) is the *only* path from
  /// i to j. Holds iff the edge exists, no other out-neighbour m of i
  /// reaches j, and j lies on no cycle (a cycle j ⇝ j would extend the
  /// edge into a second, longer path).
  bool IsOnlyPath(NodeId i, NodeId j) const;

  /// Prop. 3.5(a), second disjunct: every path from i to j starts with the
  /// edge (i,j). Holds iff the edge exists and no other out-neighbour m of
  /// i reaches j. (Unlike IsOnlyPath, cycles through j are permitted: such
  /// paths still start with the edge.)
  bool EveryPathStartsWithEdge(NodeId i, NodeId j) const;

  /// Prop. 3.5(b): every path from i to k passes through j. Holds iff
  /// deleting j disconnects i from k. Trivially true when j is i or k.
  bool EveryPathThrough(NodeId i, NodeId k, NodeId j) const;

  /// Nodes N other than `outer` on some path outer ⇝ N ⇝ inner, both legs
  /// of length >= 1; with `avoid_outer`, only paths whose interior never
  /// returns to `outer`. Only regions of these names can lie strictly
  /// between an `outer` region and an `inner` region inside it, so they
  /// are the candidate separators of a direct-inclusion test (paper §3).
  std::vector<NodeId> Between(NodeId outer, NodeId inner,
                              bool avoid_outer) const;

  /// Number of distinct paths of length >= 1 from `from` to `to` whose
  /// *interior* nodes all satisfy `interior_ok`, saturated at 2:
  /// 0 = none, 1 = exactly one, 2 = more than one (including infinitely
  /// many via cycles). Used by the §6.3 exact-answer test, where an edge of
  /// a partial RIG must match a *unique* path through unindexed nodes.
  int PathMultiplicity(NodeId from, NodeId to,
                       const std::function<bool(NodeId)>& interior_ok) const;

  /// GraphViz rendering of the RIG (figure-reproduction drivers).
  std::string ToDot(std::string_view graph_name = "RIG") const;

 private:
  /// Nodes reachable from `start` by paths of length >= 1 whose interior
  /// nodes satisfy `interior_ok` (the endpoints are exempt).
  std::vector<bool> ReachSet(
      NodeId start, const std::function<bool(NodeId)>& interior_ok) const;

  std::vector<std::string> names_;
  std::unordered_map<std::string, NodeId> ids_;
  std::vector<std::vector<NodeId>> adj_;
};

}  // namespace qof

#endif  // QOF_RIG_RIG_H_
