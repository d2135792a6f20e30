#include "qof/rig/rig.h"

#include <algorithm>
#include <deque>

namespace qof {

Rig::NodeId Rig::AddNode(std::string_view name) {
  auto it = ids_.find(std::string(name));
  if (it != ids_.end()) return it->second;
  NodeId id = static_cast<NodeId>(names_.size());
  names_.emplace_back(name);
  adj_.emplace_back();
  ids_.emplace(std::string(name), id);
  return id;
}

Rig::NodeId Rig::FindNode(std::string_view name) const {
  auto it = ids_.find(std::string(name));
  return it == ids_.end() ? kInvalidNode : it->second;
}

void Rig::AddEdge(std::string_view from, std::string_view to) {
  AddEdge(AddNode(from), AddNode(to));
}

void Rig::AddEdge(NodeId from, NodeId to) {
  std::vector<NodeId>& out = adj_[from];
  if (std::find(out.begin(), out.end(), to) == out.end()) {
    out.push_back(to);
  }
}

bool Rig::HasEdge(NodeId from, NodeId to) const {
  const std::vector<NodeId>& out = adj_[from];
  return std::find(out.begin(), out.end(), to) != out.end();
}

bool Rig::HasEdge(std::string_view from, std::string_view to) const {
  NodeId f = FindNode(from);
  NodeId t = FindNode(to);
  if (f == kInvalidNode || t == kInvalidNode) return false;
  return HasEdge(f, t);
}

size_t Rig::num_edges() const {
  size_t n = 0;
  for (const auto& out : adj_) n += out.size();
  return n;
}

std::vector<bool> Rig::ReachSet(
    NodeId start, const std::function<bool(NodeId)>& interior_ok) const {
  std::vector<bool> reached(names_.size(), false);
  std::deque<NodeId> frontier;
  // Seed with out-neighbours: paths have length >= 1.
  for (NodeId m : adj_[start]) {
    if (!reached[m]) {
      reached[m] = true;
      frontier.push_back(m);
    }
  }
  while (!frontier.empty()) {
    NodeId v = frontier.front();
    frontier.pop_front();
    // v is an interior node of any longer path through it.
    if (interior_ok && !interior_ok(v)) continue;
    for (NodeId m : adj_[v]) {
      if (!reached[m]) {
        reached[m] = true;
        frontier.push_back(m);
      }
    }
  }
  return reached;
}

bool Rig::Reachable(NodeId from, NodeId to) const {
  return ReachSet(from, nullptr)[to];
}

bool Rig::IsOnlyPath(NodeId i, NodeId j) const {
  if (!HasEdge(i, j)) return false;
  if (!EveryPathStartsWithEdge(i, j)) return false;
  // A cycle j ⇝ j appends to the edge, producing a second i ⇝ j path.
  return !Reachable(j, j);
}

bool Rig::EveryPathStartsWithEdge(NodeId i, NodeId j) const {
  if (!HasEdge(i, j)) return false;
  for (NodeId m : adj_[i]) {
    if (m == j) continue;
    if (m == i) {
      // A self-loop lets a path restart at i and then use any of i's
      // out-edges, but its first step is still (i,i), not (i,j) — so the
      // existence of the self-loop alone violates the condition as long as
      // it can be extended to reach j, which it can via the (i,j) edge.
      return false;
    }
    if (Reachable(m, j)) return false;
  }
  return true;
}

bool Rig::EveryPathThrough(NodeId i, NodeId k, NodeId j) const {
  if (j == i || j == k) return true;
  auto avoid_j = [j](NodeId v) { return v != j; };
  // Paths from i to k with interior avoiding j; endpoints are exempt from
  // the interior predicate, which is exactly what we need (i, k != j here).
  return !ReachSet(i, avoid_j)[k];
}

std::vector<Rig::NodeId> Rig::Between(NodeId outer, NodeId inner,
                                      bool avoid_outer) const {
  std::function<bool(NodeId)> interior_ok;
  if (avoid_outer) interior_ok = [outer](NodeId v) { return v != outer; };
  // N is interior to the whole path, so it too must pass the predicate;
  // N != outer covers it.
  std::vector<bool> from_outer = ReachSet(outer, interior_ok);
  std::vector<NodeId> out;
  for (NodeId n = 0; n < static_cast<NodeId>(names_.size()); ++n) {
    if (n != outer && from_outer[n] && ReachSet(n, interior_ok)[inner]) {
      out.push_back(n);
    }
  }
  return out;
}

int Rig::PathMultiplicity(
    NodeId from, NodeId to,
    const std::function<bool(NodeId)>& interior_ok) const {
  // Work in the subgraph of nodes usable as interiors, plus the endpoints.
  // First find which nodes can reach `to` through allowed interiors; any
  // cycle inside that set that is reachable from `from` yields infinitely
  // many paths.
  const size_t n = names_.size();
  auto allowed_interior = [&](NodeId v) {
    return !interior_ok || interior_ok(v);
  };

  // can_reach[v]: a path v ⇝ to (length >= 1, allowed interiors) exists.
  std::vector<bool> can_reach(n, false);
  {
    // Reverse BFS from `to`.
    std::vector<std::vector<NodeId>> radj(n);
    for (NodeId u = 0; u < static_cast<NodeId>(n); ++u) {
      for (NodeId v : adj_[u]) radj[v].push_back(u);
    }
    std::deque<NodeId> frontier;
    for (NodeId u : radj[to]) {
      if (!can_reach[u]) {
        can_reach[u] = true;
        frontier.push_back(u);
      }
    }
    while (!frontier.empty()) {
      NodeId v = frontier.front();
      frontier.pop_front();
      if (!allowed_interior(v)) continue;  // v would be an interior node
      for (NodeId u : radj[v]) {
        if (!can_reach[u]) {
          can_reach[u] = true;
          frontier.push_back(u);
        }
      }
    }
  }
  if (!can_reach[from]) return 0;

  // DFS counting with saturation; colour 1 = on stack, 2 = done.
  // Only traverse nodes that still can reach `to`.
  std::vector<int> colour(n, 0);
  std::vector<int> memo(n, -1);
  bool cycle_found = false;

  // count(v) = number of paths v ⇝ to (length >= 1) where v acts as an
  // interior-eligible waypoint; from's out-edges are handled by the caller
  // loop below so that `from` itself is endpoint-exempt.
  std::function<int(NodeId)> count = [&](NodeId v) -> int {
    if (memo[v] >= 0) return memo[v];
    colour[v] = 1;
    int total = 0;
    for (NodeId u : adj_[v]) {
      if (u == to) {
        total = std::min(2, total + 1);
        // A cycle to ⇝ to (with `to` usable as interior) extends this path
        // into infinitely many.
        if (allowed_interior(to) && can_reach[to]) total = 2;
        continue;
      }
      if (!allowed_interior(u) || !can_reach[u]) continue;
      if (colour[u] == 1) {
        cycle_found = true;
        continue;
      }
      total = std::min(2, total + count(u));
    }
    colour[v] = 2;
    memo[v] = total;
    return total;
  };

  int total = 0;
  colour[from] = 1;
  for (NodeId u : adj_[from]) {
    if (u == to) {
      total = std::min(2, total + 1);
      if (allowed_interior(to) && can_reach[to]) total = 2;
      continue;
    }
    if (!allowed_interior(u) || !can_reach[u]) continue;
    if (colour[u] == 1) {
      cycle_found = true;
      continue;
    }
    total = std::min(2, total + count(u));
  }
  if (cycle_found && total > 0) return 2;
  return total;
}

std::string Rig::ToDot(std::string_view graph_name) const {
  std::string out = "digraph ";
  out += graph_name;
  out += " {\n";
  for (NodeId i = 0; i < static_cast<NodeId>(names_.size()); ++i) {
    out += "  \"" + names_[i] + "\";\n";
  }
  for (NodeId i = 0; i < static_cast<NodeId>(names_.size()); ++i) {
    for (NodeId j : adj_[i]) {
      out += "  \"" + names_[i] + "\" -> \"" + names_[j] + "\";\n";
    }
  }
  out += "}\n";
  return out;
}

}  // namespace qof
