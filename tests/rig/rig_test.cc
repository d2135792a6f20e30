#include "qof/rig/rig.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace qof {
namespace {

// The paper's BibTeX RIG fragment (§3.2):
//   Reference -> Authors -> Name -> {First_Name, Last_Name}
//   Reference -> Editors -> Name
//   Reference -> Key, Reference -> Title
Rig BibRig() {
  Rig g;
  g.AddEdge("Reference", "Key");
  g.AddEdge("Reference", "Title");
  g.AddEdge("Reference", "Authors");
  g.AddEdge("Reference", "Editors");
  g.AddEdge("Authors", "Name");
  g.AddEdge("Editors", "Name");
  g.AddEdge("Name", "First_Name");
  g.AddEdge("Name", "Last_Name");
  return g;
}

TEST(RigTest, AddNodeIsIdempotent) {
  Rig g;
  auto a = g.AddNode("A");
  auto a2 = g.AddNode("A");
  EXPECT_EQ(a, a2);
  EXPECT_EQ(g.num_nodes(), 1u);
  EXPECT_EQ(g.FindNode("A"), a);
  EXPECT_EQ(g.FindNode("B"), Rig::kInvalidNode);
}

TEST(RigTest, AddEdgeIsIdempotent) {
  Rig g;
  g.AddEdge("A", "B");
  g.AddEdge("A", "B");
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.HasEdge("A", "B"));
  EXPECT_FALSE(g.HasEdge("B", "A"));
  EXPECT_FALSE(g.HasEdge("A", "C"));
}

TEST(RigTest, ReachabilityNeedsLengthOne) {
  Rig g = BibRig();
  auto r = g.FindNode("Reference");
  auto ln = g.FindNode("Last_Name");
  auto key = g.FindNode("Key");
  EXPECT_TRUE(g.Reachable(r, ln));
  EXPECT_FALSE(g.Reachable(ln, r));
  EXPECT_FALSE(g.Reachable(key, key));  // no cycle: not self-reachable
}

TEST(RigTest, SelfReachableOnlyViaCycle) {
  Rig g;
  g.AddEdge("Sec", "Sec");
  auto s = g.FindNode("Sec");
  EXPECT_TRUE(g.Reachable(s, s));

  Rig h;
  h.AddEdge("A", "B");
  h.AddEdge("B", "A");
  EXPECT_TRUE(h.Reachable(h.FindNode("A"), h.FindNode("A")));
}

TEST(RigTest, IsOnlyPathOnBibRig) {
  Rig g = BibRig();
  auto id = [&](const char* n) { return g.FindNode(n); };
  // Reference -> Authors has no alternative route.
  EXPECT_TRUE(g.IsOnlyPath(id("Reference"), id("Authors")));
  EXPECT_TRUE(g.IsOnlyPath(id("Authors"), id("Name")));
  EXPECT_TRUE(g.IsOnlyPath(id("Name"), id("Last_Name")));
  // Reference -> Name is not even an edge.
  EXPECT_FALSE(g.IsOnlyPath(id("Reference"), id("Name")));
}

TEST(RigTest, IsOnlyPathRejectsAlternatives) {
  Rig g;
  g.AddEdge("A", "B");
  g.AddEdge("A", "C");
  g.AddEdge("C", "B");
  EXPECT_FALSE(g.IsOnlyPath(g.FindNode("A"), g.FindNode("B")));
  EXPECT_TRUE(g.IsOnlyPath(g.FindNode("A"), g.FindNode("C")));
  EXPECT_TRUE(g.IsOnlyPath(g.FindNode("C"), g.FindNode("B")));
}

TEST(RigTest, IsOnlyPathRejectsCycleThroughTarget) {
  // A -> B plus a cycle B -> C -> B: the edge extends to A->B->C->B.
  Rig g;
  g.AddEdge("A", "B");
  g.AddEdge("B", "C");
  g.AddEdge("C", "B");
  EXPECT_FALSE(g.IsOnlyPath(g.FindNode("A"), g.FindNode("B")));
  // But every path from A to B still *starts* with the edge.
  EXPECT_TRUE(g.EveryPathStartsWithEdge(g.FindNode("A"), g.FindNode("B")));
}

TEST(RigTest, EveryPathStartsWithEdge) {
  Rig g;
  g.AddEdge("A", "B");
  g.AddEdge("A", "C");
  g.AddEdge("B", "D");
  g.AddEdge("C", "D");
  auto id = [&](const char* n) { return g.FindNode(n); };
  EXPECT_TRUE(g.EveryPathStartsWithEdge(id("A"), id("B")));
  // D is reachable from A both via B and via C.
  g.AddEdge("A", "D");
  EXPECT_FALSE(g.EveryPathStartsWithEdge(id("A"), id("D")));
}

TEST(RigTest, EveryPathStartsWithEdgeSelfLoopCounterexample) {
  Rig g;
  g.AddEdge("A", "B");
  g.AddEdge("A", "A");
  // Path A->A->B does not start with (A,B).
  EXPECT_FALSE(g.EveryPathStartsWithEdge(g.FindNode("A"), g.FindNode("B")));
}

TEST(RigTest, EveryPathThrough) {
  Rig g = BibRig();
  auto id = [&](const char* n) { return g.FindNode(n); };
  // Every path Reference -> Last_Name goes through Name...
  EXPECT_TRUE(g.EveryPathThrough(id("Reference"), id("Last_Name"),
                                 id("Name")));
  // ...but not through Authors (Editors offers an alternative).
  EXPECT_FALSE(g.EveryPathThrough(id("Reference"), id("Last_Name"),
                                  id("Authors")));
  // Endpoints trivially lie on every path.
  EXPECT_TRUE(g.EveryPathThrough(id("Reference"), id("Last_Name"),
                                 id("Reference")));
  EXPECT_TRUE(g.EveryPathThrough(id("Reference"), id("Last_Name"),
                                 id("Last_Name")));
}

TEST(RigTest, PathMultiplicityCountsAndSaturates) {
  Rig g = BibRig();
  auto id = [&](const char* n) { return g.FindNode(n); };
  auto all = [](Rig::NodeId) { return true; };
  // Reference to Name: two paths (via Authors, via Editors).
  EXPECT_EQ(g.PathMultiplicity(id("Reference"), id("Name"), all), 2);
  EXPECT_EQ(g.PathMultiplicity(id("Reference"), id("Authors"), all), 1);
  EXPECT_EQ(g.PathMultiplicity(id("Authors"), id("Last_Name"), all), 1);
  EXPECT_EQ(g.PathMultiplicity(id("Last_Name"), id("Reference"), all), 0);
}

TEST(RigTest, PathMultiplicityRespectsInteriorPredicate) {
  Rig g = BibRig();
  auto id = [&](const char* n) { return g.FindNode(n); };
  // Interior restricted to unindexed nodes {Authors, Editors, Name}:
  // Reference -> Last_Name matches two derivations.
  auto unindexed = [&](Rig::NodeId v) {
    return g.name(v) == "Authors" || g.name(v) == "Editors" ||
           g.name(v) == "Name";
  };
  EXPECT_EQ(g.PathMultiplicity(id("Reference"), id("Last_Name"), unindexed),
            2);
  // Forbid Editors as interior: unique path remains.
  auto no_editors = [&](Rig::NodeId v) {
    return g.name(v) == "Authors" || g.name(v) == "Name";
  };
  EXPECT_EQ(g.PathMultiplicity(id("Reference"), id("Last_Name"),
                               no_editors),
            1);
  // Forbid all interiors: no single edge exists, so zero.
  auto none = [](Rig::NodeId) { return false; };
  EXPECT_EQ(g.PathMultiplicity(id("Reference"), id("Last_Name"), none), 0);
  EXPECT_EQ(g.PathMultiplicity(id("Reference"), id("Authors"), none), 1);
}

TEST(RigTest, PathMultiplicityCyclesAreMany) {
  Rig g;
  g.AddEdge("A", "B");
  g.AddEdge("B", "B");  // self-nested B
  g.AddEdge("B", "C");
  auto all = [](Rig::NodeId) { return true; };
  // A->B, A->B->B, A->B->B->B, ... infinitely many.
  EXPECT_EQ(g.PathMultiplicity(g.FindNode("A"), g.FindNode("B"), all), 2);
  EXPECT_EQ(g.PathMultiplicity(g.FindNode("A"), g.FindNode("C"), all), 2);
}

std::vector<std::string> NamesOf(const Rig& g,
                                 const std::vector<Rig::NodeId>& ids) {
  std::vector<std::string> out;
  for (Rig::NodeId id : ids) out.push_back(g.name(id));
  std::sort(out.begin(), out.end());
  return out;
}

TEST(RigTest, BetweenListsInteriorNamesOfOuterToInnerPaths) {
  Rig g = BibRig();
  auto id = [&g](const char* name) { return g.FindNode(name); };
  using Names = std::vector<std::string>;
  EXPECT_EQ(NamesOf(g, g.Between(id("Reference"), id("Last_Name"), true)),
            (Names{"Authors", "Editors", "Name"}));
  EXPECT_TRUE(g.Between(id("Name"), id("Last_Name"), true).empty());
  EXPECT_TRUE(g.Between(id("Reference"), id("Key"), false).empty());
  // Unrelated names have no path between them.
  EXPECT_TRUE(g.Between(id("Key"), id("Name"), false).empty());
}

TEST(RigTest, BetweenCanSkipPathsBackThroughTheOuterName) {
  // Obj -> Alpha, Obj -> Nest -> Obj (the grammar model's recursion).
  Rig g;
  g.AddEdge("Obj", "Alpha");
  g.AddEdge("Obj", "Nest");
  g.AddEdge("Nest", "Obj");
  auto id = [&g](const char* name) { return g.FindNode(name); };
  using Names = std::vector<std::string>;
  EXPECT_TRUE(g.Between(id("Obj"), id("Alpha"), true).empty());
  EXPECT_EQ(NamesOf(g, g.Between(id("Obj"), id("Alpha"), false)),
            Names{"Nest"});
  EXPECT_TRUE(g.Between(id("Nest"), id("Obj"), true).empty());
  EXPECT_EQ(NamesOf(g, g.Between(id("Nest"), id("Obj"), false)),
            Names{"Obj"});
  EXPECT_EQ(NamesOf(g, g.Between(id("Obj"), id("Obj"), true)),
            Names{"Nest"});
}

TEST(RigTest, ToDotContainsNodesAndEdges) {
  Rig g;
  g.AddEdge("A", "B");
  std::string dot = g.ToDot("test");
  EXPECT_NE(dot.find("digraph test"), std::string::npos);
  EXPECT_NE(dot.find("\"A\" -> \"B\""), std::string::npos);
}

}  // namespace
}  // namespace qof
