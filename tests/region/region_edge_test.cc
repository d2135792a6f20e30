// Edge-case coverage for the region algebra: empty sets, singletons,
// adjacent regions, duplicated spans across inputs, and large nested
// structures (stress).

#include <gtest/gtest.h>

#include "qof/region/region_set.h"

namespace qof {
namespace {

RegionSet RS(std::vector<Region> v) {
  return RegionSet::FromUnsorted(std::move(v));
}

TEST(RegionEdgeTest, EmptySetsEverywhere) {
  RegionSet e;
  EXPECT_EQ(Union(e, e), e);
  EXPECT_EQ(Intersect(e, e), e);
  EXPECT_EQ(Difference(e, e), e);
  EXPECT_EQ(Innermost(e), e);
  EXPECT_EQ(Outermost(e), e);
  EXPECT_EQ(Including(e, e), e);
  EXPECT_EQ(IncludedIn(e, e), e);
  EXPECT_EQ(DirectlyIncluding(e, e, e, BuildParentTable(e)), e);
  EXPECT_EQ(DirectlyIncluded(e, e, e, BuildParentTable(e)), e);
  EXPECT_EQ(DirectlyIncludingLayered(e, e, {}), e);
}

TEST(RegionEdgeTest, SingletonIdentities) {
  RegionSet s = RS({{5, 9}});
  EXPECT_EQ(Innermost(s), s);
  EXPECT_EQ(Outermost(s), s);
  EXPECT_EQ(Including(s, s), s);   // weak self-containment
  EXPECT_EQ(IncludedIn(s, s), s);
  // strict: no pair
  EXPECT_EQ(DirectlyIncluding(s, s, s, BuildParentTable(s)), RegionSet());
}

TEST(RegionEdgeTest, AdjacentRegionsDoNotContain) {
  RegionSet a = RS({{0, 5}});
  RegionSet b = RS({{5, 10}});
  EXPECT_EQ(Including(a, b), RegionSet());
  EXPECT_EQ(Including(b, a), RegionSet());
  EXPECT_TRUE(Union(a, b).IsLaminar());
}

TEST(RegionEdgeTest, SharedEndpointsAreWeakContainment) {
  // [0,10) contains [0,4) and [6,10) — shared endpoints count.
  RegionSet outer = RS({{0, 10}});
  RegionSet inner = RS({{0, 4}, {6, 10}});
  EXPECT_EQ(Including(outer, inner), outer);
  EXPECT_EQ(IncludedIn(inner, outer), inner);
  // And direct inclusion sees both as direct children.
  RegionSet universe = Union(outer, inner);
  ParentTable parents = BuildParentTable(universe);
  EXPECT_EQ(DirectlyIncluding(outer, inner, universe, parents), outer);
  EXPECT_EQ(DirectlyIncluded(inner, outer, universe, parents), inner);
}

TEST(RegionEdgeTest, SameSpanInDifferentOperands) {
  // The same span can be a member of two different sets; weak inclusion
  // relates them, strict/direct does not.
  RegionSet a = RS({{3, 7}});
  RegionSet b = RS({{3, 7}, {0, 10}});
  EXPECT_EQ(IncludedIn(a, b), a);       // via itself and via {0,10}
  EXPECT_EQ(IncludedInStrict(a, b), a); // via {0,10} only
  RegionSet universe = b;
  EXPECT_EQ(
      DirectlyIncluded(a, RS({{0, 10}}), universe, BuildParentTable(universe)),
      a);
}

TEST(RegionEdgeTest, DeepNestingStress) {
  // A 500-deep nesting chain alternating between two sets.
  std::vector<Region> r;
  std::vector<Region> s;
  for (uint64_t d = 0; d < 500; ++d) {
    ((d % 2 == 0) ? r : s).push_back({d, 2000 - d});
  }
  RegionSet rs = RS(r);
  RegionSet ss = RS(s);
  RegionSet universe = Union(rs, ss);
  EXPECT_TRUE(universe.IsLaminar());
  // Every r member weakly contains some s member except possibly the
  // innermost; direct inclusion pairs alternate strictly.
  ParentTable parents = BuildParentTable(universe);
  RegionSet direct = DirectlyIncluding(rs, ss, universe, parents);
  EXPECT_EQ(direct.size(), rs.size());
  RegionSet direct_rev = DirectlyIncluding(ss, rs, universe, parents);
  // Every s member directly includes the next r member except the last.
  EXPECT_EQ(direct_rev.size(), ss.size() - 1);
  EXPECT_EQ(Innermost(universe).size(), 1u);
  EXPECT_EQ(Outermost(universe).size(), 1u);
}

TEST(RegionEdgeTest, WideFlatStress) {
  // 20k disjoint regions: linear-ish ops stay exact.
  std::vector<Region> v;
  for (uint64_t i = 0; i < 20000; ++i) {
    v.push_back({i * 10, i * 10 + 8});
  }
  RegionSet s = RS(v);
  EXPECT_EQ(Innermost(s), s);
  EXPECT_EQ(Outermost(s), s);
  EXPECT_EQ(Including(s, s), s);
  EXPECT_EQ(Difference(s, s), RegionSet());
  EXPECT_EQ(Union(s, s), s);
}

TEST(RegionEdgeTest, TotalLengthAndToStringSmall) {
  RegionSet s = RS({{0, 3}, {10, 14}});
  EXPECT_EQ(s.TotalLength(), 7u);
  EXPECT_EQ(s.ToString(), "{[0,3), [10,14)}");
}

TEST(RegionEdgeTest, FromSortedUniqueAcceptsCanonicalInput) {
  std::vector<Region> v = {{0, 10}, {0, 5}, {2, 4}};
  RegionSet s = RegionSet::FromSortedUnique(v);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_TRUE(s.ContainsRegion({0, 5}));
}

TEST(RegionEdgeTest, LayeredWithManyOtherIndexes) {
  // Layered ⊃d with the universe split across several "other" sets.
  RegionSet refs = RS({{0, 100}, {200, 300}});
  RegionSet mids = RS({{10, 90}, {210, 290}});
  RegionSet leaves = RS({{20, 30}, {220, 230}});
  std::vector<const RegionSet*> others = {&refs, &mids};
  EXPECT_EQ(DirectlyIncludingLayered(refs, leaves, others), RegionSet());
  std::vector<const RegionSet*> others2 = {&refs, &leaves};
  EXPECT_EQ(DirectlyIncludingLayered(mids, leaves, others2), mids);
}

}  // namespace
}  // namespace qof
