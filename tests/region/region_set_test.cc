#include "qof/region/region_set.h"

#include <gtest/gtest.h>

namespace qof {
namespace {

RegionSet RS(std::vector<Region> v) {
  return RegionSet::FromUnsorted(std::move(v));
}

TEST(RegionTest, ContainmentSemantics) {
  Region outer{0, 10};
  Region inner{2, 5};
  EXPECT_TRUE(outer.Contains(inner));
  EXPECT_TRUE(outer.Contains(outer));
  EXPECT_TRUE(outer.StrictlyContains(inner));
  EXPECT_FALSE(outer.StrictlyContains(outer));
  EXPECT_FALSE(inner.Contains(outer));
  // Shared endpoint still counts as containment (endpoints "within").
  EXPECT_TRUE(outer.Contains(Region{0, 10}));
  EXPECT_TRUE(outer.Contains(Region{5, 10}));
}

TEST(RegionTest, CanonicalOrderPutsEnclosersFirst) {
  // Same start: longer region sorts first.
  EXPECT_TRUE(Region({0, 10}) < Region({0, 5}));
  EXPECT_TRUE(Region({0, 5}) < Region({1, 3}));
  EXPECT_FALSE(Region({1, 3}) < Region({1, 3}));
}

TEST(RegionSetTest, FromUnsortedSortsAndDedupes) {
  RegionSet s = RS({{5, 8}, {0, 10}, {5, 8}, {0, 3}});
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0], (Region{0, 10}));
  EXPECT_EQ(s[1], (Region{0, 3}));
  EXPECT_EQ(s[2], (Region{5, 8}));
}

TEST(RegionSetTest, ContainsRegionExactSpanOnly) {
  RegionSet s = RS({{0, 10}, {5, 8}});
  EXPECT_TRUE(s.ContainsRegion({5, 8}));
  EXPECT_FALSE(s.ContainsRegion({5, 9}));
  EXPECT_FALSE(s.ContainsRegion({6, 8}));
}

TEST(RegionSetTest, SetOperations) {
  RegionSet a = RS({{0, 2}, {4, 6}, {8, 10}});
  RegionSet b = RS({{4, 6}, {8, 10}, {12, 14}});
  EXPECT_EQ(Union(a, b), RS({{0, 2}, {4, 6}, {8, 10}, {12, 14}}));
  EXPECT_EQ(Intersect(a, b), RS({{4, 6}, {8, 10}}));
  EXPECT_EQ(Difference(a, b), RS({{0, 2}}));
  EXPECT_EQ(Difference(b, a), RS({{12, 14}}));
}

TEST(RegionSetTest, SetOperationsWithEmpty) {
  RegionSet a = RS({{0, 2}});
  RegionSet e;
  EXPECT_EQ(Union(a, e), a);
  EXPECT_EQ(Intersect(a, e), e);
  EXPECT_EQ(Difference(a, e), a);
  EXPECT_EQ(Difference(e, a), e);
}

TEST(RegionSetTest, InnermostKeepsDeepestOnly) {
  // Nested chain: only the deepest survives.
  RegionSet s = RS({{0, 10}, {1, 9}, {2, 8}});
  EXPECT_EQ(Innermost(s), RS({{2, 8}}));
  // Two disjoint leaves under one parent: both survive.
  RegionSet t = RS({{0, 10}, {1, 3}, {5, 7}});
  EXPECT_EQ(Innermost(t), RS({{1, 3}, {5, 7}}));
}

TEST(RegionSetTest, OutermostKeepsShallowestOnly) {
  RegionSet s = RS({{0, 10}, {1, 9}, {2, 8}});
  EXPECT_EQ(Outermost(s), RS({{0, 10}}));
  RegionSet t = RS({{0, 4}, {1, 3}, {6, 9}});
  EXPECT_EQ(Outermost(t), RS({{0, 4}, {6, 9}}));
}

TEST(RegionSetTest, InnermostOutermostOnOverlaps) {
  // Partial overlaps: neither contains the other, both survive both ops.
  RegionSet s = RS({{0, 5}, {3, 8}});
  EXPECT_EQ(Innermost(s), s);
  EXPECT_EQ(Outermost(s), s);
}

TEST(RegionSetTest, IncludingSelectsContainers) {
  RegionSet refs = RS({{0, 20}, {30, 50}, {60, 80}});
  RegionSet names = RS({{5, 8}, {35, 38}});
  EXPECT_EQ(Including(refs, names), RS({{0, 20}, {30, 50}}));
  EXPECT_EQ(Including(names, refs), RegionSet());
}

TEST(RegionSetTest, IncludedSelectsContained) {
  RegionSet names = RS({{5, 8}, {35, 38}, {90, 95}});
  RegionSet refs = RS({{0, 20}, {30, 50}});
  EXPECT_EQ(IncludedIn(names, refs), RS({{5, 8}, {35, 38}}));
}

TEST(RegionSetTest, IncludingIsWeakStrictVariantIsNot) {
  RegionSet a = RS({{0, 10}});
  RegionSet b = RS({{0, 10}});
  EXPECT_EQ(Including(a, b), a);    // a region includes itself (weak)
  EXPECT_EQ(IncludedIn(a, b), a);
  EXPECT_EQ(IncludingStrict(a, b), RegionSet());
  EXPECT_EQ(IncludedInStrict(a, b), RegionSet());
}

TEST(RegionSetTest, StrictVariantsSeeDistinctSpans) {
  RegionSet a = RS({{0, 10}});
  RegionSet b = RS({{0, 10}, {2, 5}});
  EXPECT_EQ(IncludingStrict(a, b), a);  // via {2,5}
  RegionSet c = RS({{2, 5}});
  EXPECT_EQ(IncludedInStrict(c, b), c);  // via {0,10}
}

TEST(RegionSetTest, IsLaminar) {
  EXPECT_TRUE(RS({{0, 10}, {2, 5}, {6, 9}, {3, 4}}).IsLaminar());
  EXPECT_TRUE(RS({{0, 5}, {5, 10}}).IsLaminar());  // adjacent ok
  EXPECT_FALSE(RS({{0, 6}, {3, 9}}).IsLaminar());  // partial overlap
  EXPECT_TRUE(RegionSet().IsLaminar());
}

TEST(RegionSetTest, TotalLength) {
  EXPECT_EQ(RS({{0, 10}, {2, 5}}).TotalLength(), 13u);
  EXPECT_EQ(RegionSet().TotalLength(), 0u);
}

// --- direct inclusion -----------------------------------------------------

// Universe mirroring the paper's BibTeX structure:
//   Reference [0,100) ⊃ Authors [10,40) ⊃ Name [12,30) ⊃ Last_Name [20,28)
//   plus Editors [50,80) ⊃ Name [52,70) ⊃ Last_Name [60,68)
struct BibFixture {
  RegionSet reference = RS({{0, 100}});
  RegionSet authors = RS({{10, 40}});
  RegionSet editors = RS({{50, 80}});
  RegionSet name = RS({{12, 30}, {52, 70}});
  RegionSet last_name = RS({{20, 28}, {60, 68}});
  RegionSet universe = Union(
      Union(Union(reference, authors), Union(editors, name)), last_name);
  ParentTable parents = BuildParentTable(universe);
};

TEST(DirectInclusionTest, ParentChildIsDirect) {
  BibFixture f;
  EXPECT_EQ(DirectlyIncluding(f.reference, f.authors, f.universe, f.parents),
            f.reference);
  EXPECT_EQ(DirectlyIncluding(f.authors, f.name, f.universe, f.parents),
            f.authors);
  EXPECT_EQ(DirectlyIncluding(f.name, f.last_name, f.universe, f.parents),
            f.name);
}

TEST(DirectInclusionTest, GrandparentIsNotDirect) {
  BibFixture f;
  // Reference ⊃ Name holds but Authors/Editors lie in between.
  EXPECT_EQ(Including(f.reference, f.name), f.reference);
  EXPECT_EQ(DirectlyIncluding(f.reference, f.name, f.universe, f.parents),
            RegionSet());
  EXPECT_EQ(DirectlyIncluding(f.reference, f.last_name, f.universe, f.parents),
            RegionSet());
}

TEST(DirectInclusionTest, DirectlyIncludedMirror) {
  BibFixture f;
  EXPECT_EQ(DirectlyIncluded(f.authors, f.reference, f.universe, f.parents),
            f.authors);
  EXPECT_EQ(DirectlyIncluded(f.name, f.reference, f.universe, f.parents),
            RegionSet());
  EXPECT_EQ(DirectlyIncluded(f.last_name, f.name, f.universe, f.parents),
            f.last_name);
}

TEST(DirectInclusionTest, UnindexedGapMakesInclusionDirect) {
  // Without Name in the universe, Authors ⊃d Last_Name becomes direct.
  BibFixture f;
  RegionSet universe =
      Union(Union(f.reference, f.authors), Union(f.editors, f.last_name));
  EXPECT_EQ(DirectlyIncluding(f.authors, f.last_name, universe,
                              BuildParentTable(universe)),
            f.authors);
}

TEST(DirectInclusionTest, NestedSelfRegions) {
  // Self-nested regions (cycle in the RIG): sections within sections.
  RegionSet sections = RS({{0, 100}, {10, 50}, {20, 40}, {60, 90}});
  RegionSet universe = sections;
  // outer ⊃d {10,50}? yes. {10,50} ⊃d {20,40}? yes. {0,100} ⊃d {20,40}? no.
  ParentTable parents = BuildParentTable(universe);
  EXPECT_EQ(DirectlyIncluding(sections, RS({{20, 40}}), universe, parents),
            RS({{10, 50}}));
  EXPECT_EQ(DirectlyIncluding(sections, RS({{60, 90}}), universe, parents),
            RS({{0, 100}}));
}

TEST(DirectInclusionTest, LayeredAgreesOnNestedSelfRegions) {
  // The layered program receives the *full instance* of S's region name
  // (its contract — see region_set.h); members of S never act as
  // separators, yet the resulting r-set matches the definition because any
  // r with only S-members in between directly includes the outermost one.
  RegionSet sections = RS({{0, 100}, {10, 50}, {20, 40}, {60, 90}});
  RegionSet direct = DirectlyIncluding(sections, sections, sections,
                                       BuildParentTable(sections));
  EXPECT_EQ(direct, RS({{0, 100}, {10, 50}}));
  RegionSet layered = DirectlyIncludingLayered(sections, sections, {});
  EXPECT_EQ(layered, direct);
}

TEST(DirectInclusionTest, LayeredMatchesFastOnFixture) {
  BibFixture f;
  // I − {Authors-instance}: every other index.
  std::vector<const RegionSet*> others = {&f.reference, &f.editors, &f.name,
                                          &f.last_name};
  EXPECT_EQ(DirectlyIncludingLayered(f.reference, f.authors, others),
            DirectlyIncluding(f.reference, f.authors, f.universe, f.parents));
  std::vector<const RegionSet*> others2 = {&f.reference, &f.authors,
                                           &f.editors, &f.name};
  EXPECT_EQ(DirectlyIncludingLayered(f.name, f.last_name, others2),
            DirectlyIncluding(f.name, f.last_name, f.universe, f.parents));
  // Non-direct pair stays empty in both.
  std::vector<const RegionSet*> others3 = {&f.reference, &f.authors,
                                           &f.editors, &f.last_name};
  EXPECT_EQ(DirectlyIncludingLayered(f.reference, f.name, others3),
            RegionSet());
}

TEST(DirectInclusionTest, EmptyOperands) {
  BibFixture f;
  EXPECT_EQ(DirectlyIncluding(RegionSet(), f.authors, f.universe, f.parents),
            RegionSet());
  EXPECT_EQ(DirectlyIncluding(f.reference, RegionSet(), f.universe, f.parents),
            RegionSet());
  EXPECT_EQ(DirectlyIncluded(RegionSet(), f.reference, f.universe, f.parents),
            RegionSet());
}

TEST(DirectInclusionTest, InnermostStrictEnclosersChain) {
  RegionSet universe = RS({{0, 100}, {10, 50}, {20, 40}});
  ParentTable parents = BuildParentTable(universe);
  EXPECT_EQ(parents, (ParentTable{kNoParent, 0, 1}));
  // The innermost strict encloser of [20,40) is [10,50); [0,100) has none.
  EXPECT_EQ(DirectlyIncluding(universe, RS({{20, 40}}), universe, parents),
            RS({{10, 50}}));
  EXPECT_EQ(DirectlyIncluding(universe, RS({{0, 100}}), universe, parents),
            RegionSet());
  EXPECT_EQ(DirectlyIncluded(universe, RS({{10, 50}}), universe, parents),
            RS({{20, 40}}));
}

TEST(DirectInclusionTest, ParentTableSkipsFinishedSiblings) {
  // [0,100) ⊃ {[10,20) ⊃ [12,15)}, [30,40), then a sibling root.
  RegionSet universe = RS({{0, 100}, {10, 20}, {12, 15}, {30, 40}, {100, 120}});
  EXPECT_EQ(BuildParentTable(universe),
            (ParentTable{kNoParent, 0, 1, 0, kNoParent}));
}

TEST(DirectInclusionTest, ZeroLengthMemberHasTwoDirectEnclosers) {
  // [5,5) lies in both [2,5) and [5,8): two direct enclosers, which hide
  // [0,10) from it. Empty spans elsewhere have a single one.
  RegionSet universe = RS({{0, 10}, {2, 5}, {5, 8}, {5, 5}, {9, 9}});
  ParentTable parents = BuildParentTable(universe);
  RegionSet empty5 = RS({{5, 5}});
  EXPECT_EQ(DirectlyIncluding(universe, empty5, universe, parents),
            RS({{2, 5}, {5, 8}}));
  EXPECT_EQ(DirectlyIncluded(empty5, RS({{2, 5}}), universe, parents),
            empty5);
  EXPECT_EQ(DirectlyIncluded(empty5, RS({{5, 8}}), universe, parents),
            empty5);
  EXPECT_EQ(DirectlyIncluded(empty5, RS({{0, 10}}), universe, parents),
            RegionSet());
  EXPECT_EQ(DirectlyIncluding(universe, RS({{9, 9}}), universe, parents),
            RS({{0, 10}}));
}

TEST(DirectInclusionTest, NonMemberQueries) {
  BibFixture f;
  // Spans absent from the universe still find their innermost strict
  // encloser, also when they straddle a member's boundary.
  EXPECT_EQ(
      DirectlyIncluding(f.universe, RS({{22, 25}}), f.universe, f.parents),
      RS({{20, 28}}));
  EXPECT_EQ(
      DirectlyIncluding(f.universe, RS({{25, 35}}), f.universe, f.parents),
      RS({{10, 40}}));
  EXPECT_EQ(
      DirectlyIncluded(RS({{41, 45}}), f.reference, f.universe, f.parents),
      RS({{41, 45}}));
}

}  // namespace
}  // namespace qof
