// Property tests: every region-algebra primitive is checked against a
// brute-force O(n^2) oracle on randomized inputs, including the laminar
// (parse-tree shaped) instances the direct-inclusion operators require.

#include <algorithm>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "qof/region/region_set.h"
#include "region/direct_oracle.h"

namespace qof {
namespace {

// --- oracles ---------------------------------------------------------------

RegionSet OracleIncluding(const RegionSet& r, const RegionSet& s,
                          bool strict) {
  std::vector<Region> out;
  for (const Region& a : r) {
    for (const Region& b : s) {
      if (strict ? a.StrictlyContains(b) : a.Contains(b)) {
        out.push_back(a);
        break;
      }
    }
  }
  return RegionSet::FromUnsorted(std::move(out));
}

RegionSet OracleIncludedIn(const RegionSet& r, const RegionSet& s,
                           bool strict) {
  std::vector<Region> out;
  for (const Region& a : r) {
    for (const Region& b : s) {
      if (strict ? b.StrictlyContains(a) : b.Contains(a)) {
        out.push_back(a);
        break;
      }
    }
  }
  return RegionSet::FromUnsorted(std::move(out));
}

RegionSet OracleInnermost(const RegionSet& r) {
  std::vector<Region> out;
  for (const Region& a : r) {
    bool has_inner = false;
    for (const Region& b : r) {
      if (a.StrictlyContains(b)) {
        has_inner = true;
        break;
      }
    }
    if (!has_inner) out.push_back(a);
  }
  return RegionSet::FromUnsorted(std::move(out));
}

RegionSet OracleOutermost(const RegionSet& r) {
  std::vector<Region> out;
  for (const Region& a : r) {
    bool has_outer = false;
    for (const Region& b : r) {
      if (b.StrictlyContains(a)) {
        has_outer = true;
        break;
      }
    }
    if (!has_outer) out.push_back(a);
  }
  return RegionSet::FromUnsorted(std::move(out));
}

// --- generators ------------------------------------------------------------

RegionSet RandomSet(std::mt19937& rng, int max_regions, uint64_t max_pos) {
  std::uniform_int_distribution<int> count(0, max_regions);
  std::uniform_int_distribution<uint64_t> pos(0, max_pos);
  int n = count(rng);
  std::vector<Region> v;
  for (int i = 0; i < n; ++i) {
    uint64_t a = pos(rng);
    uint64_t b = pos(rng);
    if (a > b) std::swap(a, b);
    if (a == b) ++b;
    v.push_back({a, b});
  }
  return RegionSet::FromUnsorted(std::move(v));
}

// Builds a random laminar family by recursive subdivision — the shape of a
// parse tree's spans.
void Subdivide(std::mt19937& rng, uint64_t lo, uint64_t hi, int depth,
               std::vector<Region>* out) {
  if (depth <= 0 || hi - lo < 4) return;
  std::uniform_int_distribution<int> children(1, 3);
  int k = children(rng);
  uint64_t width = (hi - lo) / static_cast<uint64_t>(k);
  if (width < 3) return;
  for (int i = 0; i < k; ++i) {
    uint64_t a = lo + static_cast<uint64_t>(i) * width + 1;
    uint64_t b = a + width - 2;
    if (b <= a) continue;
    out->push_back({a, b});
    Subdivide(rng, a, b, depth - 1, out);
  }
}

RegionSet RandomLaminar(std::mt19937& rng, uint64_t span, int depth) {
  std::vector<Region> v;
  v.push_back({0, span});
  Subdivide(rng, 0, span, depth, &v);
  return RegionSet::FromUnsorted(std::move(v));
}

// Up to `max_regions` arbitrary spans in [0, max_pos], a quarter of them
// zero-length.
RegionSet RandomSpans(std::mt19937& rng, int max_regions, uint64_t max_pos) {
  std::uniform_int_distribution<int> count(0, max_regions);
  std::uniform_int_distribution<uint64_t> pos(0, max_pos);
  std::bernoulli_distribution empty(0.25);
  std::vector<Region> v;
  for (int i = count(rng); i > 0; --i) {
    uint64_t a = pos(rng);
    uint64_t b = empty(rng) ? a : pos(rng);
    v.push_back({std::min(a, b), std::max(a, b)});
  }
  return RegionSet::FromUnsorted(std::move(v));
}

// A laminar family with the shapes RandomLaminar leaves out: siblings
// that touch, children sharing their parent's start (same-start groups),
// and zero-length spans, also on sibling boundaries. Each node is cut at
// random points and keeps most of the pieces; at most `max_regions`.
void SubdivideRich(std::mt19937& rng, uint64_t lo, uint64_t hi, int depth,
                   size_t max_regions, std::vector<Region>* out) {
  if (depth <= 0) return;
  std::uniform_int_distribution<int> cuts(0, 2);
  std::uniform_int_distribution<uint64_t> pos(lo, hi);
  std::bernoulli_distribution keep(0.8);
  std::vector<uint64_t> points = {lo, hi};
  for (int i = cuts(rng); i > 0; --i) points.push_back(pos(rng));
  std::sort(points.begin(), points.end());
  for (size_t i = 0; i + 1 < points.size(); ++i) {
    if (out->size() >= max_regions || !keep(rng)) continue;
    out->push_back({points[i], points[i + 1]});
    SubdivideRich(rng, points[i], points[i + 1], depth - 1, max_regions,
                  out);
  }
}

RegionSet RandomRichLaminar(std::mt19937& rng, uint64_t span, int depth,
                            size_t max_regions) {
  std::vector<Region> v;
  v.push_back({0, span});
  SubdivideRich(rng, 0, span, depth, max_regions, &v);
  return RegionSet::FromUnsorted(std::move(v));
}

// Random subset of a laminar family (arguments to ⊃d must come from the
// universe).
RegionSet RandomSubset(std::mt19937& rng, const RegionSet& base,
                       double keep) {
  std::bernoulli_distribution coin(keep);
  std::vector<Region> v;
  for (const Region& r : base) {
    if (coin(rng)) v.push_back(r);
  }
  return RegionSet::FromUnsorted(std::move(v));
}

// A laminar family of at least `n` members from a random walk over a
// stack of open regions: each step advances 0–3 bytes, then opens a
// member, closes the innermost open one or drops a zero-length span.
// Zero-byte steps make same-start groups, touching siblings and
// zero-length spans on member boundaries.
RegionSet RandomLaminarOfSize(std::mt19937& rng, size_t n) {
  std::uniform_int_distribution<uint64_t> step(0, 3);
  std::uniform_int_distribution<int> action(0, 9);
  std::vector<Region> out;
  std::vector<uint64_t> open;
  uint64_t pos = 0;
  while (out.size() < n || !open.empty()) {
    pos += step(rng);
    const int a = out.size() < n ? action(rng) : 8;
    if (a < 4) {
      open.push_back(pos);
    } else if (a < 9 && !open.empty()) {
      out.push_back({open.back(), pos});
      open.pop_back();
    } else {
      out.push_back({pos, pos});
    }
  }
  return RegionSet::FromUnsorted(std::move(out));
}

// `k` distinct members of `base` drawn at random (all when k >= |base|).
RegionSet Sample(std::mt19937& rng, const RegionSet& base, size_t k) {
  std::vector<Region> v = base.regions();
  std::shuffle(v.begin(), v.end(), rng);
  v.resize(std::min(k, v.size()));
  return RegionSet::FromUnsorted(std::move(v));
}

class RegionPropertyTest : public ::testing::TestWithParam<uint32_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, RegionPropertyTest,
                         ::testing::Range(0u, 25u));

TEST_P(RegionPropertyTest, IncludingMatchesOracle) {
  std::mt19937 rng(GetParam());
  for (int iter = 0; iter < 20; ++iter) {
    RegionSet r = RandomSet(rng, 30, 60);
    RegionSet s = RandomSet(rng, 30, 60);
    EXPECT_EQ(Including(r, s), OracleIncluding(r, s, false))
        << "r=" << r.ToString() << " s=" << s.ToString();
    EXPECT_EQ(IncludingStrict(r, s), OracleIncluding(r, s, true))
        << "r=" << r.ToString() << " s=" << s.ToString();
  }
}

TEST_P(RegionPropertyTest, IncludedInMatchesOracle) {
  std::mt19937 rng(GetParam() + 1000);
  for (int iter = 0; iter < 20; ++iter) {
    RegionSet r = RandomSet(rng, 30, 60);
    RegionSet s = RandomSet(rng, 30, 60);
    EXPECT_EQ(IncludedIn(r, s), OracleIncludedIn(r, s, false))
        << "r=" << r.ToString() << " s=" << s.ToString();
    EXPECT_EQ(IncludedInStrict(r, s), OracleIncludedIn(r, s, true))
        << "r=" << r.ToString() << " s=" << s.ToString();
  }
}

TEST_P(RegionPropertyTest, InnermostOutermostMatchOracle) {
  std::mt19937 rng(GetParam() + 2000);
  for (int iter = 0; iter < 20; ++iter) {
    RegionSet r = RandomSet(rng, 40, 80);
    EXPECT_EQ(Innermost(r), OracleInnermost(r)) << r.ToString();
    EXPECT_EQ(Outermost(r), OracleOutermost(r)) << r.ToString();
  }
}

TEST_P(RegionPropertyTest, SetAlgebraLaws) {
  std::mt19937 rng(GetParam() + 3000);
  for (int iter = 0; iter < 10; ++iter) {
    RegionSet a = RandomSet(rng, 20, 50);
    RegionSet b = RandomSet(rng, 20, 50);
    RegionSet c = RandomSet(rng, 20, 50);
    EXPECT_EQ(Union(a, b), Union(b, a));
    EXPECT_EQ(Intersect(a, b), Intersect(b, a));
    EXPECT_EQ(Union(Union(a, b), c), Union(a, Union(b, c)));
    EXPECT_EQ(Difference(a, Union(b, c)),
              Difference(Difference(a, b), c));
    EXPECT_EQ(Union(Intersect(a, b), Difference(a, b)), a);
  }
}

TEST_P(RegionPropertyTest, DirectInclusionMatchesOracleOnLaminar) {
  std::mt19937 rng(GetParam() + 4000);
  // ⊃d needs its left operand drawn from the universe, ⊂d its right one;
  // the probed side may be any set of regions.
  auto check = [](const RegionSet& members, const RegionSet& queries,
                  const RegionSet& universe) {
    ParentTable parents = BuildParentTable(universe);
    EXPECT_EQ(DirectlyIncluding(members, queries, universe, parents),
              OracleDirectlyIncluding(members, queries, universe))
        << "universe=" << universe.ToString()
        << "\nr=" << members.ToString() << "\ns=" << queries.ToString();
    EXPECT_EQ(DirectlyIncluded(queries, members, universe, parents),
              OracleDirectlyIncluded(queries, members, universe))
        << "universe=" << universe.ToString()
        << "\nr=" << queries.ToString() << "\ns=" << members.ToString();
  };
  for (int iter = 0; iter < 10; ++iter) {
    RegionSet universe = RandomLaminar(rng, 400, 4);
    check(RandomSubset(rng, universe, 0.5), RandomSubset(rng, universe, 0.5),
          universe);
  }
  std::uniform_int_distribution<int> depth(1, 8);
  for (int iter = 0; iter < 6; ++iter) {
    RegionSet universe = RandomRichLaminar(rng, 120, depth(rng), 160);
    ASSERT_TRUE(universe.IsLaminar()) << universe.ToString();
    RegionSet r = RandomSubset(rng, universe, 0.5);
    RegionSet s = RandomSubset(rng, universe, 0.5);
    check(r, s, universe);
    // Probes that are not universe members, zero-length ones included,
    // mixed with members.
    RegionSet probes =
        Union(RandomSubset(rng, universe, 0.2), RandomSpans(rng, 40, 120));
    check(r, probes, universe);
    check(RegionSet(), s, universe);
    check(r, RegionSet(), universe);
    check(universe, universe, universe);
    check(r, universe, universe);
    // |s| ≪ |U|: a couple of probes against the whole universe.
    check(universe, RandomSubset(rng, universe, 0.02), universe);
    check(RandomSubset(rng, universe, 0.02), universe, universe);
  }
}

TEST_P(RegionPropertyTest, LayeredDirectInclusionAgreesOnLaminar) {
  std::mt19937 rng(GetParam() + 5000);
  for (int iter = 0; iter < 5; ++iter) {
    RegionSet universe = RandomLaminar(rng, 300, 3);
    RegionSet r = RandomSubset(rng, universe, 0.6);
    RegionSet s = RandomSubset(rng, universe, 0.6);
    // Split the universe complement into two "other index" sets, as the
    // paper's program receives them.
    RegionSet rest = Difference(universe, s);
    RegionSet odd, even;
    {
      std::vector<Region> o, e;
      size_t i = 0;
      for (const Region& reg : rest) {
        ((i++ % 2) ? o : e).push_back(reg);
      }
      odd = RegionSet::FromUnsorted(std::move(o));
      even = RegionSet::FromUnsorted(std::move(e));
    }
    std::vector<const RegionSet*> others = {&odd, &even};
    EXPECT_EQ(DirectlyIncludingLayered(r, s, others),
              OracleDirectlyIncluding(r, s, Union(rest, s)))
        << "universe=" << universe.ToString() << "\nr=" << r.ToString()
        << "\ns=" << s.ToString();
  }
}

TEST_P(RegionPropertyTest, DirectImpliesSimpleInclusion) {
  std::mt19937 rng(GetParam() + 6000);
  for (int iter = 0; iter < 10; ++iter) {
    RegionSet universe = RandomLaminar(rng, 300, 4);
    RegionSet r = RandomSubset(rng, universe, 0.5);
    RegionSet s = RandomSubset(rng, universe, 0.5);
    RegionSet direct =
        DirectlyIncluding(r, s, universe, BuildParentTable(universe));
    RegionSet simple = Including(r, s);
    // ⊃d refines ⊃: every direct includer is an includer.
    EXPECT_EQ(Intersect(direct, simple), direct);
  }
}

// Checks ⊃, ⊂, their strict variants and ι against the oracles.
void ExpectInclusionMatchesOracle(const RegionSet& r, const RegionSet& s) {
  EXPECT_EQ(Including(r, s), OracleIncluding(r, s, false))
      << "r=" << r.ToString() << "\ns=" << s.ToString();
  EXPECT_EQ(IncludingStrict(r, s), OracleIncluding(r, s, true))
      << "r=" << r.ToString() << "\ns=" << s.ToString();
  EXPECT_EQ(IncludedIn(r, s), OracleIncludedIn(r, s, false))
      << "r=" << r.ToString() << "\ns=" << s.ToString();
  EXPECT_EQ(IncludedInStrict(r, s), OracleIncludedIn(r, s, true))
      << "r=" << r.ToString() << "\ns=" << s.ToString();
  EXPECT_EQ(Innermost(r), OracleInnermost(r)) << r.ToString();
  EXPECT_EQ(Outermost(r), OracleOutermost(r)) << r.ToString();
}

TEST_P(RegionPropertyTest, CursorKernelsMatchOracleAcrossSkews) {
  // The cursor kernels gallop through the larger operand, so skew decides
  // how far each probe jumps. Laminar operands are subsets of one parse
  // -tree-shaped family; overlapping ones are arbitrary spans, a quarter
  // of them zero-length.
  std::mt19937 rng(GetParam() + 8000);
  for (size_t ratio : {1, 10, 100, 1000}) {
    const size_t large = ratio == 1 ? 60 : 1000;
    const size_t small = large / ratio;
    RegionSet family = RandomLaminarOfSize(rng, 2 * large);
    ASSERT_TRUE(family.IsLaminar());
    RegionSet lam_small = Sample(rng, family, small);
    RegionSet lam_large = Sample(rng, family, large);
    ExpectInclusionMatchesOracle(lam_small, lam_large);
    ExpectInclusionMatchesOracle(lam_large, lam_small);
    const uint64_t extent = family.regions().back().end;
    RegionSet ovl_small = Sample(
        rng, RandomSpans(rng, static_cast<int>(4 * small), extent), small);
    RegionSet ovl_large = Sample(
        rng, RandomSpans(rng, static_cast<int>(4 * large), extent), large);
    ExpectInclusionMatchesOracle(ovl_small, ovl_large);
    ExpectInclusionMatchesOracle(ovl_large, ovl_small);
    ExpectInclusionMatchesOracle(lam_small, ovl_large);
    ExpectInclusionMatchesOracle(ovl_large, lam_small);
  }
}

TEST(RegionPropertyEdgeTest, DeepNestingOverLongEndsFallsBack) {
  // r is a 300-deep chain; s holds a member starting inside every link
  // and ending past all of them, plus one short member at the core.
  // Every ⊃ window scans the long members first, which overruns the
  // |r| + |s| scan budget and hands over to the range-min table.
  std::vector<Region> chain, spans;
  for (uint64_t i = 0; i < 300; ++i) {
    chain.push_back({i, 1000 - i});
    spans.push_back({i, 5000 + i});
  }
  spans.push_back({450, 460});
  RegionSet r = RegionSet::FromUnsorted(chain);
  RegionSet s = RegionSet::FromUnsorted(spans);
  EXPECT_EQ(Including(r, s), r);
  ExpectInclusionMatchesOracle(r, s);
  ExpectInclusionMatchesOracle(s, r);
  ExpectInclusionMatchesOracle(Union(r, s), s);
  // Without the core member nothing of r includes anything of s.
  spans.pop_back();
  RegionSet s_long = RegionSet::FromUnsorted(spans);
  EXPECT_TRUE(Including(r, s_long).empty());
  ExpectInclusionMatchesOracle(r, s_long);
  // A same-start chain: every member's window starts at the longer ones.
  std::vector<Region> same_start;
  for (uint64_t i = 1; i <= 400; ++i) same_start.push_back({0, i});
  ExpectInclusionMatchesOracle(RegionSet::FromUnsorted(same_start), s);
  // ⊂ with heavily overlapping containers: every window overlaps the
  // previous one, which overruns the budget of the container-driven scan.
  std::vector<Region> containers, words;
  for (uint64_t k = 0; k < 300; ++k) containers.push_back({k, k + 200});
  for (uint64_t k = 0; k < 600; ++k) words.push_back({k, k + 3});
  ExpectInclusionMatchesOracle(RegionSet::FromUnsorted(words),
                               RegionSet::FromUnsorted(containers));
}

TEST(RegionPropertyEdgeTest, ZeroLengthSpansOnBoundaries) {
  // Zero-length spans at position 0, on the ends of their neighbours and
  // between touching siblings.
  RegionSet r = RegionSet::FromUnsorted(
      {{0, 0}, {0, 5}, {5, 5}, {5, 10}, {10, 10}, {0, 10}, {3, 3}});
  RegionSet s = RegionSet::FromUnsorted({{0, 0}, {5, 5}, {10, 10}});
  RegionSet t = RegionSet::FromUnsorted({{0, 5}, {5, 10}, {10, 12}});
  for (const RegionSet* a : {&r, &s, &t}) {
    for (const RegionSet* b : {&r, &s, &t}) {
      ExpectInclusionMatchesOracle(*a, *b);
    }
  }
  EXPECT_EQ(Outermost(RegionSet::FromUnsorted({{0, 0}})),
            RegionSet::FromUnsorted({{0, 0}}));
  EXPECT_TRUE(IncludedIn(RegionSet::FromUnsorted({{0, 0}}),
                         RegionSet::FromUnsorted({{1, 1}}))
                  .empty());
}

TEST_P(RegionPropertyTest, UnionAllMatchesFoldedUnion) {
  std::mt19937 rng(GetParam() + 9000);
  std::uniform_int_distribution<int> count(0, 9);
  std::vector<RegionSet> sets(static_cast<size_t>(count(rng)));
  for (RegionSet& set : sets) set = RandomSpans(rng, 40, 200);
  if (!sets.empty()) sets.push_back(sets.front());  // duplicate members
  std::vector<const RegionSet*> inputs;
  RegionSet folded;
  for (const RegionSet& set : sets) {
    inputs.push_back(&set);
    folded = Union(folded, set);
  }
  EXPECT_EQ(UnionAll(inputs), folded);
}

TEST_P(RegionPropertyTest, InnermostOutermostAreIdempotent) {
  std::mt19937 rng(GetParam() + 7000);
  for (int iter = 0; iter < 10; ++iter) {
    RegionSet r = RandomSet(rng, 30, 60);
    EXPECT_EQ(Innermost(Innermost(r)), Innermost(r));
    EXPECT_EQ(Outermost(Outermost(r)), Outermost(r));
  }
}

}  // namespace
}  // namespace qof
