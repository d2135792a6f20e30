// Kernel dispatch tests. ∩ and − each have a linear and a galloping
// kernel, and σ= and STARTS a child-driven and a posting-driven
// direction; CostModel picks one from the operand sizes alone. The
// property test builds random operands on each side of kGallopRatio,
// asserts through CostModel which side each lands on, and checks every
// kernel against a brute-force oracle. ⊃, ⊂ and ι have one cursor kernel
// each and are checked against the oracle across the same skews and on
// nested families.

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qof/algebra/select_kernels.h"
#include "qof/region/cost_model.h"
#include "qof/region/region_set.h"
#include "qof/text/corpus.h"
#include "qof/text/word_index.h"

namespace qof {
namespace {

// --- brute-force oracles ----------------------------------------------------

RegionSet OracleIntersect(const RegionSet& a, const RegionSet& b) {
  std::vector<Region> out;
  for (const Region& x : a) {
    if (std::find(b.begin(), b.end(), x) != b.end()) out.push_back(x);
  }
  return RegionSet::FromUnsorted(std::move(out));
}

RegionSet OracleDifference(const RegionSet& a, const RegionSet& b) {
  std::vector<Region> out;
  for (const Region& x : a) {
    if (std::find(b.begin(), b.end(), x) == b.end()) out.push_back(x);
  }
  return RegionSet::FromUnsorted(std::move(out));
}

/// Members of `r` that contain (`including`) or lie inside some member of
/// `s`, strictly or weakly.
RegionSet OracleInclusion(const RegionSet& r, const RegionSet& s,
                          bool including, bool strict) {
  std::vector<Region> out;
  for (const Region& a : r) {
    for (const Region& b : s) {
      const Region& outer = including ? a : b;
      const Region& inner = including ? b : a;
      if (strict ? outer.StrictlyContains(inner) : outer.Contains(inner)) {
        out.push_back(a);
        break;
      }
    }
  }
  return RegionSet::FromUnsorted(std::move(out));
}

RegionSet OracleInnermost(const RegionSet& r) {
  return OracleDifference(r, OracleInclusion(r, r, true, true));
}

void ExpectInclusionMatchesOracle(const RegionSet& r, const RegionSet& s) {
  EXPECT_EQ(Including(r, s), OracleInclusion(r, s, true, false));
  EXPECT_EQ(IncludingStrict(r, s), OracleInclusion(r, s, true, true));
  EXPECT_EQ(IncludedIn(r, s), OracleInclusion(r, s, false, false));
  EXPECT_EQ(IncludedInStrict(r, s), OracleInclusion(r, s, false, true));
  EXPECT_EQ(Innermost(s), OracleInnermost(s));
}

// --- random operands --------------------------------------------------------

/// Exactly `n` distinct random regions with endpoints in [0, max_pos].
RegionSet RandomSetOfSize(std::mt19937& rng, size_t n, uint64_t max_pos) {
  std::uniform_int_distribution<uint64_t> pos(0, max_pos);
  std::set<Region> picked;
  while (picked.size() < n) {
    uint64_t a = pos(rng);
    uint64_t b = pos(rng);
    if (a > b) std::swap(a, b);
    if (a == b) ++b;
    picked.insert({a, b});
  }
  return RegionSet::FromUnsorted({picked.begin(), picked.end()});
}

/// Exactly `n` distinct regions, about half drawn from `base` (so ∩ and −
/// have non-trivial answers) and the rest random.
RegionSet OverlappingSetOfSize(std::mt19937& rng, const RegionSet& base,
                               size_t n, uint64_t max_pos) {
  std::set<Region> picked;
  std::uniform_int_distribution<size_t> at(0, base.size() - 1);
  while (picked.size() < n / 2) picked.insert(base[at(rng)]);
  RegionSet noise = RandomSetOfSize(rng, n, max_pos);
  for (const Region& r : noise) {
    if (picked.size() == n) break;
    picked.insert(r);
  }
  return RegionSet::FromUnsorted({picked.begin(), picked.end()});
}

/// A corpus of random words, eight to a line, plus its candidate child
/// members: every word, every line, every two-word span and a zero-length
/// span at each word start. "alpha" is common; "zeta" occurs only a few
/// times.
struct SelectFixture {
  Corpus corpus;
  WordIndex words;
  std::vector<Region> members;
  std::vector<Region> alpha_spans;
  std::set<uint64_t> word_starts;
};

void BuildSelectFixture(std::mt19937& rng, SelectFixture* f) {
  const std::vector<std::string> vocab = {"alpha", "alphabet", "beta",
                                          "gamma", "delta"};
  std::discrete_distribution<size_t> pick({6, 1, 4, 3, 3});
  std::uniform_int_distribution<int> rare(0, 199);
  std::string text;
  std::vector<Region> word_spans;
  for (int line = 0; line < 100; ++line) {
    const uint64_t line_start = text.size();
    for (int k = 0; k < 8; ++k) {
      if (k > 0) text += ' ';
      const std::string& w = rare(rng) == 0 ? "zeta" : vocab[pick(rng)];
      const Region span{text.size(), text.size() + w.size()};
      word_spans.push_back(span);
      if (w == "alpha") f->alpha_spans.push_back(span);
      f->word_starts.insert(span.start);
      f->members.push_back({span.start, span.start});
      text += w;
    }
    f->members.push_back({line_start, text.size()});
    text += '\n';
  }
  // At least one rare word, so the posting-driven cases match something.
  text += " zeta";
  const Region last{text.size() - 4, text.size()};
  word_spans.push_back(last);
  f->word_starts.insert(last.start);
  for (size_t i = 0; i < word_spans.size(); ++i) {
    f->members.push_back(word_spans[i]);
    if (i + 1 < word_spans.size()) {
      f->members.push_back({word_spans[i].start, word_spans[i + 1].end});
    }
  }
  ASSERT_TRUE(f->corpus.AddDocument("t", text).ok());
  f->words = WordIndex::Build(f->corpus);
}

/// σ= and STARTS by definition: the member's text is the word, or the
/// member is long enough for the prefix and begins at a word start whose
/// text begins with it.
std::vector<Region> OracleSelect(const SelectSpec& spec,
                                 const RegionSet& child,
                                 const SelectFixture& f) {
  const std::string& w = spec.word;
  std::vector<Region> out;
  for (const Region& r : child) {
    const bool hit =
        spec.kind == ExprKind::kSelectMatches
            ? f.corpus.ScanText(r.start, r.end) == w
            : r.length() >= w.size() && f.word_starts.count(r.start) > 0 &&
                  f.corpus.ScanText(r.start, r.start + w.size()) == w;
    if (hit) out.push_back(r);
  }
  return out;
}

class KernelEquivalenceTest : public ::testing::TestWithParam<uint32_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, KernelEquivalenceTest,
                         ::testing::Range(0u, 10u));

TEST_P(KernelEquivalenceTest, AllKernelsAgreeAcrossSkews) {
  std::mt19937 rng(GetParam() * 7919u + 3u);

  // ∩ and −: balanced and moderately skewed operands merge linearly;
  // past kGallopRatio the small side gallops.
  struct Skew {
    size_t small, large;
    bool gallops;
  };
  for (const Skew& skew : {Skew{40, 40, false}, Skew{30, 200, false},
                           Skew{3, 200, true}, Skew{1, 400, true}}) {
    const std::string label = std::to_string(skew.small) + ":" +
                              std::to_string(skew.large);
    ASSERT_EQ(CostModel::PreferGallop(skew.small, skew.large), skew.gallops)
        << label;
    RegionSet large = RandomSetOfSize(rng, skew.large, 300);
    RegionSet small = OverlappingSetOfSize(rng, large, skew.small, 300);
    ASSERT_EQ(small.size(), skew.small);

    const RegionSet meet = OracleIntersect(small, large);
    EXPECT_EQ(LinearIntersect(small, large), meet) << label;
    EXPECT_EQ(GallopIntersect(small, large), meet) << label;
    EXPECT_EQ(Intersect(small, large), meet) << label;
    EXPECT_EQ(Intersect(large, small), meet) << label;
    EXPECT_EQ(Difference(small, large), OracleDifference(small, large))
        << label;
    EXPECT_EQ(Difference(large, small), OracleDifference(large, small))
        << label;
    ExpectInclusionMatchesOracle(small, large);
    ExpectInclusionMatchesOracle(large, small);
  }

  // σ= and STARTS: a rare word against the whole child walks the
  // postings; a common word against a small child walks the child.
  SelectFixture f;
  BuildSelectFixture(rng, &f);
  const RegionSet whole = RegionSet::FromUnsorted(f.members);
  std::vector<Region> few = f.alpha_spans;
  std::shuffle(few.begin(), few.end(), rng);
  few.resize(std::min<size_t>(few.size(), 40));
  std::uniform_int_distribution<size_t> at(0, f.members.size() - 1);
  while (few.size() < 100) few.push_back(f.members[at(rng)]);
  const RegionSet small_child = RegionSet::FromUnsorted(std::move(few));

  struct Case {
    ExprKind kind;
    const char* word;
    const RegionSet* child;
    bool posting_driven;
  };
  for (const Case& c :
       {Case{ExprKind::kSelectMatches, "zeta", &whole, true},
        Case{ExprKind::kSelectMatches, "alpha", &small_child, false},
        Case{ExprKind::kSelectStartsWith, "ze", &whole, true},
        Case{ExprKind::kSelectStartsWith, "alp", &small_child, false}}) {
    SelectSpec spec;
    spec.kind = c.kind;
    spec.word = c.word;
    const std::string label = spec.Describe("child");
    const size_t postings = c.kind == ExprKind::kSelectMatches
                                ? f.words.Lookup(c.word).size()
                                : f.words.LookupPrefix(c.word).size();
    ASSERT_GT(postings, 0u) << label;
    ASSERT_EQ(CostModel::PreferPostingDriven(postings, c.child->size()),
              c.posting_driven)
        << label << " postings=" << postings
        << " child=" << c.child->size();
    auto got =
        RunSelectKernel(spec, *c.child, &f.words, &f.corpus, nullptr, label);
    ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
    const std::vector<Region> want = OracleSelect(spec, *c.child, f);
    EXPECT_FALSE(want.empty()) << label;
    EXPECT_EQ(*got, want) << label;
  }
}

TEST_P(KernelEquivalenceTest, NestedFamiliesAgree) {
  // Containment-heavy inputs: many regions sharing starts and nesting
  // deeply, the shapes the inclusion kernels' window scans must handle.
  std::mt19937 rng(GetParam() * 104729u + 7u);
  std::uniform_int_distribution<uint64_t> pos(0, 40);
  std::uniform_int_distribution<uint64_t> len(1, 40);
  auto nested = [&](int n) {
    std::vector<Region> v;
    for (int i = 0; i < n; ++i) {
      uint64_t s = pos(rng);
      v.push_back({s, s + len(rng)});
    }
    return RegionSet::FromUnsorted(std::move(v));
  };
  RegionSet small = nested(4);
  RegionSet large = nested(300);
  ExpectInclusionMatchesOracle(small, large);
  ExpectInclusionMatchesOracle(large, small);
}

TEST(KernelEdgeTest, StrictIdenticalSpanEdgeCases) {
  // The strict variants must exclude only the identical span; duplicated
  // max-ends in the prefix are the regression surface.
  RegionSet r = RegionSet::FromUnsorted({{2, 8}});
  RegionSet s = RegionSet::FromUnsorted(
      {{0, 8}, {1, 8}, {2, 8}, {3, 5}, {10, 12}, {11, 20}, {12, 13},
       {14, 30}, {15, 16}, {17, 40}, {18, 19}, {20, 21}, {22, 23},
       {24, 25}, {26, 27}, {28, 29}, {30, 31}, {32, 33}, {34, 35},
       {36, 37}, {38, 39}, {40, 41}, {42, 43}, {44, 45}, {46, 47},
       {48, 49}, {50, 51}, {52, 53}, {54, 55}, {56, 57}, {58, 59},
       {60, 61}, {62, 63}, {64, 65}});
  // {2,8} ∈ s, but {0,8} and {1,8} still strictly contain it.
  EXPECT_EQ(IncludedInStrict(r, s), r);

  // Only the identical span remains: strict inclusion must reject it.
  RegionSet s2 = RegionSet::FromUnsorted(
      {{2, 8},   {10, 11}, {12, 13}, {14, 15}, {16, 17}, {18, 19},
       {20, 21}, {22, 23}, {24, 25}, {26, 27}, {28, 29}, {30, 31},
       {32, 33}, {34, 35}, {36, 37}, {38, 39}, {40, 41}, {42, 43},
       {44, 45}, {46, 47}, {48, 49}, {50, 51}, {52, 53}, {54, 55},
       {56, 57}, {58, 59}, {60, 61}, {62, 63}, {64, 65}, {66, 67},
       {68, 69}, {70, 71}, {72, 73}, {74, 75}});
  EXPECT_TRUE(IncludedInStrict(r, s2).empty());
  EXPECT_TRUE(IncludingStrict(r, s2).empty());
  EXPECT_EQ(IncludedIn(r, s2), r);
}

TEST(KernelEdgeTest, GallopingHandlesDisjointRanges) {
  // Worst case for galloping: the small set lies entirely past the large
  // one, so every probe overshoots. Results must still be exact.
  std::vector<Region> big;
  for (uint64_t i = 0; i < 500; ++i) big.push_back({i * 3, i * 3 + 2});
  RegionSet large = RegionSet::FromUnsorted(std::move(big));
  RegionSet small = RegionSet::FromUnsorted({{10000, 10002}});
  ASSERT_TRUE(CostModel::PreferGallop(small.size(), large.size()));
  EXPECT_TRUE(GallopIntersect(small, large).empty());
  EXPECT_TRUE(Intersect(small, large).empty());
  EXPECT_EQ(Difference(small, large), small);
  EXPECT_TRUE(IncludedIn(small, large).empty());
  EXPECT_TRUE(Including(small, large).empty());
}

}  // namespace
}  // namespace qof
