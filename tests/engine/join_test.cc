#include "qof/engine/join.h"

#include <gtest/gtest.h>

namespace qof {
namespace {

// Corpus layout (offsets):
//   candidate 1: [0,30)   lhs "ann" at [2,5),   rhs "bob" at [10,13)
//   candidate 2: [40,70)  lhs "cat" at [42,45), rhs "cat" at [50,53)
//   candidate 3: [80,110) lhs none,             rhs "dog" at [90,93)
class JoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string text(120, '.');
    text.replace(2, 3, "ann");
    text.replace(10, 3, "bob");
    text.replace(42, 3, "cat");
    text.replace(50, 3, "cat");
    text.replace(90, 3, "dog");
    ASSERT_TRUE(corpus_.AddDocument("t", text).ok());
    candidates_ = RegionSet::FromUnsorted({{0, 30}, {40, 70}, {80, 110}});
    lhs_ = RegionSet::FromUnsorted({{2, 5}, {42, 45}});
    rhs_ = RegionSet::FromUnsorted({{10, 13}, {50, 53}, {90, 93}});
  }

  Corpus corpus_;
  RegionSet candidates_;
  RegionSet lhs_;
  RegionSet rhs_;
};

TEST_F(JoinTest, KeepsCandidatesWithMatchingTexts) {
  auto out = RunIndexJoin(corpus_, candidates_, lhs_, rhs_);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0], (Region{40, 70}));
}

TEST_F(JoinTest, EmptySidesYieldNothing) {
  auto out = RunIndexJoin(corpus_, candidates_, RegionSet(), rhs_);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
  auto out2 = RunIndexJoin(corpus_, RegionSet(), lhs_, rhs_);
  ASSERT_TRUE(out2.ok());
  EXPECT_TRUE(out2->empty());
}

TEST_F(JoinTest, OnlyReadsAttributeBytes) {
  corpus_.ResetBytesRead();
  auto out = RunIndexJoin(corpus_, candidates_, lhs_, rhs_);
  ASSERT_TRUE(out.ok());
  // 2 lhs + 3 rhs regions, 3 bytes each — far below the 90 candidate
  // bytes a parse would touch. (rhs groups are skipped when lhs is
  // empty, so candidate 3's rhs may remain unread.)
  EXPECT_LE(corpus_.bytes_read(), 15u);
  EXPECT_GT(corpus_.bytes_read(), 0u);
}

TEST_F(JoinTest, AttributesOutsideCandidatesIgnored) {
  // Attribute regions not inside any candidate never match.
  RegionSet stray_lhs = RegionSet::FromUnsorted({{111, 114}});
  auto out = RunIndexJoin(corpus_, candidates_, stray_lhs, rhs_);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

TEST_F(JoinTest, WhitespaceTrimmedComparison) {
  // lhs span includes surrounding dots? No — craft spans with padding
  // spaces to check trimming.
  std::string text = "[ cat ]...[cat]";
  Corpus corpus;
  ASSERT_TRUE(corpus.AddDocument("t", text).ok());
  RegionSet candidates = RegionSet::FromUnsorted({{0, 15}});
  RegionSet lhs = RegionSet::FromUnsorted({{1, 6}});    // " cat "
  RegionSet rhs = RegionSet::FromUnsorted({{11, 14}});  // "cat"
  auto out = RunIndexJoin(corpus, candidates, lhs, rhs);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 1u);
}

TEST_F(JoinTest, AlgorithmsAgreeOnTheFixture) {
  auto nested =
      RunIndexJoin(corpus_, candidates_, lhs_, rhs_,
                   JoinAlgorithm::kNestedLoop);
  auto merged = RunIndexJoin(corpus_, candidates_, lhs_, rhs_,
                             JoinAlgorithm::kSortMerge);
  ASSERT_TRUE(nested.ok());
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(*nested, *merged);
  ASSERT_EQ(merged->size(), 1u);
  EXPECT_EQ((*merged)[0], (Region{40, 70}));
}

TEST_F(JoinTest, SortMergeHandlesEmptySides) {
  auto no_lhs = RunIndexJoin(corpus_, candidates_, RegionSet(), rhs_,
                             JoinAlgorithm::kSortMerge);
  ASSERT_TRUE(no_lhs.ok());
  EXPECT_TRUE(no_lhs->empty());
  auto no_rhs = RunIndexJoin(corpus_, candidates_, lhs_, RegionSet(),
                             JoinAlgorithm::kSortMerge);
  ASSERT_TRUE(no_rhs.ok());
  EXPECT_TRUE(no_rhs->empty());
  auto no_candidates = RunIndexJoin(corpus_, RegionSet(), lhs_, rhs_,
                                    JoinAlgorithm::kSortMerge);
  ASSERT_TRUE(no_candidates.ok());
  EXPECT_TRUE(no_candidates->empty());
}

// Builds a corpus of `n` fixed-width candidate blocks, each holding
// `per_side` lhs and `per_side` rhs attribute spans whose texts are drawn
// from a small key alphabet — guaranteeing heavy duplicate keys both
// within a candidate and across candidates.
struct DuplicateKeyFixture {
  static constexpr size_t kBlock = 100;
  Corpus corpus;
  RegionSet candidates;
  RegionSet lhs;
  RegionSet rhs;

  DuplicateKeyFixture(size_t n, size_t per_side, uint32_t seed) {
    static constexpr const char* kKeys[] = {"aa", "bb", "cc", "dd"};
    uint32_t state = seed;
    auto next = [&state]() {
      state = state * 1664525u + 1013904223u;
      return state >> 16;
    };
    std::string text(n * kBlock, '.');
    std::vector<Region> cand, left, right;
    for (size_t i = 0; i < n; ++i) {
      size_t base = i * kBlock;
      cand.push_back({base, base + kBlock - 2});
      for (size_t j = 0; j < per_side; ++j) {
        size_t lpos = base + 2 + j * 4;
        size_t rpos = base + 50 + j * 4;
        text.replace(lpos, 2, kKeys[next() % 4]);
        text.replace(rpos, 2, kKeys[next() % 4]);
        left.push_back({lpos, lpos + 2});
        right.push_back({rpos, rpos + 2});
      }
    }
    EXPECT_TRUE(corpus.AddDocument("dup", text).ok());
    candidates = RegionSet::FromUnsorted(cand);
    lhs = RegionSet::FromUnsorted(left);
    rhs = RegionSet::FromUnsorted(right);
  }
};

TEST(JoinAlgorithmTest, DuplicateKeysJoinIdentically) {
  // Many identical keys per candidate exercise the sort-merge group
  // advance: one match must qualify the candidate exactly once, never
  // once per matching pair.
  DuplicateKeyFixture f(/*n=*/12, /*per_side=*/6, /*seed=*/7);
  auto nested = RunIndexJoin(f.corpus, f.candidates, f.lhs, f.rhs,
                             JoinAlgorithm::kNestedLoop);
  auto merged = RunIndexJoin(f.corpus, f.candidates, f.lhs, f.rhs,
                             JoinAlgorithm::kSortMerge);
  ASSERT_TRUE(nested.ok());
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(*nested, *merged);
  EXPECT_FALSE(merged->empty());
  // No candidate may appear twice.
  for (size_t i = 1; i < merged->size(); ++i) {
    EXPECT_LT((*merged)[i - 1].start, (*merged)[i].start);
  }
}

TEST(JoinAlgorithmTest, EquivalentAcrossSizes) {
  // Sweep sizes from a handful of attributes to a few hundred: the
  // default (sort-merge) must agree with the nested-loop oracle at each.
  for (size_t n : {size_t{1}, size_t{2}, size_t{8}, size_t{16}, size_t{40}}) {
    DuplicateKeyFixture f(n, /*per_side=*/2, /*seed=*/static_cast<uint32_t>(n));
    auto nested = RunIndexJoin(f.corpus, f.candidates, f.lhs, f.rhs,
                               JoinAlgorithm::kNestedLoop);
    auto merged = RunIndexJoin(f.corpus, f.candidates, f.lhs, f.rhs);
    ASSERT_TRUE(nested.ok());
    ASSERT_TRUE(merged.ok());
    EXPECT_EQ(*nested, *merged) << "n=" << n;
  }
}

TEST(JoinAlgorithmTest, SortMergeSkipsRhsBytesForLhsEmptyCandidates) {
  // Byte-accounting parity with the nested loop: a candidate with no lhs
  // attributes must not have its rhs attribute texts scanned by either
  // algorithm (governance budgets would otherwise diverge by algorithm).
  std::string text(60, '.');
  text.replace(2, 3, "key");   // candidate 1 lhs
  text.replace(10, 3, "key");  // candidate 1 rhs
  text.replace(40, 3, "big");  // candidate 2 rhs only
  Corpus corpus;
  ASSERT_TRUE(corpus.AddDocument("t", text).ok());
  RegionSet candidates = RegionSet::FromUnsorted({{0, 30}, {30, 60}});
  RegionSet lhs = RegionSet::FromUnsorted({{2, 5}});
  RegionSet rhs = RegionSet::FromUnsorted({{10, 13}, {40, 43}});
  for (JoinAlgorithm algorithm :
       {JoinAlgorithm::kNestedLoop, JoinAlgorithm::kSortMerge}) {
    corpus.ResetBytesRead();
    auto out = RunIndexJoin(corpus, candidates, lhs, rhs, algorithm);
    ASSERT_TRUE(out.ok());
    ASSERT_EQ(out->size(), 1u);
    // 1 lhs span + 1 rhs span in candidate 1 = 6 bytes; candidate 2's
    // rhs span is skipped because its lhs group is empty.
    EXPECT_EQ(corpus.bytes_read(), 6u);
  }
}

}  // namespace
}  // namespace qof
