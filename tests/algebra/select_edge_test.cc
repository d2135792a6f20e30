// Boundary regressions for the selection kernels: regions shorter than
// the word, occurrences whose tails overhang the region, and the
// posting-driven vs region-driven directions of matches/starts agreeing
// on one small corpus. The sliced test checks every kind against a
// brute-force oracle on a whole child and on the 2048-member slices the
// IR hands the kernels one at a time.

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qof/algebra/evaluator.h"
#include "qof/algebra/parser.h"
#include "qof/algebra/select_kernels.h"
#include "qof/region/cost_model.h"
#include "qof/util/string_util.h"

namespace qof {
namespace {

class SelectEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Word starts: alpha@0(5), beta@6(4), alphabet@11(8), banana@20(6),
    // alp@27(3). Text length 30.
    const char* text = "alpha beta alphabet banana alp";
    ASSERT_TRUE(corpus_.AddDocument("t", text).ok());
    index_.Add("Short", RegionSet::FromUnsorted({{0, 3}}));
    index_.Add("Word", RegionSet::FromUnsorted({{0, 5}}));
    index_.Add("Tight", RegionSet::FromUnsorted({{0, 8}}));
    index_.Add("Wide", RegionSet::FromUnsorted({{0, 10}}));
    index_.Add("All", RegionSet::FromUnsorted(
                          {{0, 5},
                           {0, 3},
                           {6, 10},
                           {11, 19},
                           {20, 26},
                           {27, 30},
                           {2, 7},
                           {13, 18}}));
    // All's members plus 1-byte and empty spans, which no word of three
    // or more bytes can match or start: the same answers from a child
    // big enough to flip the kernels onto the postings.
    std::vector<Region> padded = (*index_.Get("All"))->regions();
    for (uint64_t p = 0; p < 30; ++p) {
      padded.push_back({p, p});
      padded.push_back({p, p + 1});
    }
    index_.Add("Padded", RegionSet::FromUnsorted(std::move(padded)));
    words_ = WordIndex::Build(corpus_);
  }

  RegionSet Eval(const char* text) {
    auto expr = ParseRegionExpr(text);
    EXPECT_TRUE(expr.ok()) << expr.status().ToString();
    ExprEvaluator eval(&index_, &words_, &corpus_);
    auto r = eval.Evaluate(**expr);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r : RegionSet();
  }

  Corpus corpus_;
  RegionIndex index_;
  WordIndex words_;
};

TEST_F(SelectEdgeTest, AtLeastIgnoresRegionsShorterThanTheWord) {
  // "alpha" has a posting at 0, but the region {0,3} is three bytes long:
  // no 5-byte occurrence fits. The old end-clamp let the posting at
  // position 0 count for exactly this shape.
  EXPECT_EQ(Eval("atleast(\"alpha\", 1, Short)").size(), 0u);
  EXPECT_EQ(Eval("atleast(\"alpha\", 1, Word)").size(), 1u);
  // An occurrence starting in the region but overhanging its end does
  // not count either: "beta"@6 ends at 10 > 8.
  EXPECT_EQ(Eval("atleast(\"beta\", 1, Tight)").size(), 0u);
  EXPECT_EQ(Eval("atleast(\"beta\", 1, Wide)").size(), 1u);
}

TEST_F(SelectEdgeTest, NearRequiresBothOccurrencesFullyInside) {
  // "beta"@6 reaches byte 10; the region {0,8} cuts it off mid-word.
  EXPECT_EQ(Eval("near(\"alpha\", \"beta\", 10, Tight)").size(), 0u);
  EXPECT_EQ(Eval("near(\"alpha\", \"beta\", 10, Wide)").size(), 1u);
  // The first word can overhang too: no 5-byte "alpha" fits in {0,3}.
  EXPECT_EQ(Eval("near(\"alpha\", \"beta\", 10, Short)").size(), 0u);
}

TEST_F(SelectEdgeTest, StartsRequiresRoomForThePrefix) {
  // {0,3} sits on a word with prefix "alph", but the region itself is
  // three bytes — it cannot start with a four-byte prefix.
  EXPECT_EQ(Eval("starts(\"alph\", Short)").size(), 0u);
  EXPECT_EQ(Eval("starts(\"alp\", Short)").size(), 1u);
}

TEST_F(SelectEdgeTest, MatchesAgreesAcrossKernelDirections) {
  // Against All (8 members) every posting list here is too long to
  // drive, so the kernels walk the child; against Padded (68 members) the
  // same postings drive. Both must give the expected answers.
  const size_t all = (*index_.Get("All"))->size();
  const size_t padded = (*index_.Get("Padded"))->size();
  struct Case {
    const char* op;
    const char* word;
    RegionSet want;
  };
  const Case cases[] = {
      {"matches", "alpha", RegionSet::FromUnsorted({{0, 5}})},
      {"matches", "alp", RegionSet::FromUnsorted({{27, 30}})},
      {"matches", "banana", RegionSet::FromUnsorted({{20, 26}})},
      {"matches", "zebra", RegionSet()},
      {"starts", "alpha", RegionSet::FromUnsorted({{0, 5}, {11, 19}})},
      {"starts", "alp",
       RegionSet::FromUnsorted({{0, 3}, {0, 5}, {11, 19}, {27, 30}})},
      {"starts", "ban", RegionSet::FromUnsorted({{20, 26}})},
  };
  for (const Case& c : cases) {
    const std::string call = std::string(c.op) + "(\"" + c.word + "\", ";
    const size_t postings = std::string(c.op) == "matches"
                                ? words_.Lookup(c.word).size()
                                : words_.LookupPrefix(c.word).size();
    if (postings > 0) {
      EXPECT_FALSE(CostModel::PreferPostingDriven(postings, all)) << call;
      EXPECT_TRUE(CostModel::PreferPostingDriven(postings, padded)) << call;
    }
    EXPECT_EQ(Eval((call + "All)").c_str()), c.want) << call;
    EXPECT_EQ(Eval((call + "Padded)").c_str()), c.want) << call;
  }
}

// --- sliced selections against a brute-force oracle ------------------------

/// The occurrences of a `len`-byte word (starting at `postings`) that lie
/// wholly inside `r`.
std::vector<TextPos> Inside(const std::vector<TextPos>& postings,
                            uint64_t len, const Region& r) {
  std::vector<TextPos> out;
  auto it = std::lower_bound(postings.begin(), postings.end(), r.start);
  for (; it != postings.end() && *it + len <= r.end; ++it) out.push_back(*it);
  return out;
}

bool HoldsOccurrence(const std::vector<TextPos>& postings, uint64_t len,
                     const Region& r) {
  return !Inside(postings, len, r).empty();
}

/// The selection's definition, checked member by member: the
/// occurrences inside each member are enumerated in full (and the text
/// compared, for phrases).
std::vector<Region> OracleSelect(const SelectSpec& spec,
                                 const RegionSet& child,
                                 const WordIndex& words,
                                 const Corpus& corpus) {
  const std::string& w = spec.word;
  const uint64_t len = w.size();
  const std::vector<TextPos> prefixed = words.LookupPrefix(w);
  std::vector<Region> out;
  for (const Region& r : child) {
    bool hit = false;
    switch (spec.kind) {
      case ExprKind::kSelectMatches:
      case ExprKind::kSelectPhrase:
        hit = corpus.ScanText(r.start, r.end) == w;
        break;
      case ExprKind::kSelectContains:
        if (w.find(' ') == std::string::npos) {
          hit = HoldsOccurrence(words.Lookup(w), len, r);
        } else {
          for (uint64_t b = r.start; !hit && b + len <= r.end; ++b) {
            hit = corpus.ScanText(b, b + len) == w &&
                  HoldsOccurrence(words.Lookup(w.substr(0, w.find(' '))),
                                  w.find(' '), Region{b, b + len});
          }
        }
        break;
      case ExprKind::kSelectStartsWith:
        hit = r.length() >= len &&
              std::binary_search(prefixed.begin(), prefixed.end(), r.start);
        break;
      case ExprKind::kSelectContainsPrefix:
        hit = HoldsOccurrence(prefixed, len, r);
        break;
      case ExprKind::kSelectAtLeast:
        hit = Inside(words.Lookup(w), len, r).size() >= spec.param;
        break;
      case ExprKind::kSelectNear:
        for (TextPos a : Inside(words.Lookup(w), len, r)) {
          for (TextPos b :
               Inside(words.Lookup(spec.word2), spec.word2.size(), r)) {
            hit = hit || (a > b ? a - b : b - a) <= spec.param;
          }
        }
        break;
      default:
        ADD_FAILURE() << "not a selection";
    }
    if (hit) out.push_back(r);
  }
  return out;
}

SelectSpec Spec(ExprKind kind, std::string word, uint64_t param = 0,
                std::string word2 = "") {
  SelectSpec spec;
  spec.kind = kind;
  spec.word = std::move(word);
  spec.param = param;
  spec.word2 = std::move(word2);
  return spec;
}

TEST(SelectSliceTest, EveryKindMatchesOracleWholeAndSliced) {
  // ~6000 words from a vocabulary of shared prefixes, eight to a line.
  // The child holds every word, every line, every two-word span and a
  // zero-length span at each word start, so it is far larger than one
  // fused batch and mixes nesting with overlap.
  const std::vector<std::string> vocab = {"alpha", "alp",  "alphabet",
                                          "beta",  "banana", "band",
                                          "gamma", "delta"};
  std::mt19937 rng(11);
  std::discrete_distribution<size_t> pick({6, 2, 1, 5, 1, 1, 3, 4});
  std::string text;
  std::vector<Region> members;
  std::vector<Region> word_spans;
  for (int line = 0; line < 750; ++line) {
    const uint64_t line_start = text.size();
    for (int k = 0; k < 8; ++k) {
      if (k > 0) text += ' ';
      const std::string& w = vocab[pick(rng)];
      word_spans.push_back({text.size(), text.size() + w.size()});
      members.push_back({text.size(), text.size()});
      text += w;
    }
    members.push_back({line_start, text.size()});
    text += '\n';
  }
  for (size_t i = 0; i < word_spans.size(); ++i) {
    members.push_back(word_spans[i]);
    if (i + 1 < word_spans.size()) {
      members.push_back({word_spans[i].start, word_spans[i + 1].end});
    }
  }
  Corpus corpus;
  ASSERT_TRUE(corpus.AddDocument("t", text).ok());
  WordIndex words = WordIndex::Build(corpus);
  RegionSet child = RegionSet::FromUnsorted(std::move(members));
  ASSERT_GT(child.size(), 4 * CostModel::kFusedBatch);

  const std::vector<SelectSpec> specs = {
      Spec(ExprKind::kSelectMatches, "alpha"),
      Spec(ExprKind::kSelectMatches, "alp"),
      Spec(ExprKind::kSelectMatches, "banana"),
      Spec(ExprKind::kSelectMatches, "zebra"),
      Spec(ExprKind::kSelectMatches, "alpha beta"),
      Spec(ExprKind::kSelectContains, "beta"),
      Spec(ExprKind::kSelectContains, "alphabet"),
      Spec(ExprKind::kSelectContains, "gamma delta"),
      Spec(ExprKind::kSelectPhrase, "beta gamma"),
      Spec(ExprKind::kSelectStartsWith, "alp"),
      Spec(ExprKind::kSelectStartsWith, "ban"),
      Spec(ExprKind::kSelectContainsPrefix, "alph"),
      Spec(ExprKind::kSelectContainsPrefix, "ga"),
      Spec(ExprKind::kSelectAtLeast, "alpha", 2),
      Spec(ExprKind::kSelectAtLeast, "delta", 1),
      Spec(ExprKind::kSelectAtLeast, "beta", 3),
      Spec(ExprKind::kSelectNear, "alpha", 6, "beta"),
      Spec(ExprKind::kSelectNear, "band", 30, "gamma"),
  };
  std::vector<std::vector<Region>> expected;
  for (const SelectSpec& spec : specs) {
    expected.push_back(OracleSelect(spec, child, words, corpus));
  }
  for (size_t k = 0; k < specs.size(); ++k) {
    const SelectSpec& spec = specs[k];
    const std::string label = spec.Describe("child");
    auto whole = RunSelectKernel(spec, child, &words, &corpus, nullptr,
                                 label);
    ASSERT_TRUE(whole.ok()) << label << ": " << whole.status().ToString();
    EXPECT_EQ(*whole, expected[k]) << label;
    std::vector<Region> sliced;
    const std::vector<Region>& v = child.regions();
    for (size_t begin = 0; begin < v.size();
         begin += CostModel::kFusedBatch) {
      const size_t end = std::min(v.size(), begin + CostModel::kFusedBatch);
      RegionSet slice = RegionSet::FromSortedUnique(
          std::vector<Region>(v.begin() + static_cast<long>(begin),
                              v.begin() + static_cast<long>(end)));
      auto part = RunSelectKernel(spec, slice, &words, &corpus, nullptr,
                                  label);
      ASSERT_TRUE(part.ok()) << label;
      sliced.insert(sliced.end(), part->begin(), part->end());
    }
    EXPECT_EQ(sliced, *whole) << label;
  }
}

}  // namespace
}  // namespace qof
