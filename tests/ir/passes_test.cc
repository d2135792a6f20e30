#include "qof/ir/passes.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "qof/algebra/parser.h"
#include "qof/exec/fault_injector.h"
#include "qof/ir/ir.h"
#include "qof/region/region_index.h"
#include "qof/text/corpus.h"
#include "qof/text/word_index.h"

namespace qof {
namespace {

// A hand-tracked corpus whose region cardinalities are deliberately
// skewed (|A| = 2 < |B| = 4 < |C| = 6), so cost-based decisions (which
// intersect operand receives a pushed selection, how operands order) are
// predictable in the goldens. Every region spans one word.
class PassFixture {
 public:
  PassFixture() {
    // 12 words; regions tile them.
    //   A: words 0-1   B: words 2-5   C: words 6-11
    // "x" appears in A[0], B[0], C[0]; "y" in A[1], B[1], C[1].
    const std::vector<std::string> words = {"x",  "y",  "x",  "y",
                                            "b2", "b3", "x",  "y",
                                            "c2", "c3", "c4", "c5"};
    std::string text;
    std::vector<Region> spans;
    for (const std::string& w : words) {
      size_t start = text.size();
      text += w;
      spans.push_back({start, text.size()});
      text += " ";
    }
    EXPECT_TRUE(corpus_.AddDocument("d", text).ok());
    auto slice = [&](size_t from, size_t to) {
      std::vector<Region> out;
      for (size_t i = from; i < to; ++i) out.push_back(spans[i]);
      return RegionSet::FromUnsorted(std::move(out));
    };
    index_.Add("A", slice(0, 2));
    index_.Add("B", slice(2, 6));
    index_.Add("C", slice(6, 12));
    words_ = WordIndex::Build(corpus_);
  }

  IrProgram Lower(const char* text) {
    auto expr = ParseRegionExpr(text);
    EXPECT_TRUE(expr.ok()) << expr.status().ToString();
    expr_keep_.push_back(*expr);
    return LowerToIr(expr_keep_.back().get(), nullptr, nullptr, nullptr);
  }

  const RegionIndex* index() { return &index_; }
  const WordIndex* words() { return &words_; }

 private:
  Corpus corpus_;
  RegionIndex index_;
  WordIndex words_;
  std::vector<RegionExprPtr> expr_keep_;
};

TEST(PassCseTest, DuplicateSubtreesMergeGolden) {
  PassFixture f;
  // Both union arms contain the identical (A > sigma("x", B)) subtree;
  // after CSE it exists once and both consumers reference it.
  IrProgram p = f.Lower(
      "(A > sigma(\"x\", B)) | ((A > sigma(\"x\", B)) & C)");
  PassCse(&p);
  EXPECT_EQ(p.Dump(),
            "%0 = load A\n"
            "%1 = load B\n"
            "%2 = select sigma(\"x\", %1)\n"
            "%3 = including %0 %2\n"
            "%4 = load C\n"
            "%5 = intersect %3 %4\n"
            "%6 = union %3 %5\n"
            "roots: candidates=%6\n");
}

TEST(PassCseTest, SharingCrossesRoots) {
  PassFixture f;
  auto cand = ParseRegionExpr("A > sigma(\"x\", B)");
  auto proj = ParseRegionExpr("C < (A > sigma(\"x\", B))");
  ASSERT_TRUE(cand.ok());
  ASSERT_TRUE(proj.ok());
  IrProgram p =
      LowerToIr(cand->get(), proj->get(), nullptr, nullptr);
  PassCse(&p);
  // The candidates root and the projection's right operand are the same
  // node after CSE.
  const IrNode& proj_node = p.nodes[p.projection];
  ASSERT_EQ(proj_node.op, IrOp::kIncluded);
  EXPECT_EQ(proj_node.inputs[1], p.candidates);
}

TEST(PassCseTest, InjectedBadCseMergesDistinctSelections) {
  PassFixture f;
  // sigma("x", B) and sigma("y", B) are different selections; the
  // planted bug keys selects without their word, so they merge — the
  // defect the fuzzer's IR leg exists to catch.
  IrProgram sound = f.Lower("sigma(\"x\", B) | sigma(\"y\", B)");
  PassCse(&sound);
  ASSERT_EQ(sound.nodes[sound.candidates].inputs.size(), 2u);
  EXPECT_NE(sound.nodes[sound.candidates].inputs[0],
            sound.nodes[sound.candidates].inputs[1]);

  IrProgram bad = f.Lower("sigma(\"x\", B) | sigma(\"y\", B)");
  {
    ScopedFaultInjector planted({planted_bug::kBadCse, 1});
    PassCse(&bad);
  }
  ASSERT_EQ(bad.nodes[bad.candidates].inputs.size(), 2u);
  EXPECT_EQ(bad.nodes[bad.candidates].inputs[0],
            bad.nodes[bad.candidates].inputs[1]);
}

TEST(PassPushdownTest, SelectSinksIntoCheapestIntersectOperandGolden) {
  PassFixture f;
  // |A| = 2 < |C| = 6: sigma over (C & A) sinks into A.
  IrProgram p = f.Lower("sigma(\"x\", C & A)");
  PassPushdown(&p, f.index(), f.words());
  EXPECT_EQ(p.Dump(),
            "%0 = load C  ; card~6 work~6\n"
            "%1 = load A  ; card~2 work~2\n"
            "%2 = select sigma(\"x\", %1)  ; card~2 work~4\n"
            "%3 = intersect %0 %2  ; card~2 work~18\n"
            "roots: candidates=%3\n");
}

TEST(PassPushdownTest, SelectSinksIntoDifferenceMinuendOnly) {
  PassFixture f;
  IrProgram p = f.Lower("sigma(\"x\", C - A)");
  PassPushdown(&p, f.index(), f.words());
  EXPECT_EQ(p.Dump(),
            "%0 = load C  ; card~6 work~6\n"
            "%1 = select sigma(\"x\", %0)  ; card~3 work~12\n"
            "%2 = load A  ; card~2 work~2\n"
            "%3 = difference %1 %2  ; card~3 work~19\n"
            "roots: candidates=%3\n");
}

TEST(PassPushdownTest, CorpusFreeSelectDistributesOverUnion) {
  PassFixture f;
  // starts_with never re-reads the corpus, so it may distribute over ∪
  // without changing governance byte accounting.
  IrProgram p = f.Lower("starts(\"x\", A | B)");
  PassPushdown(&p, f.index(), f.words());
  const IrNode& root = p.nodes[p.candidates];
  ASSERT_EQ(root.op, IrOp::kUnion);
  for (int input : root.inputs) {
    EXPECT_EQ(p.nodes[input].op, IrOp::kSelect);
    EXPECT_EQ(p.nodes[p.nodes[input].inputs[0]].op, IrOp::kLoad);
  }
}

TEST(PassPushdownTest, PhraseSelectStaysAboveUnion) {
  PassFixture f;
  // A multi-token phrase selection re-reads corpus bytes; distributing
  // it over ∪ would scan members twice and diverge the byte budget, so
  // it must not move.
  IrProgram p = f.Lower("phrase(\"x y\", A | B)");
  PassPushdown(&p, f.index(), f.words());
  EXPECT_EQ(p.nodes[p.candidates].op, IrOp::kSelect);
  EXPECT_EQ(p.nodes[p.nodes[p.candidates].inputs[0]].op, IrOp::kUnion);
}

TEST(PassPushdownTest, NeverThroughInnermost) {
  PassFixture f;
  IrProgram p = f.Lower("sigma(\"x\", innermost(A | B))");
  PassPushdown(&p, f.index(), f.words());
  EXPECT_EQ(p.nodes[p.candidates].op, IrOp::kSelect);
  EXPECT_EQ(p.nodes[p.nodes[p.candidates].inputs[0]].op,
            IrOp::kInnermost);
}

TEST(PassPushdownTest, SinksThroughInclusionLeftOperand) {
  PassFixture f;
  // sigma(C > A): members are C regions, so the selection filters the
  // left operand only.
  IrProgram p = f.Lower("sigma(\"x\", C > A)");
  PassPushdown(&p, f.index(), f.words());
  const IrNode& root = p.nodes[p.candidates];
  ASSERT_EQ(root.op, IrOp::kIncluding);
  EXPECT_EQ(p.nodes[root.inputs[0]].op, IrOp::kSelect);
  EXPECT_EQ(p.nodes[root.inputs[1]].op, IrOp::kLoad);
}

TEST(PassOrderTest, OperandsSortByEstimatedCardinalityGolden) {
  PassFixture f;
  // |C| = 6, |B| = 4, |A| = 2 → the n-ary intersect reorders to A B C.
  IrProgram p = f.Lower("C & B & A");
  PassOrderOperands(&p, f.index(), f.words());
  EXPECT_EQ(p.Dump(),
            "%0 = load A  ; card~2 work~2\n"
            "%1 = load B  ; card~4 work~4\n"
            "%2 = load C  ; card~6 work~6\n"
            "%3 = intersect %0 %1 %2  ; card~2 work~28\n"
            "roots: candidates=%3\n");
}

TEST(PassOrderTest, KeyBreaksTies) {
  PassFixture f;
  // Unknown names all estimate to zero cardinality; the canonical key
  // orders them deterministically.
  IrProgram p = f.Lower("Zq | Zp | Zr");
  PassOrderOperands(&p, f.index(), f.words());
  const IrNode& root = p.nodes[p.candidates];
  ASSERT_EQ(root.inputs.size(), 3u);
  EXPECT_EQ(p.nodes[root.inputs[0]].name, "Zp");
  EXPECT_EQ(p.nodes[root.inputs[1]].name, "Zq");
  EXPECT_EQ(p.nodes[root.inputs[2]].name, "Zr");
}

TEST(PassPipelineTest, FullPipelineIsDeterministic) {
  PassFixture f;
  IrProgram a = f.Lower("sigma(\"x\", C & A) | sigma(\"x\", C & A)");
  IrProgram b = f.Lower("sigma(\"x\", C & A) | sigma(\"x\", C & A)");
  std::vector<PassTrace> trace_a, trace_b;
  RunPasses(&a, f.index(), f.words(), &trace_a);
  RunPasses(&b, f.index(), f.words(), &trace_b);
  ASSERT_EQ(trace_a.size(), trace_b.size());
  for (size_t i = 0; i < trace_a.size(); ++i) {
    EXPECT_EQ(trace_a[i].name, trace_b[i].name);
    EXPECT_EQ(trace_a[i].dump, trace_b[i].dump);
  }
  // The one fixed pipeline, one step per pass; the last step is the
  // program the executor runs.
  std::vector<std::string> names;
  for (const PassTrace& step : trace_a) names.push_back(step.name);
  EXPECT_EQ(names, (std::vector<std::string>{"lower", "cse", "pushdown",
                                             "order", "annotate"}));
  EXPECT_EQ(trace_a.back().dump, a.Dump());
}

}  // namespace
}  // namespace qof
