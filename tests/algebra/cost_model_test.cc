#include "qof/region/cost_model.h"

#include <gtest/gtest.h>

#include "qof/algebra/parser.h"
#include "qof/datagen/bibtex_gen.h"
#include "qof/datagen/schemas.h"
#include "qof/engine/indexer.h"
#include "qof/ir/ir.h"
#include "qof/ir/passes.h"

namespace qof {
namespace {

TEST(SharedCostModel, ConstantsArePinned) {
  // The shared dispatch table is load-bearing across layers: the region
  // kernels, the tree evaluator and the IR cost annotation and passes
  // all read these constants, so changing one silently re-tunes every
  // layer at once. Pin the values so a change shows up as a deliberate
  // edit here, not as an unexplained benchmark shift.
  EXPECT_EQ(CostModel::kGallopRatio, 16u);
  EXPECT_DOUBLE_EQ(CostModel::kDirectFactor, 4.0);
  EXPECT_EQ(CostModel::kSortMergeJoinMinPairs, 64u);
}

TEST(SharedCostModel, DispatchPredicatesMatchTheRatio) {
  EXPECT_TRUE(CostModel::PreferGallop(10, 1000));
  EXPECT_FALSE(CostModel::PreferGallop(100, 1000));
  EXPECT_FALSE(CostModel::PreferGallop(0, 0));
  EXPECT_TRUE(CostModel::PreferPostingDriven(10, 1000));
  EXPECT_FALSE(CostModel::PreferPostingDriven(100, 1000));
}

/// The cost figures of one lowered, unoptimized expression: its root's
/// AnnotateIrCosts annotation (the figures Explain prints).
struct Estimate {
  double cardinality = 0;
  double work = 0;
  std::string dump;
};

class CostModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = BibtexSchema();
    ASSERT_TRUE(schema.ok());
    BibtexGenOptions gen;
    gen.num_references = 100;
    gen.probe_author_rate = 0.1;
    gen.probe_editor_rate = 0.1;
    ASSERT_TRUE(
        corpus_.AddDocument("gen.bib", GenerateBibtex(gen)).ok());
    auto built = BuildIndexes(*schema, corpus_, IndexSpec::Full());
    ASSERT_TRUE(built.ok());
    built_ = std::make_unique<BuiltIndexes>(std::move(*built));
  }

  Estimate Annotate(const char* text) {
    auto expr = ParseRegionExpr(text);
    EXPECT_TRUE(expr.ok()) << expr.status().ToString();
    if (!expr.ok()) return {};
    IrProgram ir = LowerToIr(expr->get(), nullptr, nullptr, nullptr);
    AnnotateIrCosts(&ir, &built_->regions, &built_->words);
    const IrNode& root = ir.nodes[ir.candidates];
    return {root.est_cardinality, root.est_work, ir.Dump()};
  }

  Corpus corpus_;
  std::unique_ptr<BuiltIndexes> built_;
};

TEST_F(CostModelTest, NameCardinalityIsInstanceSize) {
  Estimate est = Annotate("Reference");
  EXPECT_DOUBLE_EQ(est.cardinality, 100.0);
  EXPECT_DOUBLE_EQ(est.work, 100.0);  // one pass over the instance
  Estimate unknown = Annotate("Nonexistent");
  EXPECT_DOUBLE_EQ(unknown.cardinality, 0.0);
  EXPECT_DOUBLE_EQ(unknown.work, 0.0);
}

TEST_F(CostModelTest, SelectionBoundedByPostings) {
  Estimate est = Annotate("sigma(\"Chang\", Last_Name)");
  auto& postings = built_->words.Lookup("Chang");
  EXPECT_LE(est.cardinality, static_cast<double>(postings.size()));
  EXPECT_GT(est.cardinality, 0.0);
  // A word that never occurs estimates to zero.
  Estimate none = Annotate("sigma(\"Zweig\", Last_Name)");
  EXPECT_DOUBLE_EQ(none.cardinality, 0.0);
}

TEST_F(CostModelTest, DirectInclusionCostsMoreThanSimple) {
  Estimate direct = Annotate("Reference >> Authors");
  Estimate simple = Annotate("Reference > Authors");
  EXPECT_GT(direct.work, simple.work);
  EXPECT_DOUBLE_EQ(direct.cardinality, simple.cardinality);
  Estimate direct_in = Annotate("Authors << Reference");
  Estimate simple_in = Annotate("Authors < Reference");
  EXPECT_GT(direct_in.work, simple_in.work);
  EXPECT_DOUBLE_EQ(direct_in.cardinality, simple_in.cardinality);
}

TEST_F(CostModelTest, OptimizedFormCostsLess) {
  // The §3.2 rewrite should be an improvement under the model too.
  Estimate raw = Annotate(
      "Reference >> Authors >> Name >> sigma(\"Chang\", Last_Name)");
  Estimate optimized =
      Annotate("Reference > Authors > sigma(\"Chang\", Last_Name)");
  EXPECT_LT(optimized.work, raw.work);
}

TEST_F(CostModelTest, SetOperatorCardinalities) {
  Estimate u = Annotate("Authors | Editors");
  Estimate i = Annotate("Authors & Editors");
  Estimate d = Annotate("Authors - Editors");
  Estimate a = Annotate("Authors");
  Estimate e = Annotate("Editors");
  EXPECT_DOUBLE_EQ(u.cardinality, a.cardinality + e.cardinality);
  EXPECT_DOUBLE_EQ(i.cardinality,
                   std::min(a.cardinality, e.cardinality));
  EXPECT_DOUBLE_EQ(d.cardinality, a.cardinality);
  // A binary set operator reads both operands once more than they cost.
  const double merge = a.work + e.work + a.cardinality + e.cardinality;
  EXPECT_DOUBLE_EQ(u.work, merge);
  EXPECT_DOUBLE_EQ(i.work, merge);
  EXPECT_DOUBLE_EQ(d.work, merge);
}

TEST_F(CostModelTest, NaryOperatorsCostLikeTheirLeftFold) {
  // Lowering flattens a right-nested ∪ spine into one n-ary node, which
  // costs like the left fold ((A ∪ E) ∪ N): same cardinality, and the
  // work the optimizer sees regardless of how the spine was written.
  Estimate right = Annotate("Authors | (Editors | Name)");
  Estimate left = Annotate("(Authors | Editors) | Name");
  EXPECT_DOUBLE_EQ(right.cardinality, left.cardinality);
  EXPECT_DOUBLE_EQ(right.work, left.work);
}

TEST_F(CostModelTest, PhrasePaysVerification) {
  Estimate phrase = Annotate("phrase(\"Taylor Series\", Title)");
  Estimate word = Annotate("contains(\"Taylor\", Title)");
  EXPECT_GE(phrase.work, word.work);
  // Verification costs 8 units per surviving candidate on top of the
  // scan of the child.
  Estimate title = Annotate("Title");
  EXPECT_DOUBLE_EQ(phrase.work, title.work + title.cardinality +
                                    8 * phrase.cardinality);
}

TEST_F(CostModelTest, ToStringReadable) {
  // The annotated dump carries the figures on every node.
  Estimate est = Annotate("Reference");
  EXPECT_NE(est.dump.find("load Reference  ; card~100 work~100"),
            std::string::npos)
      << est.dump;
}

}  // namespace
}  // namespace qof
