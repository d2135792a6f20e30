#include "qof/ir/executor.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "qof/algebra/evaluator.h"
#include "qof/algebra/parser.h"
#include "qof/cache/eval_cache.h"
#include "qof/engine/join.h"
#include "qof/exec/exec_context.h"
#include "qof/ir/ir.h"
#include "qof/ir/passes.h"
#include "qof/region/region_index.h"
#include "qof/text/corpus.h"
#include "qof/text/word_index.h"

namespace qof {
namespace {

// How a test optimizes the lowered program before executing it.
using Optimize = void (*)(IrProgram*, const RegionIndex*,
                          const WordIndex*);

void Lowered(IrProgram*, const RegionIndex*, const WordIndex*) {}

void FullPipeline(IrProgram* p, const RegionIndex* regions,
                  const WordIndex* words) {
  RunPasses(p, regions, words);
}

void CseOnly(IrProgram* p, const RegionIndex*, const WordIndex*) {
  PassCse(p);
}

void PushdownOnly(IrProgram* p, const RegionIndex* regions,
                  const WordIndex* words) {
  PassPushdown(p, regions, words);
}

void OrderOnly(IrProgram* p, const RegionIndex* regions,
               const WordIndex* words) {
  PassOrderOperands(p, regions, words);
}

// Mirrors the evaluator test's paper-shaped corpus: two references with
// authors/editors/names, giving nesting for ι/ω/⊃d and word collisions
// ("Chang" as author and editor) for selections.
class ExecFixture {
 public:
  ExecFixture() {
    BeginRegion("Reference");
    Raw("@R{ ");
    BeginRegion("Authors");
    Raw("AUTHORS \"");
    Name("Alice", "Chang");
    Raw(" and ");
    Name("Bob", "Smith");
    Raw("\"");
    EndRegion("Authors");
    Raw(" ");
    BeginRegion("Editors");
    Raw("EDITORS \"");
    Name("Carol", "Chang");
    Raw("\"");
    EndRegion("Editors");
    Raw(" }");
    EndRegion("Reference");
    Raw("  ");
    BeginRegion("Reference");
    Raw("@R{ ");
    BeginRegion("Authors");
    Raw("AUTHORS \"");
    Name("Dana", "Corliss");
    Raw("\"");
    EndRegion("Authors");
    Raw(" ");
    BeginRegion("Editors");
    Raw("EDITORS \"");
    Name("Eve", "Chang");
    Raw("\"");
    EndRegion("Editors");
    Raw(" }");
    EndRegion("Reference");

    EXPECT_TRUE(corpus_.AddDocument("refs.bib", text_).ok());
    for (auto& [name, regions] : spans_) {
      index_.Add(name, RegionSet::FromUnsorted(regions));
    }
    words_ = WordIndex::Build(corpus_);
  }

  // Evaluates `text` on both engines (IR vs. tree) and expects identical
  // regions; returns the shared answer. `optimize` rewrites the lowered
  // program before it runs: the full pipeline by default, one pass, or
  // nothing (Lowered) for the tree reshaped into n-ary nodes.
  RegionSet Both(const char* text, EvalStats* tree_stats = nullptr,
                 EvalStats* ir_stats = nullptr,
                 Optimize optimize = FullPipeline) {
    auto expr = ParseRegionExpr(text);
    EXPECT_TRUE(expr.ok()) << expr.status().ToString();
    ExprEvaluator tree(&index_, &words_, &corpus_);
    auto want = tree.Evaluate(**expr, tree_stats);
    EXPECT_TRUE(want.ok()) << want.status().ToString();

    keep_.push_back(*expr);
    IrProgram p =
        LowerToIr(keep_.back().get(), nullptr, nullptr, nullptr);
    optimize(&p, &index_, &words_);
    IrExecutor exec(&p, &index_, &words_, &corpus_);
    auto got = exec.EvaluateRoot(p.candidates, ir_stats);
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    if (want.ok() && got.ok()) {
      EXPECT_EQ(want->regions(), got->regions()) << text;
    }
    return got.ok() ? *got : RegionSet();
  }

  const RegionIndex& index() const { return index_; }
  const WordIndex& words() const { return words_; }
  const Corpus& corpus() const { return corpus_; }

 private:
  void Raw(std::string_view s) { text_ += s; }
  void BeginRegion(const std::string& name) {
    open_.push_back({name, text_.size()});
  }
  void EndRegion(const std::string& name) {
    ASSERT_EQ(open_.back().first, name);
    spans_[name].push_back({open_.back().second, text_.size()});
    open_.pop_back();
  }
  void Name(const std::string& first, const std::string& last) {
    BeginRegion("Name");
    BeginRegion("First_Name");
    Raw(first);
    EndRegion("First_Name");
    Raw(" ");
    BeginRegion("Last_Name");
    Raw(last);
    EndRegion("Last_Name");
    EndRegion("Name");
  }

  std::string text_;
  std::vector<std::pair<std::string, uint64_t>> open_;
  std::map<std::string, std::vector<Region>> spans_;
  Corpus corpus_;
  RegionIndex index_;
  WordIndex words_;
  std::vector<RegionExprPtr> keep_;
};

TEST(IrExecutorTest, AgreesWithTreeOnABattery) {
  ExecFixture f;
  const char* exprs[] = {
      "Reference",
      "Reference > Authors > sigma(\"Chang\", Last_Name)",
      "Reference >> Authors >> Name >> sigma(\"Chang\", Last_Name)",
      "(Reference > Authors > sigma(\"Chang\", Last_Name)) - "
      "(Reference > Editors > sigma(\"Chang\", Last_Name))",
      "(Name < Authors) | (Name < Editors)",
      "innermost(Name | Authors | Reference)",
      "outermost(Name | Authors | Reference)",
      "sigma(\"Chang\", Last_Name) | sigma(\"Smith\", Last_Name) | "
      "sigma(\"Corliss\", Last_Name)",
      "contains(\"Chang\", Name)",
      "starts(\"Cha\", Last_Name)",
      "phrase(\"Alice Chang\", Name)",
      "Last_Name < Name < Authors",
      "(Reference & Reference) | (Authors - Editors)",
  };
  // Each pass on its own keeps the answer, as does the whole pipeline.
  const std::pair<const char*, Optimize> pipelines[] = {
      {"lowered", Lowered},
      {"cse", CseOnly},
      {"pushdown", PushdownOnly},
      {"order", OrderOnly},
      {"full", FullPipeline},
  };
  for (const auto& [name, optimize] : pipelines) {
    SCOPED_TRACE(name);
    for (const char* text : exprs) f.Both(text, nullptr, nullptr, optimize);
  }
}

// Governance counters agree exactly when both engines run the same
// operators over the same intermediates.
void ExpectStatsParity(const EvalStats& tree, const EvalStats& ir) {
  EXPECT_EQ(tree.set_ops, ir.set_ops);
  EXPECT_EQ(tree.select_ops, ir.select_ops);
  EXPECT_EQ(tree.simple_incl_ops, ir.simple_incl_ops);
  EXPECT_EQ(tree.direct_incl_ops, ir.direct_incl_ops);
  EXPECT_EQ(tree.regions_produced, ir.regions_produced);
  EXPECT_EQ(tree.max_intermediate, ir.max_intermediate);
}

TEST(IrExecutorTest, StatsMatchTreeEvaluator) {
  ExecFixture f;
  // Unoptimized, the IR program is the tree reshaped.
  EvalStats tree, ir;
  f.Both(
      "(Reference > Authors > sigma(\"Chang\", Last_Name)) | "
      "(Reference > Editors > sigma(\"Chang\", Last_Name))",
      &tree, &ir, Lowered);
  ExpectStatsParity(tree, ir);
}

TEST(IrExecutorTest, CseAndOrderKeepStatsParity) {
  ExecFixture f;
  // Nothing to merge: CSE leaves the tree's operators and intermediates.
  EvalStats tree, ir;
  f.Both("(Name < Authors) | (Name < Editors)", &tree, &ir, CseOnly);
  ExpectStatsParity(tree, ir);
  // Ordering swaps the two ∪ operands (σ estimates below Reference);
  // a two-operand fold charges the same either way.
  EvalStats tree2, ir2;
  f.Both("Reference | sigma(\"Corliss\", Last_Name)", &tree2, &ir2,
         OrderOnly);
  ExpectStatsParity(tree2, ir2);
}

TEST(IrExecutorTest, CseEvaluatesASharedSubexpressionOnce) {
  ExecFixture f;
  EvalStats tree, ir;
  f.Both(
      "(Authors > sigma(\"Chang\", Last_Name)) | "
      "(Authors > sigma(\"Chang\", Last_Name))",
      &tree, &ir, CseOnly);
  EXPECT_EQ(tree.select_ops, 2u);
  EXPECT_EQ(ir.select_ops, 1u);
  EXPECT_EQ(tree.simple_incl_ops, 2u);
  EXPECT_EQ(ir.simple_incl_ops, 1u);
  EXPECT_EQ(tree.set_ops, ir.set_ops);
}

TEST(IrExecutorTest, PushdownKeepsOperatorCountsAndShrinksIntermediates) {
  ExecFixture f;
  // σ moves below ⊂ onto Last_Name: the same operators run, but ⊂ sees
  // one Smith instead of all three author last names.
  EvalStats tree, ir;
  f.Both("sigma(\"Smith\", Last_Name < Authors)", &tree, &ir,
         PushdownOnly);
  EXPECT_EQ(tree.select_ops, ir.select_ops);
  EXPECT_EQ(tree.simple_incl_ops, ir.simple_incl_ops);
  EXPECT_EQ(tree.set_ops, ir.set_ops);
  EXPECT_LT(ir.regions_produced, tree.regions_produced);
}

TEST(IrExecutorTest, CacheEntriesCrossEngines) {
  ExecFixture f;
  auto expr = ParseRegionExpr(
      "Reference > Authors > sigma(\"Chang\", Last_Name)");
  ASSERT_TRUE(expr.ok());
  EvalCache cache(/*max_regions=*/4096);
  CacheEpoch epoch;

  // Tree evaluator populates the cache...
  ExprEvaluator tree(&f.index(), &f.words(), &f.corpus(),
                     DirectAlgorithm::kFast, nullptr, &cache, epoch);
  EvalStats warm;
  auto want = tree.Evaluate(**expr, &warm);
  ASSERT_TRUE(want.ok());
  EXPECT_GT(warm.cache_misses, 0u);

  // ...and the IR executor is served from it: node keys are the same
  // canonical serialization, so the composite root is a hit.
  IrProgram p = LowerToIr(expr->get(), nullptr, nullptr, nullptr);
  IrExecutor exec(&p, &f.index(), &f.words(), &f.corpus(), nullptr,
                  &cache, epoch);
  EvalStats served;
  auto got = exec.EvaluateRoot(p.candidates, &served);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(want->regions(), got->regions());
  EXPECT_GT(served.cache_hits, 0u);
  EXPECT_EQ(served.cache_misses, 0u);
  // The root hit short-circuits evaluation: no set/inclusion work ran.
  EXPECT_EQ(served.total_ops(), 0u);
}

TEST(IrExecutorTest, SlotsMemoizeAcrossRoots) {
  ExecFixture f;
  auto cand = ParseRegionExpr("Reference > Authors");
  auto proj = ParseRegionExpr("Last_Name < (Reference > Authors)");
  ASSERT_TRUE(cand.ok());
  ASSERT_TRUE(proj.ok());
  IrProgram p =
      LowerToIr(cand->get(), proj->get(), nullptr, nullptr);
  RunPasses(&p, &f.index(), &f.words());
  IrExecutor exec(&p, &f.index(), &f.words(), &f.corpus());
  EvalStats stats;
  auto candidates = exec.EvaluateRoot(p.candidates, &stats);
  ASSERT_TRUE(candidates.ok());
  uint64_t after_candidates = stats.total_ops();
  // The project root reuses the candidates slot: only the projection leg
  // and the (uncharged) kProject rung run now.
  auto projected = exec.EvaluateRoot(p.project, &stats);
  ASSERT_TRUE(projected.ok());
  EXPECT_GT(stats.total_ops(), after_candidates);
  for (const Region& r : projected->regions()) {
    bool inside = false;
    for (const Region& c : candidates->regions()) {
      inside |= c.start <= r.start && r.end <= c.end;
    }
    EXPECT_TRUE(inside);
  }
}

TEST(IrExecutorTest, GovernanceBudgetsTripLikeTree) {
  ExecFixture f;
  auto expr = ParseRegionExpr("(Name < Authors) | (Name < Editors)");
  ASSERT_TRUE(expr.ok());
  QueryOptions options;
  options.max_regions = 2;  // far below the intermediates produced
  ExecContext ctx(options);
  IrProgram p = LowerToIr(expr->get(), nullptr, nullptr, nullptr);
  RunPasses(&p, &f.index(), &f.words());
  IrExecutor exec(&p, &f.index(), &f.words(), &f.corpus(), &ctx);
  auto r = exec.EvaluateRoot(p.candidates);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsBudgetExhausted()) << r.status().ToString();
}

TEST(IrExecutorTest, UnknownNameFailsLikeTree) {
  ExecFixture f;
  auto expr = ParseRegionExpr("Nonexistent & Reference");
  ASSERT_TRUE(expr.ok());
  IrProgram p = LowerToIr(expr->get(), nullptr, nullptr, nullptr);
  RunPasses(&p, &f.index(), &f.words());
  IrExecutor exec(&p, &f.index(), &f.words(), &f.corpus());
  auto r = exec.EvaluateRoot(p.candidates);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(IrExecutorTest, JoinRootUsesTheInstalledJoinFn) {
  ExecFixture f;
  auto cand = ParseRegionExpr("Reference");
  auto lhs = ParseRegionExpr("Last_Name < Authors");
  auto rhs = ParseRegionExpr("Last_Name < Editors");
  ASSERT_TRUE(cand.ok());
  ASSERT_TRUE(lhs.ok());
  ASSERT_TRUE(rhs.ok());
  IrProgram p =
      LowerToIr(cand->get(), nullptr, lhs->get(), rhs->get());
  RunPasses(&p, &f.index(), &f.words());
  IrExecutor exec(&p, &f.index(), &f.words(), &f.corpus());

  // Without a join function the kJoin root must fail loudly.
  auto bare = exec.EvaluateRoot(p.join);
  EXPECT_FALSE(bare.ok());

  exec.SetJoinFn([&](const RegionSet& candidates, const RegionSet& l,
                     const RegionSet& r) {
    return RunIndexJoin(f.corpus(), candidates, l, r);
  });
  auto joined = exec.EvaluateRoot(p.join);
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  // Reference 1 has author Chang and editor Chang — it joins; reference
  // 2 (author Corliss, editor Chang) does not.
  EXPECT_EQ(joined->size(), 1u);
}

TEST(IrExecutorTest, PerOperatorTimingsAreRecorded) {
  ExecFixture f;
  auto expr = ParseRegionExpr(
      "Reference > Authors > sigma(\"Chang\", Last_Name)");
  ASSERT_TRUE(expr.ok());
  IrProgram p = LowerToIr(expr->get(), nullptr, nullptr, nullptr);
  RunPasses(&p, &f.index(), &f.words());
  IrExecutor exec(&p, &f.index(), &f.words(), &f.corpus());
  ASSERT_TRUE(exec.EvaluateRoot(p.candidates).ok());
  const IrOpTimings& timings = exec.timings();
  ASSERT_TRUE(timings.count("load"));
  EXPECT_EQ(timings.at("load").count, 3u);
  uint64_t total = 0;
  for (const auto& [op, t] : timings) total += t.count;
  EXPECT_EQ(total, p.nodes.size());
}

}  // namespace
}  // namespace qof
