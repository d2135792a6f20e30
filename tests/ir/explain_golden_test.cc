#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "qof/datagen/schemas.h"
#include "qof/engine/system.h"
#include "qof/ir/ir.h"
#include "qof/ir/passes.h"

namespace qof {
namespace {

// One hand-written two-entry corpus (fixed text, fixed order) so the
// explain output — strategy, cost annotations, per-pass dumps — is
// byte-reproducible.
constexpr char kCorpus[] =
    "@INCOLLECTION{Ref0,\n"
    "  AUTHOR = \"Alice Chang and Bob Smith\",\n"
    "  TITLE = \"Queries on Files\",\n"
    "  BOOKTITLE = \"Files\",\n"
    "  YEAR = \"1994\",\n"
    "  EDITOR = \"Carol Chang\",\n"
    "  PUBLISHER = \"ACM Press\",\n"
    "  ADDRESS = \"Minneapolis\",\n"
    "  PAGES = \"1--10\",\n"
    "  REFERRED = \"[Ref1]\",\n"
    "  KEYWORDS = \"query optimization\",\n"
    "  ABSTRACT = \"Region algebra over structured files\"\n"
    "}\n"
    "@INCOLLECTION{Ref1,\n"
    "  AUTHOR = \"Dana Corliss\",\n"
    "  TITLE = \"Indexing Text\",\n"
    "  BOOKTITLE = \"Retrieval\",\n"
    "  YEAR = \"1992\",\n"
    "  EDITOR = \"Eve Chang\",\n"
    "  PUBLISHER = \"Springer\",\n"
    "  ADDRESS = \"Waterloo\",\n"
    "  PAGES = \"11--20\",\n"
    "  REFERRED = \"[Ref0]\",\n"
    "  KEYWORDS = \"inverted files\",\n"
    "  ABSTRACT = \"Posting lists and region indexes\"\n"
    "}\n";

constexpr char kQuery[] =
    "SELECT r FROM References r "
    "WHERE r.Authors.Name.Last_Name = \"Chang\"";

std::unique_ptr<FileQuerySystem> MakeSystem() {
  auto schema = BibtexSchema();
  EXPECT_TRUE(schema.ok());
  auto system = std::make_unique<FileQuerySystem>(*schema);
  EXPECT_TRUE(system->AddFile("refs.bib", kCorpus).ok());
  EXPECT_TRUE(system->BuildIndexes(IndexSpec::Full()).ok());
  return system;
}

TEST(ExplainGoldenTest, ExplainQueryIsDeterministic) {
  auto a = MakeSystem();
  auto b = MakeSystem();
  auto ea = a->ExplainQuery(kQuery);
  auto eb = b->ExplainQuery(kQuery);
  ASSERT_TRUE(ea.ok()) << ea.status().ToString();
  ASSERT_TRUE(eb.ok()) << eb.status().ToString();
  EXPECT_EQ(*ea, *eb);
  // Repeated calls on one system are stable too (no hidden state).
  auto again = a->ExplainQuery(kQuery);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*ea, *again);
}

TEST(ExplainGoldenTest, PipelineSectionGolden) {
  auto system_owner = MakeSystem();
  FileQuerySystem& system = *system_owner;
  auto explained = system.ExplainQuery(kQuery);
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  size_t at = explained->find("\nIR pipeline:\n");
  ASSERT_NE(at, std::string::npos) << *explained;
  EXPECT_EQ(explained->substr(at),
            "\nIR pipeline:\n"
            "-- after lower --\n"
            "%0 = load Reference\n"
            "%1 = load Authors\n"
            "%2 = load Last_Name\n"
            "%3 = select sigma(\"Chang\", %2)\n"
            "%4 = including %1 %3\n"
            "%5 = including %0 %4\n"
            "roots: candidates=%5\n"
            "-- after cse --\n"
            "%0 = load Reference\n"
            "%1 = load Authors\n"
            "%2 = load Last_Name\n"
            "%3 = select sigma(\"Chang\", %2)\n"
            "%4 = including %1 %3\n"
            "%5 = including %0 %4\n"
            "roots: candidates=%5\n"
            "-- after pushdown --\n"
            "%0 = load Reference  ; card~2 work~2\n"
            "%1 = load Authors  ; card~2 work~2\n"
            "%2 = load Last_Name  ; card~5 work~5\n"
            "%3 = select sigma(\"Chang\", %2)  ; card~3 work~10\n"
            "%4 = including %1 %3  ; card~2 work~17\n"
            "%5 = including %0 %4  ; card~2 work~23\n"
            "roots: candidates=%5\n"
            "-- after order --\n"
            "%0 = load Reference  ; card~2 work~2\n"
            "%1 = load Authors  ; card~2 work~2\n"
            "%2 = load Last_Name  ; card~5 work~5\n"
            "%3 = select sigma(\"Chang\", %2)  ; card~3 work~10\n"
            "%4 = including %1 %3  ; card~2 work~17\n"
            "%5 = including %0 %4  ; card~2 work~23\n"
            "roots: candidates=%5\n"
            "-- after annotate --\n"
            "%0 = load Reference  ; card~2 work~2\n"
            "%1 = load Authors  ; card~2 work~2\n"
            "%2 = load Last_Name  ; card~5 work~5\n"
            "%3 = select sigma(\"Chang\", %2)  ; card~3 work~10\n"
            "%4 = including %1 %3  ; card~2 work~17\n"
            "%5 = including %0 %4  ; card~2 work~23\n"
            "roots: candidates=%5\n");
}

TEST(ExplainGoldenTest, LastDumpIsTheProgramExecuteRuns) {
  auto system_owner = MakeSystem();
  FileQuerySystem& system = *system_owner;
  auto explained = system.ExplainQuery(kQuery);
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  // Execute lowers the compiled plan and runs the one pass pipeline.
  auto plan = system.Plan(kQuery);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  IrProgram ir =
      LowerToIr(plan->candidates.get(), plan->projection.get(),
                plan->join_lhs_attrs.get(), plan->join_rhs_attrs.get());
  RunPasses(&ir, &system.region_index(), &system.word_index());
  size_t at = explained->rfind("-- after ");
  ASSERT_NE(at, std::string::npos) << *explained;
  EXPECT_EQ(explained->substr(at), "-- after annotate --\n" + ir.Dump());
}

TEST(EngineSelectionTest, IndexPlansReportTheIrEngine) {
  auto system_owner = MakeSystem();
  FileQuerySystem& system = *system_owner;
  auto ir = system.Execute(kQuery, ExecutionMode::kAuto, QueryOptions());
  ASSERT_TRUE(ir.ok()) << ir.status().ToString();
  EXPECT_EQ(ir->stats.engine, "ir");
  EXPECT_FALSE(ir->stats.op_timings.empty());

  auto baseline =
      system.Execute(kQuery, ExecutionMode::kBaseline, QueryOptions());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_EQ(ir->regions, baseline->regions);
  EXPECT_EQ(ir->RenderedValues(), baseline->RenderedValues());
}

TEST(EngineSelectionTest, BaselineReportsNoEngine) {
  auto system_owner = MakeSystem();
  FileQuerySystem& system = *system_owner;
  auto baseline =
      system.Execute(kQuery, ExecutionMode::kBaseline, QueryOptions());
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(baseline->stats.engine, "");
}

}  // namespace
}  // namespace qof
