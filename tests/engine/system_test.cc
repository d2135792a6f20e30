#include "qof/engine/system.h"

#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "qof/datagen/schemas.h"
#include "qof/ir/ir.h"
#include "qof/ir/passes.h"

namespace qof {
namespace {

// Hand-written corpus with known ground truth:
//   Ref0: Chang is an author;  Ref1: Chang is only an editor;
//   Ref2: no Chang at all;     Ref3: Chang both author and editor.
constexpr const char* kRefs = R"(@INCOLLECTION{Ref0,
  AUTHOR = "Y. F. Chang and G. F. Corliss",
  TITLE = "Solving Ordinary Differential Equations",
  BOOKTITLE = "Automatic Differentiation Algorithms",
  YEAR = "1982",
  EDITOR = "A. Griewank",
  PUBLISHER = "SIAM",
  ADDRESS = "Philadelphia, Penn.",
  PAGES = "114--144",
  REFERRED = "[Ref1]",
  KEYWORDS = "point algorithm; Taylor series",
  ABSTRACT = "A Fortran pre-processor uses automatic differentiation"
}
@INCOLLECTION{Ref1,
  AUTHOR = "T. Milo",
  TITLE = "Querying Files",
  BOOKTITLE = "Database Systems",
  YEAR = "1993",
  EDITOR = "Q. Chang",
  PUBLISHER = "ACM Press",
  ADDRESS = "New York, NY",
  PAGES = "1--20",
  REFERRED = "",
  KEYWORDS = "file systems",
  ABSTRACT = "bridging databases and files"
}
@INCOLLECTION{Ref2,
  AUTHOR = "S. Abiteboul and S. Cluet",
  TITLE = "Updating the File",
  BOOKTITLE = "Very Large Databases",
  YEAR = "1993",
  EDITOR = "M. Consens",
  PUBLISHER = "Springer",
  ADDRESS = "Berlin",
  PAGES = "73--84",
  REFERRED = "[Ref0]; [Ref1]",
  KEYWORDS = "structuring schemas; parsing",
  ABSTRACT = "queries and updates translated to operations on files"
}
@INCOLLECTION{Ref3,
  AUTHOR = "Q. Chang and T. Milo",
  TITLE = "Regions Everywhere",
  BOOKTITLE = "Text Indexing",
  YEAR = "1994",
  EDITOR = "Q. Chang and A. Griewank",
  PUBLISHER = "SIAM",
  ADDRESS = "Berlin",
  PAGES = "5--15",
  REFERRED = "",
  KEYWORDS = "region algebra; Taylor series",
  ABSTRACT = "every region is a pair of positions"
}
)";

class SystemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = BibtexSchema();
    ASSERT_TRUE(schema.ok());
    system_ = std::make_unique<FileQuerySystem>(*schema);
    ASSERT_TRUE(system_->AddFile("refs.bib", kRefs).ok());
    ASSERT_TRUE(system_->BuildIndexes(IndexSpec::Full()).ok());
  }

  QueryResult Run(std::string_view fql,
                  ExecutionMode mode = ExecutionMode::kAuto) {
    auto r = system_->Execute(fql, mode);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << "\n  for: " << fql;
    return r.ok() ? *r : QueryResult{};
  }

  // Key field of each result region (keys are "Ref0".."Ref3").
  std::set<std::string> Keys(const QueryResult& result) {
    std::set<std::string> out;
    for (const Region& r : result.regions) {
      std::string_view text =
          system_->corpus().RawText(r.start, r.end);
      size_t b = text.find('{') + 1;
      size_t e = text.find(',');
      out.insert(std::string(text.substr(b, e - b)));
    }
    return out;
  }

  std::unique_ptr<FileQuerySystem> system_;
};

TEST_F(SystemTest, FlagshipQueryIndexOnly) {
  QueryResult r = Run(
      "SELECT r FROM References r "
      "WHERE r.Authors.Name.Last_Name = \"Chang\"");
  EXPECT_EQ(r.stats.strategy, "index-only");
  EXPECT_TRUE(r.stats.exact);
  EXPECT_EQ(Keys(r), (std::set<std::string>{"Ref0", "Ref3"}));
  // Full computation on the indexing engine: no candidate parsing, and
  // the only text reads are zero (single-word σ needs no verification).
  EXPECT_EQ(r.stats.objects_built, 0u);
  EXPECT_EQ(r.stats.bytes_scanned, 0u);
}

TEST_F(SystemTest, BaselineAgreesWithIndexOnly) {
  const char* fql =
      "SELECT r FROM References r "
      "WHERE r.Authors.Name.Last_Name = \"Chang\"";
  QueryResult idx = Run(fql);
  QueryResult base = Run(fql, ExecutionMode::kBaseline);
  EXPECT_EQ(base.stats.strategy, "baseline");
  EXPECT_EQ(Keys(base), Keys(idx));
  // The baseline scanned (at least) the whole corpus; the index plan
  // scanned nothing.
  EXPECT_GE(base.stats.bytes_scanned, base.stats.corpus_bytes);
  EXPECT_EQ(base.stats.objects_built, 4u);
}

TEST_F(SystemTest, EditorQueryDistinguishesRoles) {
  QueryResult r = Run(
      "SELECT r FROM References r "
      "WHERE r.Editors.Name.Last_Name = \"Chang\"");
  EXPECT_EQ(Keys(r), (std::set<std::string>{"Ref1", "Ref3"}));
}

TEST_F(SystemTest, WildcardFindsBothRoles) {
  QueryResult r =
      Run("SELECT r FROM References r WHERE r.*X.Last_Name = \"Chang\"");
  EXPECT_EQ(r.stats.strategy, "index-only");
  EXPECT_EQ(Keys(r), (std::set<std::string>{"Ref0", "Ref1", "Ref3"}));
}

TEST_F(SystemTest, BooleanCombinations) {
  QueryResult both = Run(
      "SELECT r FROM References r WHERE "
      "r.Authors.Name.Last_Name = \"Chang\" AND "
      "r.Editors.Name.Last_Name = \"Chang\"");
  EXPECT_EQ(Keys(both), (std::set<std::string>{"Ref3"}));

  QueryResult author_only = Run(
      "SELECT r FROM References r WHERE "
      "r.Authors.Name.Last_Name = \"Chang\" AND NOT "
      "r.Editors.Name.Last_Name = \"Chang\"");
  EXPECT_EQ(Keys(author_only), (std::set<std::string>{"Ref0"}));

  QueryResult either = Run(
      "SELECT r FROM References r WHERE "
      "r.Publisher = \"SIAM\" OR r.Publisher = \"Springer\"");
  EXPECT_EQ(Keys(either), (std::set<std::string>{"Ref0", "Ref2", "Ref3"}));
}

TEST_F(SystemTest, PhraseEquality) {
  QueryResult r = Run(
      "SELECT r FROM References r WHERE r.Title = \"Querying Files\"");
  EXPECT_EQ(Keys(r), (std::set<std::string>{"Ref1"}));
  EXPECT_GT(r.stats.bytes_scanned, 0u);  // phrase verification reads text
  EXPECT_LT(r.stats.bytes_scanned, r.stats.corpus_bytes / 4);
}

TEST_F(SystemTest, ContainsQuery) {
  QueryResult r = Run(
      "SELECT r FROM References r WHERE r.Keywords CONTAINS \"Taylor\"");
  EXPECT_EQ(Keys(r), (std::set<std::string>{"Ref0", "Ref3"}));
}

TEST_F(SystemTest, MultiWordContainsMatchesPhraseOccurrences) {
  // "point algorithm" appears in Ref0's keywords; "region algebra" in
  // Ref3's.
  QueryResult r = Run(
      "SELECT r FROM References r "
      "WHERE r.Keywords CONTAINS \"point algorithm\"");
  EXPECT_EQ(Keys(r), (std::set<std::string>{"Ref0"}));
  EXPECT_GT(r.stats.bytes_scanned, 0u);  // phrase verification
  QueryResult base = Run(
      "SELECT r FROM References r "
      "WHERE r.Keywords CONTAINS \"point algorithm\"",
      ExecutionMode::kBaseline);
  EXPECT_EQ(Keys(base), Keys(r));
  // A phrase that never occurs contiguously matches nothing even though
  // both words occur separately.
  QueryResult none = Run(
      "SELECT r FROM References r "
      "WHERE r.Abstract CONTAINS \"differentiation automatic\"");
  EXPECT_TRUE(none.regions.empty());
}

TEST_F(SystemTest, YearNumberEquality) {
  QueryResult r =
      Run("SELECT r FROM References r WHERE r.Year = \"1993\"");
  EXPECT_EQ(Keys(r), (std::set<std::string>{"Ref1", "Ref2"}));
}

TEST_F(SystemTest, ProjectionViaIndex) {
  QueryResult r =
      Run("SELECT r.Authors.Name.Last_Name FROM References r");
  EXPECT_EQ(r.stats.strategy, "index-only");
  auto rendered = r.RenderedValues();
  // All author last names across the corpus.
  EXPECT_EQ(rendered, (std::vector<std::string>{
                          "Abiteboul", "Chang", "Chang", "Cluet",
                          "Corliss", "Milo", "Milo"}));
}

TEST_F(SystemTest, ProjectionWithWhere) {
  QueryResult r = Run(
      "SELECT r.Authors.Name.Last_Name FROM References r "
      "WHERE r.Year = \"1982\"");
  EXPECT_EQ(r.RenderedValues(),
            (std::vector<std::string>{"Chang", "Corliss"}));
}

TEST_F(SystemTest, JoinEditorAlsoAuthor) {
  QueryResult r = Run(
      "SELECT r FROM References r "
      "WHERE r.Editors.Name.Last_Name = r.Authors.Name.Last_Name");
  EXPECT_EQ(r.stats.strategy, "index-join");
  // Ref3: Q. Chang authored and edited.
  EXPECT_EQ(Keys(r), (std::set<std::string>{"Ref3"}));
  QueryResult base = Run(
      "SELECT r FROM References r "
      "WHERE r.Editors.Name.Last_Name = r.Authors.Name.Last_Name",
      ExecutionMode::kBaseline);
  EXPECT_EQ(Keys(base), Keys(r));
}

TEST_F(SystemTest, JoinFullNames) {
  QueryResult r = Run(
      "SELECT r FROM References r "
      "WHERE r.Editors.Name = r.Authors.Name");
  EXPECT_EQ(Keys(r), (std::set<std::string>{"Ref3"}));
}

TEST_F(SystemTest, TrivialQueryShortCircuits) {
  QueryResult r = Run(
      "SELECT r FROM References r WHERE r.Key.*X.Last_Name = \"x\"");
  EXPECT_EQ(r.stats.strategy, "empty");
  EXPECT_TRUE(r.regions.empty());
  EXPECT_EQ(r.stats.bytes_scanned, 0u);
}

TEST_F(SystemTest, PartialIndexTwoPhase) {
  ASSERT_TRUE(system_
                  ->BuildIndexes(IndexSpec::Partial(
                      {"Reference", "Key", "Last_Name"}))
                  .ok());
  QueryResult r = Run(
      "SELECT r FROM References r "
      "WHERE r.Authors.Name.Last_Name = \"Chang\"");
  EXPECT_EQ(r.stats.strategy, "two-phase");
  EXPECT_EQ(Keys(r), (std::set<std::string>{"Ref0", "Ref3"}));
  // §2/§6: candidates are the references mentioning Chang in any role —
  // a strict superset of the answer but far fewer than all references...
  EXPECT_EQ(r.stats.candidates, 3u);  // Ref0, Ref1, Ref3
  EXPECT_EQ(r.stats.objects_built, 3u);
  // ...and only their text was scanned.
  EXPECT_LT(r.stats.bytes_scanned, r.stats.corpus_bytes);
  EXPECT_GT(r.stats.bytes_scanned, 0u);
}

TEST_F(SystemTest, PartialIndexWithAuthorsIsExact) {
  ASSERT_TRUE(system_
                  ->BuildIndexes(IndexSpec::Partial(
                      {"Reference", "Authors", "Last_Name"}))
                  .ok());
  QueryResult r = Run(
      "SELECT r FROM References r "
      "WHERE r.Authors.Name.Last_Name = \"Chang\"");
  EXPECT_EQ(r.stats.strategy, "index-only");
  EXPECT_EQ(Keys(r), (std::set<std::string>{"Ref0", "Ref3"}));
}

TEST_F(SystemTest, SelectiveIndexing) {
  // §7: index Name/Last_Name only inside Authors regions.
  IndexSpec spec = IndexSpec::Partial(
      {"Reference", "Authors", "Name", "Last_Name"});
  spec.within["Name"] = "Authors";
  spec.within["Last_Name"] = "Authors";
  ASSERT_TRUE(system_->BuildIndexes(spec).ok());
  QueryResult r = Run(
      "SELECT r FROM References r "
      "WHERE r.Authors.Name.Last_Name = \"Chang\"");
  EXPECT_EQ(Keys(r), (std::set<std::string>{"Ref0", "Ref3"}));
}

TEST_F(SystemTest, IndexOnlyModeRejectsInexactPlans) {
  ASSERT_TRUE(system_
                  ->BuildIndexes(IndexSpec::Partial(
                      {"Reference", "Key", "Last_Name"}))
                  .ok());
  auto r = system_->Execute(
      "SELECT r FROM References r "
      "WHERE r.Authors.Name.Last_Name = \"Chang\"",
      ExecutionMode::kIndexOnly);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST_F(SystemTest, ForcedTwoPhaseAgreesWithIndexOnly) {
  const char* fql =
      "SELECT r FROM References r "
      "WHERE r.Authors.Name.Last_Name = \"Chang\"";
  QueryResult forced = Run(fql, ExecutionMode::kTwoPhase);
  EXPECT_EQ(forced.stats.strategy, "two-phase");
  EXPECT_EQ(Keys(forced), (std::set<std::string>{"Ref0", "Ref3"}));
}

TEST_F(SystemTest, UnknownViewRejected) {
  auto r = system_->Execute("SELECT x FROM Papers x");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  system_->AddViewAlias("Papers");
  EXPECT_TRUE(system_->Execute("SELECT x FROM Papers x").ok());
}

TEST_F(SystemTest, ExecuteWithoutIndexesNeedsBaseline) {
  auto schema = BibtexSchema();
  FileQuerySystem fresh(*schema);
  ASSERT_TRUE(fresh.AddFile("refs.bib", kRefs).ok());
  EXPECT_EQ(fresh.index_build_micros(), 0u);
  auto r = fresh.Execute("SELECT r FROM References r");
  EXPECT_FALSE(r.ok());
  auto base =
      fresh.Execute("SELECT r FROM References r", ExecutionMode::kBaseline);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  EXPECT_EQ(base->regions.size(), 4u);
}

TEST_F(SystemTest, AddFileMaintainsIndexesIncrementally) {
  // Mutations after BuildIndexes no longer invalidate: the new file is
  // parsed on its own and spliced into the live indexes.
  EXPECT_TRUE(system_->indexes_built());
  const char* extra =
      "@INCOLLECTION{Ref9,\n"
      "  AUTHOR = \"Z. Chang\",\n  TITLE = \"Incremental\",\n"
      "  BOOKTITLE = \"B\",\n  YEAR = \"1995\",\n"
      "  EDITOR = \"E. Editor\",\n  PUBLISHER = \"P\",\n"
      "  ADDRESS = \"A\",\n  PAGES = \"1--2\",\n"
      "  REFERRED = \"\",\n  KEYWORDS = \"k\",\n"
      "  ABSTRACT = \"x\"\n}\n";
  ASSERT_TRUE(system_->AddFile("more.bib", extra).ok());
  EXPECT_TRUE(system_->indexes_built());
  EXPECT_EQ(system_->index_generation(), 1u);
  QueryResult r = Run("SELECT r FROM References r");
  EXPECT_EQ(r.regions.size(), 5u);
  // The stats note the maintenance state.
  bool noted = false;
  for (const std::string& note : r.stats.notes) {
    noted = noted || note.find("generation 1") != std::string::npos;
  }
  EXPECT_TRUE(noted);
}

TEST_F(SystemTest, PlanInspection) {
  auto plan = system_->Plan(
      "SELECT r FROM References r "
      "WHERE r.Authors.Name.Last_Name = \"Chang\"");
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->exact);
  EXPECT_FALSE(plan->notes.empty());
}

TEST_F(SystemTest, MultipleFilesActAsOneView) {
  // A second file with one more Chang-author reference; the view spans
  // both files (the paper's shared-bibliographies scenario, §2).
  const char* extra =
      "@INCOLLECTION{Ref4,\n"
      "  AUTHOR = \"Z. Chang\",\n  TITLE = \"More Files\",\n"
      "  BOOKTITLE = \"B\",\n  YEAR = \"1991\",\n"
      "  EDITOR = \"E. Editor\",\n  PUBLISHER = \"P\",\n"
      "  ADDRESS = \"A\",\n  PAGES = \"1--2\",\n"
      "  REFERRED = \"\",\n  KEYWORDS = \"k\",\n"
      "  ABSTRACT = \"x\"\n}\n";
  ASSERT_TRUE(system_->AddFile("more.bib", extra).ok());
  ASSERT_TRUE(system_->BuildIndexes().ok());
  QueryResult r = Run(
      "SELECT r FROM References r "
      "WHERE r.Authors.Name.Last_Name = \"Chang\"");
  EXPECT_EQ(Keys(r), (std::set<std::string>{"Ref0", "Ref3", "Ref4"}));
  // Regions resolve to the correct documents.
  bool found_second_file = false;
  for (const Region& reg : r.regions) {
    auto doc = system_->corpus().DocumentAt(reg.start);
    ASSERT_TRUE(doc.ok());
    found_second_file =
        found_second_file ||
        system_->corpus().document_name(*doc) == "more.bib";
  }
  EXPECT_TRUE(found_second_file);
  QueryResult base = Run(
      "SELECT r FROM References r "
      "WHERE r.Authors.Name.Last_Name = \"Chang\"",
      ExecutionMode::kBaseline);
  EXPECT_EQ(Keys(base), Keys(r));
}

TEST_F(SystemTest, ExplainDescribesPlan) {
  const char* fql =
      "SELECT r FROM References r "
      "WHERE r.Authors.Name.Last_Name = \"Chang\"";
  auto text = system_->Explain(fql);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("index-only"), std::string::npos) << *text;
  EXPECT_NE(text->find("candidates:"), std::string::npos);
  EXPECT_NE(text->find("work units"), std::string::npos);
  EXPECT_NE(text->find("exact:      yes"), std::string::npos);

  // The figures are the cost annotation of the candidates root in the
  // lowering before any optimizer pass runs.
  auto plan = system_->Plan(fql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  IrProgram ir =
      LowerToIr(plan->candidates.get(), nullptr, nullptr, nullptr);
  AnnotateIrCosts(&ir, &system_->region_index(), &system_->word_index());
  const IrNode& root = ir.nodes[ir.candidates];
  ASSERT_GT(root.est_work, 0);
  const std::string figures =
      "~" + std::to_string(static_cast<long long>(root.est_cardinality)) +
      " regions, ~" +
      std::to_string(static_cast<long long>(root.est_work)) +
      " work units\n";
  EXPECT_NE(text->find("            " + figures), std::string::npos)
      << *text << "want: " << figures;

  auto join = system_->Explain(
      "SELECT r FROM References r "
      "WHERE r.Editors.Name = r.Authors.Name");
  ASSERT_TRUE(join.ok());
  EXPECT_NE(join->find("index-join"), std::string::npos) << *join;

  auto empty = system_->Explain(
      "SELECT r FROM References r WHERE r.Key.*X.Last_Name = \"x\"");
  ASSERT_TRUE(empty.ok());
  EXPECT_NE(empty->find("empty"), std::string::npos);
}

TEST_F(SystemTest, IndexBytesSmallerForPartial) {
  uint64_t full = system_->IndexBytes();
  EXPECT_GT(system_->index_build_micros(), 0u);
  ASSERT_TRUE(system_
                  ->BuildIndexes(IndexSpec::Partial(
                      {"Reference", "Key", "Last_Name"}))
                  .ok());
  uint64_t partial = system_->IndexBytes();
  EXPECT_LT(partial, full);
  EXPECT_GT(partial, 0u);
}

}  // namespace
}  // namespace qof
