#include "qof/maintain/maintainer.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qof/datagen/bibtex_gen.h"
#include "qof/datagen/schemas.h"
#include "qof/engine/system.h"
#include "qof/exec/fault_injector.h"
#include "qof/store/store_format.h"

namespace qof {
namespace {

constexpr const char* kFlagship =
    "SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "
    "\"Chang\"";
constexpr const char* kProjection =
    "SELECT r.Title FROM References r "
    "WHERE r.Authors.Name.Last_Name = \"Chang\"";

std::string MakeRef(const std::string& key, const std::string& author,
                    const std::string& title) {
  return "@INCOLLECTION{" + key + ",\n  AUTHOR = \"" + author +
         "\",\n  TITLE = \"" + title +
         "\",\n  BOOKTITLE = \"B\",\n  YEAR = \"1994\",\n"
         "  EDITOR = \"E. Editor\",\n  PUBLISHER = \"P\",\n"
         "  ADDRESS = \"A\",\n  PAGES = \"1--2\",\n"
         "  REFERRED = \"\",\n  KEYWORDS = \"k\",\n"
         "  ABSTRACT = \"x\"\n}\n";
}

class MaintainerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = BibtexSchema();
    ASSERT_TRUE(schema.ok());
    system_ = std::make_unique<FileQuerySystem>(*schema);
    system_->SetParallelism(1);
    ASSERT_TRUE(
        system_->AddFile("a.bib", MakeRef("RefA", "Y. Chang", "Alpha"))
            .ok());
    ASSERT_TRUE(
        system_->AddFile("b.bib", MakeRef("RefB", "T. Milo", "Beta")).ok());
    ASSERT_TRUE(
        system_->AddFile("c.bib", MakeRef("RefC", "Q. Chang", "Gamma"))
            .ok());
    ASSERT_TRUE(system_->BuildIndexes(IndexSpec::Full()).ok());
  }

  /// A from-scratch system over the maintained system's current live
  /// documents, in their physical (last-touched) order.
  std::unique_ptr<FileQuerySystem> FreshRebuild() {
    auto schema = BibtexSchema();
    EXPECT_TRUE(schema.ok());
    auto fresh = std::make_unique<FileQuerySystem>(*schema);
    fresh->SetParallelism(1);
    const Corpus& corpus = system_->corpus();
    for (DocId id = 0; id < corpus.num_documents(); ++id) {
      if (!corpus.is_live(id)) continue;
      EXPECT_TRUE(fresh
                      ->AddFile(corpus.document_name(id),
                                corpus.RawText(corpus.document_start(id),
                                               corpus.document_end(id)))
                      .ok());
    }
    EXPECT_TRUE(fresh->BuildIndexes(system_->index_spec()).ok());
    return fresh;
  }

  /// Asserts the maintained system, once compacted, is byte-identical to
  /// a fresh build (modulo the persisted generation).
  void ExpectMatchesRebuildAfterCompaction() {
    auto fresh = FreshRebuild();
    ASSERT_TRUE(system_->CompactIndexes().ok());
    auto maintained_store = system_->ExportIndexes();
    auto fresh_store = fresh->ExportIndexes();
    ASSERT_TRUE(maintained_store.ok())
        << maintained_store.status().ToString();
    ASSERT_TRUE(fresh_store.ok()) << fresh_store.status().ToString();
    EXPECT_TRUE(SameStoreIgnoringGeneration(*maintained_store, *fresh_store));
  }

  /// Asserts query *values* match a fresh rebuild right now, without
  /// compacting (pre-compaction layouts differ, so regions may not).
  void ExpectValuesMatchRebuild(const char* fql) {
    auto fresh = FreshRebuild();
    auto maintained = system_->Execute(fql);
    auto rebuilt = fresh->Execute(fql);
    ASSERT_TRUE(maintained.ok()) << maintained.status().ToString();
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
    EXPECT_EQ(maintained->RenderedValues(), rebuilt->RenderedValues());
    EXPECT_EQ(maintained->regions.size(), rebuilt->regions.size());
  }

  std::unique_ptr<FileQuerySystem> system_;
};

TEST_F(MaintainerTest, AddDocumentMatchesRebuild) {
  ASSERT_TRUE(
      system_->AddFile("d.bib", MakeRef("RefD", "Z. Chang", "Delta")).ok());
  EXPECT_EQ(system_->index_generation(), 1u);
  ExpectValuesMatchRebuild(kProjection);
  ExpectMatchesRebuildAfterCompaction();
}

TEST_F(MaintainerTest, UpdateDocumentMatchesRebuild) {
  ASSERT_TRUE(
      system_->UpdateFile("b.bib", MakeRef("RefB", "T. Chang", "Beta Two"))
          .ok());
  ExpectValuesMatchRebuild(kProjection);
  ExpectMatchesRebuildAfterCompaction();
}

TEST_F(MaintainerTest, RemoveDocumentMatchesRebuild) {
  ASSERT_TRUE(system_->RemoveFile("a.bib").ok());
  ExpectValuesMatchRebuild(kProjection);
  ExpectMatchesRebuildAfterCompaction();
}

TEST_F(MaintainerTest, MixedSequenceMatchesRebuild) {
  ASSERT_TRUE(
      system_->AddFile("d.bib", MakeRef("RefD", "Z. Chang", "Delta")).ok());
  ASSERT_TRUE(
      system_->UpdateFile("a.bib", MakeRef("RefA", "Y. Milo", "Alpha Two"))
          .ok());
  ASSERT_TRUE(system_->RemoveFile("c.bib").ok());
  ASSERT_TRUE(
      system_->UpdateFile("d.bib", MakeRef("RefD", "Z. Chang", "Delta Two"))
          .ok());
  ASSERT_TRUE(
      system_->AddFile("c.bib", MakeRef("RefE", "M. Consens", "Epsilon"))
          .ok());
  EXPECT_EQ(system_->index_generation(), 5u);
  ExpectValuesMatchRebuild(kFlagship);
  ExpectValuesMatchRebuild(kProjection);
  ExpectMatchesRebuildAfterCompaction();
}

TEST_F(MaintainerTest, UpdateToEmptyDocument) {
  ASSERT_TRUE(system_->UpdateFile("b.bib", "").ok());
  auto r = system_->Execute("SELECT r FROM References r");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->regions.size(), 2u);
  ExpectValuesMatchRebuild(kProjection);
  ExpectMatchesRebuildAfterCompaction();
}

TEST_F(MaintainerTest, RemoveLastDocumentKeepsNamesRegistered) {
  ASSERT_TRUE(system_->RemoveFile("a.bib").ok());
  ASSERT_TRUE(system_->RemoveFile("b.bib").ok());
  ASSERT_TRUE(system_->RemoveFile("c.bib").ok());
  // "Indexed but absent" must survive: queries answer empty rather than
  // erroring on unregistered region names.
  EXPECT_TRUE(system_->region_index().Has("Reference"));
  auto r = system_->Execute(kFlagship);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->regions.empty());
  ASSERT_TRUE(system_->CompactIndexes().ok());
  EXPECT_TRUE(system_->region_index().Has("Reference"));
  auto after = system_->Execute(kFlagship);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_TRUE(after->regions.empty());
  // And the corpus can grow again.
  ASSERT_TRUE(
      system_->AddFile("a.bib", MakeRef("RefA", "Y. Chang", "Alpha")).ok());
  auto regrown = system_->Execute(kFlagship);
  ASSERT_TRUE(regrown.ok());
  EXPECT_EQ(regrown->regions.size(), 1u);
}

TEST_F(MaintainerTest, ParallelMaintenanceIsByteIdentical) {
  // The same mutation sequence under parallelism 1 and N must produce
  // identical stores (compaction rebases region sets and posting lists on
  // the pool).
  auto run = [](int parallelism) {
    auto schema = BibtexSchema();
    EXPECT_TRUE(schema.ok());
    FileQuerySystem sys(*schema);
    sys.SetParallelism(parallelism);
    EXPECT_TRUE(
        sys.AddFile("a.bib", MakeRef("RefA", "Y. Chang", "Alpha")).ok());
    EXPECT_TRUE(
        sys.AddFile("b.bib", MakeRef("RefB", "T. Milo", "Beta")).ok());
    EXPECT_TRUE(sys.BuildIndexes(IndexSpec::Full()).ok());
    EXPECT_TRUE(
        sys.AddFile("c.bib", MakeRef("RefC", "Q. Chang", "Gamma")).ok());
    EXPECT_TRUE(
        sys.UpdateFile("a.bib", MakeRef("RefA", "Y. Milo", "Alpha Two"))
            .ok());
    EXPECT_TRUE(sys.RemoveFile("b.bib").ok());
    EXPECT_TRUE(sys.CompactIndexes().ok());
    auto store = sys.ExportIndexes();
    EXPECT_TRUE(store.ok());
    return store.ok() ? *store : std::string();
  };
  EXPECT_EQ(run(1), run(4));
}

TEST_F(MaintainerTest, AutoCompactionTriggersOnTombstones) {
  MaintainOptions options;
  options.max_tombstones = 3;
  options.max_dead_fraction = 1.0;  // isolate the tombstone threshold
  system_->SetMaintainOptions(options);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        system_
            ->UpdateFile("b.bib", MakeRef("RefB", "T. Milo",
                                          "Beta " + std::to_string(i)))
            .ok());
  }
  MaintainStats stats = system_->maintain_stats();
  EXPECT_GE(stats.compactions, 1u);
  EXPECT_EQ(stats.tombstones, 0u);  // compaction folded them away
  ExpectMatchesRebuildAfterCompaction();
}

TEST_F(MaintainerTest, AutoCompactionTriggersOnDeadBytes) {
  MaintainOptions options;
  options.max_tombstones = 1000;
  options.max_dead_fraction = 0.3;  // isolate the dead-byte threshold
  system_->SetMaintainOptions(options);
  ASSERT_TRUE(system_->RemoveFile("a.bib").ok());
  ASSERT_TRUE(system_->RemoveFile("b.bib").ok());
  EXPECT_GE(system_->maintain_stats().compactions, 1u);
}

TEST_F(MaintainerTest, StatsCountOnlyTheTouchedDocument) {
  uint64_t touched = MakeRef("RefB", "T. Chang", "Beta Two").size();
  ASSERT_TRUE(
      system_->UpdateFile("b.bib", MakeRef("RefB", "T. Chang", "Beta Two"))
          .ok());
  MaintainStats stats = system_->maintain_stats();
  EXPECT_EQ(stats.docs_reparsed, 1u);
  EXPECT_EQ(stats.bytes_reparsed, touched);
  EXPECT_EQ(stats.generation, 1u);
  EXPECT_EQ(stats.live_documents, 3u);
  EXPECT_EQ(stats.tombstones, 1u);
  EXPECT_EQ(stats.delta_segments, 1u);
}

TEST_F(MaintainerTest, FailedMutationLeavesStateUntouched) {
  auto before = system_->Execute(kFlagship);
  ASSERT_TRUE(before.ok());
  // Unparsable bibtex: the update must be rejected atomically.
  EXPECT_FALSE(system_->UpdateFile("b.bib", "@GARBAGE{{{").ok());
  EXPECT_FALSE(system_->RemoveFile("nope.bib").ok());
  EXPECT_FALSE(
      system_->AddFile("a.bib", MakeRef("RefX", "X", "Dup")).ok());
  EXPECT_EQ(system_->index_generation(), 0u);
  auto after = system_->Execute(kFlagship);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->RenderedValues(), before->RenderedValues());
  EXPECT_EQ(after->regions.size(), before->regions.size());
}

TEST_F(MaintainerTest, CompactDetectsDroppedTombstone) {
  MaintainOptions options;
  options.auto_compact = false;
  system_->SetMaintainOptions(options);
  {
    ScopedFaultInjector planted({planted_bug::kDropTombstone, 1});
    ASSERT_TRUE(system_->RemoveFile("a.bib").ok());
    EXPECT_TRUE(planted.injector().fired());
  }
  Status s = system_->CompactIndexes();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("tombstone"), std::string::npos)
      << s.message();
}

TEST(MaintainerCompactTest, CompactDetectsStalePostingWithNothingMutated) {
  // Regions spliced right but postings left behind in the tombstoned
  // span: only compaction's posting check can catch this, and it must
  // fail before anything is written.
  auto schema = BibtexSchema();
  ASSERT_TRUE(schema.ok());
  Corpus corpus;
  ASSERT_TRUE(
      corpus.AddDocument("a.bib", MakeRef("RefA", "Y. Chang", "Alpha")).ok());
  ASSERT_TRUE(
      corpus.AddDocument("b.bib", MakeRef("RefB", "T. Milo", "Beta")).ok());
  auto built = BuildIndexes(*schema, corpus, IndexSpec::Full());
  ASSERT_TRUE(built.ok());
  MaintainOptions options;
  options.auto_compact = false;
  IndexMaintainer maintainer(&*schema, IndexSpec::Full(), options);
  const WordIndex words_before_removal = built->words;
  ASSERT_TRUE(maintainer.RemoveDocument({&corpus, &*built}, "a.bib").ok());
  built->words = words_before_removal;  // a.bib's postings survive
  const RegionSet refs = **built->regions.Get("Reference");
  const std::vector<TextPos> chang = built->words.Lookup("Chang");
  ASSERT_FALSE(chang.empty());
  const TextPos size = corpus.size();

  Status s = maintainer.Compact({&corpus, &*built});
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("word posting"), std::string::npos)
      << s.message();
  EXPECT_TRUE(corpus.fragmented());
  EXPECT_EQ(corpus.size(), size);
  EXPECT_EQ(**built->regions.Get("Reference"), refs);
  EXPECT_EQ(built->words.Lookup("Chang"), chang);
  EXPECT_EQ(maintainer.stats(corpus).compactions, 0u);
}

TEST_F(MaintainerTest, ExportCompactsFragmentedCorpus) {
  MaintainOptions options;
  options.auto_compact = false;
  system_->SetMaintainOptions(options);
  ASSERT_TRUE(system_->RemoveFile("b.bib").ok());
  EXPECT_GT(system_->maintain_stats().tombstones, 0u);
  auto store = system_->ExportIndexes();
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(system_->maintain_stats().tombstones, 0u);
  // The exported store equals a fresh rebuild's.
  auto fresh_store = FreshRebuild()->ExportIndexes();
  ASSERT_TRUE(fresh_store.ok());
  EXPECT_TRUE(SameStoreIgnoringGeneration(*store, *fresh_store));
}

TEST_F(MaintainerTest, ManyGenerationsConverge) {
  // A longer scripted churn: every fifth mutation removes, the rest
  // alternate adds and updates; compaction thresholds left at defaults.
  int added = 0;
  for (int i = 0; i < 40; ++i) {
    std::string name = "gen" + std::to_string(i % 7) + ".bib";
    std::string ref = MakeRef("G" + std::to_string(i),
                              i % 3 == 0 ? "Y. Chang" : "T. Milo",
                              "T" + std::to_string(i));
    if (i % 5 == 4) {
      Status s = system_->RemoveFile(name);
      (void)s;  // may be NotFound when the slot is empty — fine
    } else if (system_->corpus().FindDocument(name).ok()) {
      ASSERT_TRUE(system_->UpdateFile(name, ref).ok());
    } else {
      ASSERT_TRUE(system_->AddFile(name, ref).ok());
      ++added;
    }
  }
  ASSERT_GT(added, 0);
  ExpectValuesMatchRebuild(kFlagship);
  ExpectMatchesRebuildAfterCompaction();
}

}  // namespace
}  // namespace qof
