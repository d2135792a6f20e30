#include "qof/maintain/journal.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qof/datagen/schemas.h"
#include "qof/engine/index_io.h"
#include "qof/engine/indexer.h"
#include "qof/engine/system.h"
#include "qof/maintain/maintainer.h"

namespace qof {
namespace {

std::string Ref(const std::string& key, const std::string& author) {
  return "@INCOLLECTION{" + key + ",\n  AUTHOR = \"" + author +
         "\",\n  TITLE = \"T\",\n  BOOKTITLE = \"B\",\n  YEAR = \"1994\",\n"
         "  EDITOR = \"E\",\n  PUBLISHER = \"P\",\n  ADDRESS = \"A\",\n"
         "  PAGES = \"1--2\",\n  REFERRED = \"\",\n  KEYWORDS = \"k\",\n"
         "  ABSTRACT = \"x\"\n}\n";
}

std::vector<JournalRecord> SampleRecords() {
  return {
      {1, JournalOp::kAdd, "d.bib", Ref("RefD", "Z. Chang")},
      {2, JournalOp::kUpdate, "a.bib", Ref("RefA", "Y. Milo")},
      {3, JournalOp::kRemove, "b.bib", ""},
  };
}

std::string EncodeAll(const std::vector<JournalRecord>& records) {
  std::string data = JournalHeader();
  for (const JournalRecord& r : records) data += EncodeJournalRecord(r);
  return data;
}

TEST(JournalTest, RoundTrip) {
  std::vector<JournalRecord> records = SampleRecords();
  std::string data = EncodeAll(records);
  auto parsed = ParseJournal(data);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_FALSE(parsed->truncated_tail);
  EXPECT_EQ(parsed->valid_bytes, data.size());
  EXPECT_EQ(parsed->records, records);
}

TEST(JournalTest, EmptyJournalIsJustTheHeader) {
  auto parsed = ParseJournal(JournalHeader());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->records.empty());
  EXPECT_FALSE(parsed->truncated_tail);
}

TEST(JournalTest, BadMagicRejected) {
  EXPECT_FALSE(ParseJournal("").ok());
  EXPECT_FALSE(ParseJournal("QOFJRNL9junkjunk").ok());
  EXPECT_FALSE(ParseJournal("not a journal at all").ok());
}

TEST(JournalTest, TruncatedTailDiscardedAtEveryCut) {
  // A crash mid-append tears the last frame at an arbitrary byte. Every
  // cut inside the final frame must yield the intact prefix, flagged.
  std::vector<JournalRecord> records = SampleRecords();
  std::string data = EncodeAll(records);
  std::string prefix =
      EncodeAll({records[0], records[1]});  // intact part
  for (size_t cut = prefix.size() + 1; cut < data.size(); ++cut) {
    auto parsed = ParseJournal(data.substr(0, cut));
    ASSERT_TRUE(parsed.ok()) << "cut at " << cut;
    EXPECT_TRUE(parsed->truncated_tail) << "cut at " << cut;
    EXPECT_EQ(parsed->records.size(), 2u) << "cut at " << cut;
    EXPECT_EQ(parsed->valid_bytes, prefix.size()) << "cut at " << cut;
  }
}

TEST(JournalTest, CorruptTailChecksumDiscarded) {
  std::vector<JournalRecord> records = SampleRecords();
  std::string data = EncodeAll(records);
  data.back() ^= 0x5a;  // flip a payload byte of the final record
  auto parsed = ParseJournal(data);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->truncated_tail);
  EXPECT_EQ(parsed->records.size(), 2u);
}

class JournalReplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = BibtexSchema();
    ASSERT_TRUE(schema.ok());
    schema_ = std::make_unique<StructuringSchema>(*schema);
  }

  /// A corpus + built indexes + maintainer over the three seed docs.
  struct Maintained {
    Corpus corpus;
    BuiltIndexes built;
    std::unique_ptr<IndexMaintainer> maintainer;
  };

  std::unique_ptr<Maintained> Seed() {
    auto m = std::make_unique<Maintained>();
    EXPECT_TRUE(
        m->corpus.AddDocument("a.bib", Ref("RefA", "Y. Chang")).ok());
    EXPECT_TRUE(
        m->corpus.AddDocument("b.bib", Ref("RefB", "T. Milo")).ok());
    EXPECT_TRUE(
        m->corpus.AddDocument("c.bib", Ref("RefC", "Q. Chang")).ok());
    auto built = BuildIndexes(*schema_, m->corpus, IndexSpec::Full());
    EXPECT_TRUE(built.ok());
    m->built = std::move(*built);
    MaintainOptions options;
    options.auto_compact = false;
    m->maintainer = std::make_unique<IndexMaintainer>(
        schema_.get(), &m->corpus, &m->built, IndexSpec::Full(), options);
    return m;
  }

  std::unique_ptr<StructuringSchema> schema_;
};

TEST_F(JournalReplayTest, ReplayReproducesDirectMutations) {
  auto replayed = Seed();
  ASSERT_TRUE(
      ReplayJournal(SampleRecords(), replayed->maintainer.get()).ok());
  EXPECT_EQ(replayed->maintainer->generation(), 3u);

  auto direct = Seed();
  ASSERT_TRUE(
      direct->maintainer->AddDocument("d.bib", Ref("RefD", "Z. Chang"))
          .ok());
  ASSERT_TRUE(
      direct->maintainer->UpdateDocument("a.bib", Ref("RefA", "Y. Milo"))
          .ok());
  ASSERT_TRUE(direct->maintainer->RemoveDocument("b.bib").ok());

  ASSERT_TRUE(replayed->maintainer->Compact().ok());
  ASSERT_TRUE(direct->maintainer->Compact().ok());
  auto replayed_store = EncodeIndexStore(replayed->built, IndexSpec::Full(),
                                         replayed->corpus, 3);
  auto direct_store = EncodeIndexStore(direct->built, IndexSpec::Full(),
                                       direct->corpus, 3);
  ASSERT_TRUE(replayed_store.ok());
  ASSERT_TRUE(direct_store.ok());
  EXPECT_EQ(*replayed_store, *direct_store);
}

TEST_F(JournalReplayTest, ReplayRejectsGenerationGap) {
  auto m = Seed();
  std::vector<JournalRecord> gapped = {
      {2, JournalOp::kAdd, "d.bib", Ref("RefD", "Z. Chang")},
  };
  Status s = ReplayJournal(gapped, m->maintainer.get());
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("generation"), std::string::npos);
}

TEST_F(JournalReplayTest, ReplayStopsOnFailedRecord) {
  auto m = Seed();
  std::vector<JournalRecord> bad = {
      {1, JournalOp::kRemove, "missing.bib", ""},
  };
  EXPECT_FALSE(ReplayJournal(bad, m->maintainer.get()).ok());
}

TEST_F(JournalReplayTest, SyntheticDocumentsBlockCompactionUntilDead) {
  // Journal replay onto a store-restored corpus zero-fills document bytes
  // it does not have. Such documents must not be folded into a compacted
  // layout — but once the journal replaces or removes them, compaction
  // proceeds.
  auto m = Seed();
  m->maintainer->MarkDocumentSynthetic(0);  // a.bib's bytes are fake
  EXPECT_TRUE(m->maintainer->HasLiveSyntheticDocuments());
  EXPECT_FALSE(m->maintainer->NeedsCompaction());
  ASSERT_TRUE(m->maintainer->RemoveDocument("b.bib").ok());
  Status s = m->maintainer->Compact();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("placeholder"), std::string::npos);
  // Updating the synthetic document with real bytes clears the block.
  ASSERT_TRUE(
      m->maintainer->UpdateDocument("a.bib", Ref("RefA", "Y. Chang")).ok());
  EXPECT_FALSE(m->maintainer->HasLiveSyntheticDocuments());
  EXPECT_TRUE(m->maintainer->Compact().ok());
}

}  // namespace
}  // namespace qof
