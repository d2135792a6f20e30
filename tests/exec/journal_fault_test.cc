// Journal fault tolerance under injected failures: an append that dies
// mid-frame leaves a torn tail ParseJournal detects and discards, and a
// replay aborted mid-record stops at a record boundary and resumes
// cleanly — the crash-recovery story the qof_index CLI depends on.

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qof/datagen/schemas.h"
#include "qof/engine/index_io.h"
#include "qof/engine/indexer.h"
#include "qof/exec/fault_injector.h"
#include "qof/maintain/journal.h"
#include "qof/maintain/maintainer.h"
#include "temp_path.h"

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

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class JournalFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = BibtexSchema();
    ASSERT_TRUE(schema.ok());
    schema_ = std::make_unique<StructuringSchema>(*schema);
    path_ = TempPath("journal.qofj");
    std::remove(path_.c_str());
  }

  void TearDown() override { std::remove(path_.c_str()); }

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
  std::string path_;
};

TEST_F(JournalFaultTest, InjectedAppendFailureTearsTheFrame) {
  std::vector<JournalRecord> records = SampleRecords();
  ASSERT_TRUE(AppendJournalRecordToFile(path_, records[0]).ok());

  {
    ScopedFaultInjector inject({fault_site::kJournalAppend, 1});
    Status s = AppendJournalRecordToFile(path_, records[1]);
    ASSERT_FALSE(s.ok());
    EXPECT_TRUE(inject.injector().fired());
  }

  // The simulated crash wrote half a frame. ParseJournal must hand back
  // the intact prefix and flag — not reject — the torn tail.
  std::string bytes = Slurp(path_);
  auto parsed = ParseJournal(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->truncated_tail);
  ASSERT_EQ(parsed->records.size(), 1u);
  EXPECT_EQ(parsed->records[0], records[0]);
  EXPECT_LT(parsed->valid_bytes, bytes.size());
}

TEST_F(JournalFaultTest, RecoveryAfterTornAppendReplaysCleanly) {
  std::vector<JournalRecord> records = SampleRecords();
  ASSERT_TRUE(AppendJournalRecordToFile(path_, records[0]).ok());
  {
    ScopedFaultInjector inject({fault_site::kJournalAppend, 1});
    ASSERT_FALSE(AppendJournalRecordToFile(path_, records[1]).ok());
  }

  // Recovery, as the CLI does it: discard the torn tail, then re-append
  // the failed record and the rest of the session.
  std::string bytes = Slurp(path_);
  auto parsed = ParseJournal(bytes);
  ASSERT_TRUE(parsed.ok());
  std::ofstream truncate(path_, std::ios::binary | std::ios::trunc);
  truncate << bytes.substr(0, parsed->valid_bytes);
  truncate.close();
  ASSERT_TRUE(AppendJournalRecordToFile(path_, records[1]).ok());
  ASSERT_TRUE(AppendJournalRecordToFile(path_, records[2]).ok());

  auto recovered = ParseJournal(Slurp(path_));
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(recovered->truncated_tail);
  EXPECT_EQ(recovered->records, records);

  // The recovered journal drives a replay byte-identical to applying the
  // mutations directly.
  auto replayed = Seed();
  ASSERT_TRUE(
      ReplayJournal(recovered->records, replayed->maintainer.get()).ok());
  auto direct = Seed();
  ASSERT_TRUE(
      direct->maintainer->AddDocument("d.bib", records[0].text).ok());
  ASSERT_TRUE(
      direct->maintainer->UpdateDocument("a.bib", records[1].text).ok());
  ASSERT_TRUE(direct->maintainer->RemoveDocument("b.bib").ok());
  ASSERT_TRUE(replayed->maintainer->Compact().ok());
  ASSERT_TRUE(direct->maintainer->Compact().ok());
  auto replayed_blob = SerializeIndexes(replayed->built, IndexSpec::Full(),
                                        replayed->corpus, 3);
  auto direct_blob = SerializeIndexes(direct->built, IndexSpec::Full(),
                                      direct->corpus, 3);
  ASSERT_TRUE(replayed_blob.ok());
  ASSERT_TRUE(direct_blob.ok());
  EXPECT_EQ(*replayed_blob, *direct_blob);
}

TEST_F(JournalFaultTest, InjectedReplayAbortStopsAtRecordBoundary) {
  std::vector<JournalRecord> records = SampleRecords();
  auto m = Seed();
  {
    ScopedFaultInjector inject({fault_site::kJournalReplay, 2});
    Status s = ReplayJournal(records, m->maintainer.get());
    ASSERT_FALSE(s.ok());
    EXPECT_TRUE(inject.injector().fired());
  }
  // Mutations are atomic: the abort landed between records, so exactly
  // the first one applied.
  EXPECT_EQ(m->maintainer->generation(), 1u);

  // Resuming with the remaining records completes the replay.
  std::vector<JournalRecord> rest(records.begin() + 1, records.end());
  ASSERT_TRUE(ReplayJournal(rest, m->maintainer.get()).ok());
  EXPECT_EQ(m->maintainer->generation(), 3u);

  auto direct = Seed();
  ASSERT_TRUE(
      direct->maintainer->AddDocument("d.bib", records[0].text).ok());
  ASSERT_TRUE(
      direct->maintainer->UpdateDocument("a.bib", records[1].text).ok());
  ASSERT_TRUE(direct->maintainer->RemoveDocument("b.bib").ok());
  ASSERT_TRUE(m->maintainer->Compact().ok());
  ASSERT_TRUE(direct->maintainer->Compact().ok());
  auto resumed_blob =
      SerializeIndexes(m->built, IndexSpec::Full(), m->corpus, 3);
  auto direct_blob = SerializeIndexes(direct->built, IndexSpec::Full(),
                                      direct->corpus, 3);
  ASSERT_TRUE(resumed_blob.ok());
  ASSERT_TRUE(direct_blob.ok());
  EXPECT_EQ(*resumed_blob, *direct_blob);
}

}  // namespace
}  // namespace qof
