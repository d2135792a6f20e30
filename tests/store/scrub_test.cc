// Offline scrub/repair of paged stores: damage mapping (page → section →
// index instances → documents), the repairable-vs-fatal divide, and the
// salvage path (quarantine + rebuild from surviving streams) the
// qof_store CLI exposes.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qof/datagen/bibtex_gen.h"
#include "qof/datagen/schemas.h"
#include "qof/engine/system.h"
#include "qof/store/page.h"
#include "qof/store/paged_file.h"
#include "qof/store/paged_store.h"
#include "qof/store/scrub.h"
#include "qof/store/store_format.h"
#include "temp_path.h"

namespace qof {
namespace {

class ScrubTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = BibtexSchema();
    ASSERT_TRUE(schema.ok());
    BibtexGenOptions gen;
    gen.num_references = 40;
    system_ = std::make_unique<FileQuerySystem>(*schema);
    ASSERT_TRUE(system_->AddFile("gen.bib", GenerateBibtex(gen)).ok());
    ASSERT_TRUE(system_->BuildIndexes(IndexSpec::Full()).ok());
  }

  /// Saves a fresh store with tiny pages (so each section spans several)
  /// and returns its path plus the decoded meta.
  std::string Save(const std::string& name, StoreMeta* meta) {
    const std::string path = TempPath(name);
    EXPECT_TRUE(system_->SaveStore(path, /*page_size=*/256).ok());
    auto head = ReadFilePrefix(path, kMinStorePageSize);
    EXPECT_TRUE(head.ok());
    auto header = ParsePage(*head, kMinStorePageSize, 0);
    EXPECT_TRUE(header.ok());
    auto decoded = DecodeStoreMeta(
        std::string_view(*head).substr(kPageHeaderSize,
                                       header->payload_len));
    EXPECT_TRUE(decoded.ok());
    *meta = *decoded;
    return path;
  }

  /// Flips one payload byte inside page `page_no`.
  void CorruptPage(const std::string& path, uint32_t page_no) {
    auto bytes = ReadFileBytes(path);
    ASSERT_TRUE(bytes.ok());
    std::string damaged = *bytes;
    damaged[page_no * 256 + kPageHeaderSize + 7] ^= 0x11;
    ASSERT_TRUE(WriteFileBytes(path, damaged).ok());
  }

  std::unique_ptr<FileQuerySystem> system_;
};

TEST_F(ScrubTest, CleanStoreScrubsCleanAndRepairIsANoOp) {
  StoreMeta meta;
  const std::string path = Save("clean.qofstore", &meta);
  auto report = ScrubStore(path);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->clean());
  EXPECT_TRUE(report->meta_ok);
  EXPECT_TRUE(report->structural_ok);
  EXPECT_TRUE(report->damaged_pages.empty());
  EXPECT_EQ(report->pages_total,
            ReadFileBytes(path)->size() / 256);
  EXPECT_FALSE(FormatScrubReport(*report).empty());

  auto repair = RepairStore(path);
  ASSERT_TRUE(repair.ok()) << repair.status().ToString();
  EXPECT_TRUE(repair->quarantine_path.empty());
  EXPECT_TRUE(repair->dropped.empty());
}

TEST_F(ScrubTest, PostingsDamageIsMappedAndRepairable) {
  StoreMeta meta;
  const std::string path = Save("postings.qofstore", &meta);
  const SectionInfo& postings = meta.section(StoreSection::kPostings);
  ASSERT_GT(postings.num_pages, 1u);
  const uint32_t victim = postings.first_page + postings.num_pages / 2;
  CorruptPage(path, victim);

  auto report = ScrubStore(path);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->clean());
  ASSERT_EQ(report->damaged_pages.size(), 1u);
  EXPECT_EQ(report->damaged_pages[0].page_no, victim);
  EXPECT_EQ(report->damaged_pages[0].section, "postings");
  EXPECT_TRUE(report->structural_ok);
  EXPECT_TRUE(report->repairable());
  // The damage maps to concrete index instances (the streams crossing
  // the damaged page), not just a page number.
  EXPECT_FALSE(report->damaged_instances.empty());

  auto repair = RepairStore(path);
  ASSERT_TRUE(repair.ok()) << repair.status().ToString();
  EXPECT_EQ(repair->quarantine_path, path + ".quarantined");
  EXPECT_TRUE(ReadFileBytes(repair->quarantine_path).ok());
  EXPECT_FALSE(repair->dropped.empty());

  // The rebuilt store verifies clean and opens.
  auto rescrubbed = ScrubStore(path);
  ASSERT_TRUE(rescrubbed.ok());
  EXPECT_TRUE(rescrubbed->clean()) << FormatScrubReport(*rescrubbed);
  EXPECT_TRUE(PagedStore::Open(path, {}).ok());
}

TEST_F(ScrubTest, StructuralDamageIsFatalNotRepairable) {
  StoreMeta meta;
  const std::string path = Save("structural.qofstore", &meta);
  const SectionInfo& doc_table = meta.section(StoreSection::kDocTable);
  ASSERT_GT(doc_table.num_pages, 0u);
  CorruptPage(path, doc_table.first_page);

  auto report = ScrubStore(path);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->clean());
  EXPECT_FALSE(report->structural_ok);
  EXPECT_FALSE(report->repairable());

  auto repair = RepairStore(path);
  ASSERT_FALSE(repair.ok());
  EXPECT_TRUE(repair.status().IsDataLoss()) << repair.status().ToString();
  // The damaged original is left in place, untouched.
  EXPECT_TRUE(ReadFileBytes(path).ok());
  EXPECT_FALSE(ReadFileBytes(path + ".quarantined").ok());
}

TEST_F(ScrubTest, UnreadableMetaPageIsReportedNotThrown) {
  StoreMeta meta;
  const std::string path = Save("meta.qofstore", &meta);
  CorruptPage(path, 0);
  auto report = ScrubStore(path);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->meta_ok);
  EXPECT_FALSE(report->clean());
  EXPECT_FALSE(report->repairable());
}

}  // namespace
}  // namespace qof
