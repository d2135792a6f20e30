// Engine-level tests of the disk-resident index tier: SaveStore/OpenStore
// round trips must answer byte-identically to the in-memory indexes they
// were saved from, across every strategy and parallelism;
// damage must fail loudly; governance must reach into the
// buffer pool; and concurrent snapshot readers must survive eviction.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <thread>
#include <vector>

#include "qof/datagen/bibtex_gen.h"
#include "qof/datagen/schemas.h"
#include "qof/engine/system.h"
#include "qof/fuzz/grammar_model.h"
#include "qof/schema/schema_text.h"
#include "qof/store/paged_file.h"
#include "qof/store/store_format.h"
#include "temp_path.h"

namespace qof {
namespace {

const char* const kQueries[] = {
    "SELECT r FROM References r WHERE r.Authors.Name.Last_Name = \"Chang\"",
    "SELECT r FROM References r WHERE r.Title CONTAINS \"search\"",
    "SELECT r.Authors.Name.Last_Name FROM References r "
    "WHERE r.Year = \"1993\"",
    "SELECT r FROM References r WHERE r.Keywords CONTAINS \"Taylor\" "
    "AND r.Authors.Name.Last_Name = \"Chang\"",
    "SELECT r.Title FROM References r",
};

/// Region spans + rendered projection values, order included — the
/// "byte-identical results" oracle.
std::string Fingerprint(const QueryResult& result) {
  std::string out;
  for (const Region& r : result.regions) {
    out += std::to_string(r.start) + ":" + std::to_string(r.end) + ";";
  }
  out += "|";
  for (const std::string& v : result.RenderedValues()) out += v + ";";
  return out;
}

class StoreSystemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = BibtexSchema();
    ASSERT_TRUE(schema.ok());
    BibtexGenOptions gen;
    gen.num_references = 60;
    gen.probe_author_rate = 0.2;
    text_ = GenerateBibtex(gen);
    system_ = std::make_unique<FileQuerySystem>(*schema);
    ASSERT_TRUE(system_->AddFile("gen.bib", text_).ok());
  }

  std::unique_ptr<FileQuerySystem> Fresh() {
    auto schema = BibtexSchema();
    auto fresh = std::make_unique<FileQuerySystem>(*schema);
    EXPECT_TRUE(fresh->AddFile("gen.bib", text_).ok());
    return fresh;
  }

  std::string text_;
  std::unique_ptr<FileQuerySystem> system_;
};

TEST_F(StoreSystemTest, OnDiskAnswersMatchInMemoryEverywhere) {
  ASSERT_TRUE(system_->BuildIndexes(IndexSpec::Full()).ok());
  const std::string path = TempPath("identical.qofstore");
  ASSERT_TRUE(system_->SaveStore(path).ok());

  auto disk = Fresh();
  ASSERT_TRUE(disk->OpenStore(path).ok());
  EXPECT_TRUE(disk->index_stats().disk_resident);

  const ExecutionMode modes[] = {
      ExecutionMode::kAuto, ExecutionMode::kIndexOnly,
      ExecutionMode::kTwoPhase, ExecutionMode::kBaseline};
  for (ExecutionMode mode : modes) {
    for (int threads : {1, 3}) {
      system_->SetParallelism(threads);
      disk->SetParallelism(threads);
      for (const char* fql : kQueries) {
        auto mem = system_->Execute(fql, mode);
        auto dsk = disk->Execute(fql, mode);
        ASSERT_TRUE(mem.ok()) << fql << ": " << mem.status().ToString();
        ASSERT_TRUE(dsk.ok()) << fql << ": " << dsk.status().ToString();
        EXPECT_EQ(Fingerprint(*mem), Fingerprint(*dsk))
            << fql << " mode=" << static_cast<int>(mode)
            << " threads=" << threads;
        EXPECT_EQ(mem->stats.strategy, dsk->stats.strategy) << fql;
      }
    }
  }
}

TEST_F(StoreSystemTest, SelectiveQueryReadsFewPagesCold) {
  ASSERT_TRUE(system_->BuildIndexes(IndexSpec::Full()).ok());
  const std::string path = TempPath("selective.qofstore");
  ASSERT_TRUE(system_->SaveStore(path).ok());
  auto size = ReadFileBytes(path);
  ASSERT_TRUE(size.ok());

  auto disk = Fresh();
  ASSERT_TRUE(disk->OpenStore(path).ok());
  // Open reads meta + fences + spec + doc table, not the index payload.
  auto open_stats = disk->index_stats();
  const uint32_t num_pages =
      static_cast<uint32_t>(size->size() / kDefaultPageSize);
  EXPECT_LT(open_stats.pool.pages_touched, num_pages / 2)
      << "open should not touch most of the file";

  auto r = disk->Execute(kQueries[0], ExecutionMode::kIndexOnly);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto query_stats = disk->index_stats();
  // A selective probe pages in a handful of dict/posting pages, far from
  // the whole file.
  EXPECT_LT(query_stats.pool.bytes_read, size->size())
      << "selective query read the entire store";
}

TEST_F(StoreSystemTest, SelectiveQueryStreamsWithoutMaterializing) {
  ASSERT_TRUE(system_->BuildIndexes(IndexSpec::Full()).ok());
  const std::string path = TempPath("streaming.qofstore");
  ASSERT_TRUE(system_->SaveStore(path).ok());

  auto disk = Fresh();
  ASSERT_TRUE(disk->OpenStore(path).ok());
  ASSERT_TRUE(disk->index_stats().disk_resident);

  // The sigma + enclosure chain must stream the region instances through
  // block-skipping cursors: answers match the in-memory system while the
  // instances themselves stay on disk.
  auto mem = system_->Execute(kQueries[0], ExecutionMode::kIndexOnly);
  auto dsk = disk->Execute(kQueries[0], ExecutionMode::kIndexOnly);
  ASSERT_TRUE(mem.ok()) << mem.status().ToString();
  ASSERT_TRUE(dsk.ok()) << dsk.status().ToString();
  EXPECT_EQ(Fingerprint(*mem), Fingerprint(*dsk));
  EXPECT_TRUE(disk->index_stats().disk_resident)
      << "selective query materialized the region instances";
}

TEST_F(StoreSystemTest, CorruptPostingPageFailsLoudlyOthersKeepAnswering) {
  ASSERT_TRUE(system_->BuildIndexes(IndexSpec::Full()).ok());
  const std::string path = TempPath("corrupt.qofstore");
  ASSERT_TRUE(system_->SaveStore(path).ok());

  // Flip one payload bit in the middle of the postings section.
  auto image = ReadFileBytes(path);
  ASSERT_TRUE(image.ok());
  auto header = ParsePage(
      std::string_view(*image).substr(0, kMinStorePageSize),
      kMinStorePageSize, 0);
  ASSERT_TRUE(header.ok());
  auto meta = DecodeStoreMeta(
      std::string_view(*image).substr(kPageHeaderSize, header->payload_len));
  ASSERT_TRUE(meta.ok());
  const SectionInfo& postings = meta->section(StoreSection::kPostings);
  ASSERT_GT(postings.num_pages, 0u);
  const uint32_t victim = postings.first_page + postings.num_pages / 2;
  std::string damaged = *image;
  damaged[static_cast<size_t>(victim) * kDefaultPageSize + kPageHeaderSize +
          3] ^= 0x10;
  const std::string bad_path = TempPath("corrupt-damaged.qofstore");
  ASSERT_TRUE(WriteFileBytes(bad_path, damaged).ok());

  // Open succeeds (postings page in lazily)...
  auto disk = Fresh();
  ASSERT_TRUE(disk->OpenStore(bad_path).ok());
  // ...and under kIndexOnly, some query that crosses the damaged page
  // fails loudly naming the checksum. Which queries hit it depends on
  // the layout, so probe them all and require at least one loud failure
  // while every success stays byte-identical to the truth.
  int failures = 0;
  for (const char* fql : kQueries) {
    auto truth = system_->Execute(fql, ExecutionMode::kIndexOnly);
    ASSERT_TRUE(truth.ok());
    auto r = disk->Execute(fql, ExecutionMode::kIndexOnly);
    if (r.ok()) {
      EXPECT_EQ(Fingerprint(*truth), Fingerprint(*r)) << fql;
    } else {
      ++failures;
      EXPECT_NE(r.status().message().find("checksum"), std::string::npos)
          << r.status().ToString();
    }
  }
  EXPECT_GT(failures, 0) << "no query crossed the damaged page";

  // The system that still holds in-memory indexes is untouched.
  auto after = system_->Execute(kQueries[0], ExecutionMode::kIndexOnly);
  EXPECT_TRUE(after.ok());
}

TEST_F(StoreSystemTest, DamagedHeaderLeavesPriorIndexesInstalled) {
  ASSERT_TRUE(system_->BuildIndexes(IndexSpec::Full()).ok());
  const std::string path = TempPath("header.qofstore");
  ASSERT_TRUE(system_->SaveStore(path).ok());
  auto image = ReadFileBytes(path);
  ASSERT_TRUE(image.ok());
  // Damage the meta page: OpenStore must fail and the built indexes must
  // keep answering (all-or-nothing, like ImportIndexes).
  std::string damaged = *image;
  damaged[kPageHeaderSize + 10] ^= 0x01;
  const std::string bad_path = TempPath("header-damaged.qofstore");
  ASSERT_TRUE(WriteFileBytes(bad_path, damaged).ok());

  auto before = system_->Execute(kQueries[0]);
  ASSERT_TRUE(before.ok());
  EXPECT_FALSE(system_->OpenStore(bad_path).ok());
  auto after = system_->Execute(kQueries[0]);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(Fingerprint(*before), Fingerprint(*after));
  EXPECT_EQ(system_->index_stats().source, "built");
}

TEST_F(StoreSystemTest, StaleCorpusIsRejectedByName) {
  ASSERT_TRUE(system_->BuildIndexes(IndexSpec::Full()).ok());
  const std::string path = TempPath("stale.qofstore");
  ASSERT_TRUE(system_->SaveStore(path).ok());

  auto schema = BibtexSchema();
  FileQuerySystem other(*schema);
  ASSERT_TRUE(other.AddFile("gen.bib", text_ + " ").ok());
  Status s = other.OpenStore(path);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("gen.bib"), std::string::npos) << s.message();
}

TEST_F(StoreSystemTest, MutationsForceResidencyAndKeepAnswering) {
  ASSERT_TRUE(system_->BuildIndexes(IndexSpec::Full()).ok());
  const std::string path = TempPath("mutate.qofstore");
  ASSERT_TRUE(system_->SaveStore(path).ok());

  auto disk = Fresh();
  ASSERT_TRUE(disk->OpenStore(path).ok());
  EXPECT_TRUE(disk->index_stats().disk_resident);

  // Mutating pages everything in, then splices — same answers as the
  // in-memory system receiving the same mutation.
  BibtexGenOptions gen;
  gen.num_references = 5;
  gen.seed = 99;
  const std::string extra = GenerateBibtex(gen);
  ASSERT_TRUE(system_->AddFile("extra.bib", extra).ok());
  ASSERT_TRUE(disk->AddFile("extra.bib", extra).ok());
  EXPECT_FALSE(disk->index_stats().disk_resident);
  EXPECT_EQ(disk->index_generation(), 1u);

  for (const char* fql : kQueries) {
    auto mem = system_->Execute(fql);
    auto dsk = disk->Execute(fql);
    ASSERT_TRUE(mem.ok()) << mem.status().ToString();
    ASSERT_TRUE(dsk.ok()) << dsk.status().ToString();
    EXPECT_EQ(Fingerprint(*mem), Fingerprint(*dsk)) << fql;
  }

  // And a store saved from the mutated system round-trips again.
  const std::string path2 = TempPath("mutate2.qofstore");
  ASSERT_TRUE(disk->SaveStore(path2).ok());
  auto reread = Fresh();
  ASSERT_TRUE(reread->AddFile("extra.bib", extra).ok());
  ASSERT_TRUE(reread->OpenStore(path2).ok());
  auto a = disk->Execute(kQueries[0]);
  auto b = reread->Execute(kQueries[0]);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(Fingerprint(*a), Fingerprint(*b));
}

TEST_F(StoreSystemTest, ExportAfterOpenMatchesOriginalExport) {
  ASSERT_TRUE(system_->BuildIndexes(IndexSpec::Full()).ok());
  auto blob = system_->ExportIndexes();
  ASSERT_TRUE(blob.ok());
  const std::string path = TempPath("reexport.qofstore");
  ASSERT_TRUE(system_->SaveStore(path).ok());

  // Open the store, force everything resident via export: the blob must
  // be byte-identical to the one the original in-memory system wrote.
  auto disk = Fresh();
  ASSERT_TRUE(disk->OpenStore(path).ok());
  auto reblob = disk->ExportIndexes();
  ASSERT_TRUE(reblob.ok()) << reblob.status().ToString();
  EXPECT_EQ(*blob, *reblob) << "paged round trip changed the index bytes";
}

TEST_F(StoreSystemTest, IndexStatsReportProvenance) {
  EXPECT_EQ(system_->index_stats().source, "none");
  EXPECT_FALSE(system_->index_stats().built);

  ASSERT_TRUE(system_->BuildIndexes(IndexSpec::Full()).ok());
  auto stats = system_->index_stats();
  EXPECT_TRUE(stats.built);
  EXPECT_EQ(stats.source, "built");
  EXPECT_FALSE(stats.disk_resident);

  // Importing a blob records its on-disk format.
  auto blob = system_->ExportIndexes();
  ASSERT_TRUE(blob.ok());
  auto disk = Fresh();
  ASSERT_TRUE(disk->ImportIndexes(*blob).ok());
  stats = disk->index_stats();
  EXPECT_EQ(stats.source, "blob-v3");
  EXPECT_FALSE(stats.disk_resident);

  // An open store reports "paged-store" and live pool counters.
  const std::string path = TempPath("stats.qofstore");
  ASSERT_TRUE(system_->SaveStore(path).ok());
  auto disk2 = Fresh();
  ASSERT_TRUE(disk2->OpenStore(path).ok());
  stats = disk2->index_stats();
  EXPECT_EQ(stats.source, "paged-store");
  EXPECT_TRUE(stats.disk_resident);
  EXPECT_GT(stats.pool.pages_touched, 0u);
}

TEST_F(StoreSystemTest, GovernanceReachesTheBufferPool) {
  ASSERT_TRUE(system_->BuildIndexes(IndexSpec::Full()).ok());
  const std::string path = TempPath("governed.qofstore");
  ASSERT_TRUE(system_->SaveStore(path).ok());

  auto disk = Fresh();
  ASSERT_TRUE(disk->OpenStore(path).ok());

  // A pre-expired cancellation stops the very first page miss: the
  // error comes back typed, before the query loads the index tier.
  QueryOptions options;
  options.cancel = std::make_shared<CancelToken>();
  options.cancel->Cancel();
  auto r = disk->Execute(kQueries[0], ExecutionMode::kIndexOnly, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled)
      << r.status().ToString();

  // Decompressed index bytes count against the byte budget: a budget far
  // below the posting payload trips kBudgetExhausted on a disk-backed
  // plan.
  QueryOptions tight;
  tight.max_bytes = 1;
  auto b = disk->Execute(kQueries[0], ExecutionMode::kIndexOnly, tight);
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), StatusCode::kBudgetExhausted)
      << b.status().ToString();

  // An ungoverned rerun still answers — tripped limits poison nothing.
  auto ok = disk->Execute(kQueries[0], ExecutionMode::kIndexOnly);
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST_F(StoreSystemTest, SnapshotReadersRaceEvictionUnderTinyPool) {
  ASSERT_TRUE(system_->BuildIndexes(IndexSpec::Full()).ok());
  const std::string path = TempPath("race.qofstore");
  // A small page size spreads the postings over many pages; a tiny pool
  // forces constant eviction under the concurrent readers.
  ASSERT_TRUE(system_->SaveStore(path, /*page_size=*/256).ok());

  auto disk = Fresh();
  PagedStoreOptions options;
  options.pool_pages = 4;
  ASSERT_TRUE(disk->OpenStore(path, options).ok());

  auto snapshot = disk->AcquireSnapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  std::string expected;
  {
    auto r = disk->ExecuteOnSnapshot(**snapshot, kQueries[0]);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    expected = Fingerprint(*r);
  }

  std::atomic<int> mismatches{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> readers;
  readers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (int i = 0; i < 25; ++i) {
        const char* fql = kQueries[(t + i) % 3];
        auto r = disk->ExecuteOnSnapshot(**snapshot, fql);
        if (!r.ok()) {
          ++errors;
          continue;
        }
        if (fql == kQueries[0] && Fingerprint(*r) != expected) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& th : readers) th.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(StoreColdDiskTest, GrammarModelMatchesMemoryBaseline) {
  // The grammar-model bench corpus (leaf + shared collection + tuple
  // collection + recursion, Zipf-skewed words) on 256-byte pages, so the
  // cursor kernels stream multi-page instances one demand page at a time.
  // Each query runs on its own cold disk system and must answer exactly
  // like the in-memory one.
  BenchCorpusSpec spec;
  spec.seed = 11;
  spec.target_bytes = 96 << 10;
  spec.zipf_s = 1.1;
  spec.objects_per_doc = 128;
  BenchCorpus corpus = MakeBenchCorpus(spec);
  auto schema = ParseSchemaText(corpus.schema_text);
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  auto make_system = [&] {
    auto system = std::make_unique<FileQuerySystem>(*schema);
    system->SetParallelism(1);
    for (const auto& [name, text] : corpus.docs) {
      EXPECT_TRUE(system->AddFile(name, text).ok());
    }
    return system;
  };
  auto mem = make_system();
  ASSERT_TRUE(mem->BuildIndexes(IndexSpec::Full()).ok());
  const std::string path = TempPath("grammar.qofstore");
  ASSERT_TRUE(mem->SaveStore(path, /*page_size=*/256).ok());

  const char* const queries[] = {
      "SELECT x FROM Obj x WHERE x.Alpha = \"zulu\"",
      "SELECT x FROM Obj x WHERE x.Beta.ItemA CONTAINS \"apple\"",
      "SELECT x FROM Obj x WHERE x.Gamma.ItemB.ItemBKey = \"zulu\" "
      "OR x.Alpha = \"falcon\"",
      "SELECT x.Alpha FROM Obj x WHERE "
      "x.Beta.ItemA CONTAINS \"zulu\" AND x.Alpha = \"harbor\"",
  };
  for (const char* fql : queries) {
    auto want = mem->Execute(fql);
    ASSERT_TRUE(want.ok()) << fql << ": " << want.status().ToString();
    auto disk = make_system();
    ASSERT_TRUE(disk->OpenStore(path).ok());
    auto got = disk->Execute(fql);
    ASSERT_TRUE(got.ok()) << fql << ": " << got.status().ToString();
    EXPECT_EQ(Fingerprint(*want), Fingerprint(*got)) << fql;
    EXPECT_EQ(want->stats.candidates, got->stats.candidates) << fql;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace qof
