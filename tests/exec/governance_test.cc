// End-to-end resource governance on FileQuerySystem: deadlines, byte and
// region budgets, cooperative cancellation, the fallback ladder with its
// explanatory notes, soft-fail truncation, fault injection at every
// registered site, and the all-or-nothing OpenStore staging (see
// DESIGN.md, "Resource governance & failure model").

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "qof/datagen/bibtex_gen.h"
#include "qof/datagen/schemas.h"
#include "qof/engine/system.h"
#include "qof/exec/exec_context.h"
#include "qof/exec/fault_injector.h"
#include "qof/store/paged_file.h"
#include "qof/store/store_format.h"
#include "temp_path.h"

namespace qof {
namespace {

// An exact, index-answerable selection (probe surname planted by the
// generator) and an inexact one (NOT forces two-phase verification, so
// auto execution parses candidate documents).
constexpr const char* kExactFql =
    "SELECT r FROM References r "
    "WHERE r.Authors.Name.Last_Name = \"Chang\"";
constexpr const char* kInexactFql =
    "SELECT r FROM References r "
    "WHERE NOT (r.Authors.Name.Last_Name = \"Chang\")";

/// Shared corpus: several generated BibTeX documents, large enough that
/// a scan takes well over a millisecond, small enough that the suite
/// stays fast. Built once.
class GovernanceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto schema = BibtexSchema();
    ASSERT_TRUE(schema.ok());
    system_ = new FileQuerySystem(*schema);
    for (int doc = 0; doc < 6; ++doc) {
      BibtexGenOptions gen;
      gen.num_references = 150;
      gen.seed = 1000 + doc;
      gen.probe_author_rate = 0.1;
      ASSERT_TRUE(system_
                      ->AddFile("doc" + std::to_string(doc) + ".bib",
                                GenerateBibtex(gen))
                      .ok());
    }
    system_->SetParallelism(2);
    ASSERT_TRUE(system_->BuildIndexes().ok());
  }

  static void TearDownTestSuite() {
    delete system_;
    system_ = nullptr;
  }

  static FileQuerySystem* system_;
};

FileQuerySystem* GovernanceTest::system_ = nullptr;

TEST_F(GovernanceTest, UngovernedExecutionUnchanged) {
  auto reference = system_->Execute(kExactFql);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_FALSE(reference->regions.empty());
  EXPECT_FALSE(reference->stats.truncated);
}

TEST_F(GovernanceTest, TinyDeadlineTripsScanningStrategies) {
  QueryOptions options;
  options.deadline_ms = 1;
  for (ExecutionMode mode :
       {ExecutionMode::kBaseline, ExecutionMode::kTwoPhase}) {
    auto r = system_->Execute(kInexactFql, mode, options);
    ASSERT_FALSE(r.ok()) << "mode " << static_cast<int>(mode);
    EXPECT_TRUE(r.status().IsDeadlineExceeded()) << r.status().ToString();
    // Partial-progress decoration: the caller learns how far the query
    // got before the clock ran out.
    EXPECT_NE(r.status().message().find("bytes scanned"),
              std::string::npos)
        << r.status().ToString();
  }
}

TEST_F(GovernanceTest, PreCancelledTokenStopsEveryStrategy) {
  // A pre-cancelled token proves every strategy passes a governance
  // checkpoint before doing real work — deterministically, regardless of
  // machine speed.
  for (ExecutionMode mode :
       {ExecutionMode::kAuto, ExecutionMode::kIndexOnly,
        ExecutionMode::kTwoPhase, ExecutionMode::kBaseline}) {
    QueryOptions options;
    options.cancel = std::make_shared<CancelToken>();
    options.cancel->Cancel();
    auto r = system_->Execute(kExactFql, mode, options);
    ASSERT_FALSE(r.ok()) << "mode " << static_cast<int>(mode);
    EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
  }
  // Cancellation never degrades: no partial answer, no ladder.
  QueryOptions options;
  options.cancel = std::make_shared<CancelToken>();
  options.cancel->Cancel();
  auto r = system_->Execute(kExactFql, ExecutionMode::kAuto, options);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCancelled());
}

TEST_F(GovernanceTest, CancellationFromSecondThreadMidQuery) {
  // Two-phase verification parses candidate documents inside
  // ThreadPool::ParallelFor; a cancel from another thread must stop the
  // workers cooperatively.
  QueryOptions options;
  options.cancel = std::make_shared<CancelToken>();
  std::thread canceller([token = options.cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    token->Cancel();
  });
  auto r = system_->Execute(kInexactFql, ExecutionMode::kTwoPhase, options);
  canceller.join();
  // The only acceptable non-cancelled outcome is the query finishing
  // before the cancel landed — in which case it must be a full answer.
  if (!r.ok()) {
    EXPECT_TRUE(r.status().IsCancelled()) << r.status().ToString();
  } else {
    EXPECT_FALSE(r->stats.truncated);
  }
}

TEST_F(GovernanceTest, ByteBudgetIsTypedAndNeverDegrades) {
  QueryOptions options;
  options.max_bytes = 64;
  for (ExecutionMode mode :
       {ExecutionMode::kBaseline, ExecutionMode::kTwoPhase}) {
    auto r = system_->Execute(kInexactFql, mode, options);
    ASSERT_FALSE(r.ok()) << "mode " << static_cast<int>(mode);
    EXPECT_TRUE(r.status().IsBudgetExhausted()) << r.status().ToString();
  }

  // The budget meters scanned text. With full indexes even the NOT query
  // compiles to an exact plan, so kAuto answers it index-only and sails
  // under any byte limit — that is correct governance, not a leak.
  auto index_only =
      system_->Execute(kInexactFql, ExecutionMode::kAuto, options);
  ASSERT_TRUE(index_only.ok()) << index_only.status().ToString();
  EXPECT_EQ(index_only->stats.bytes_scanned, 0u);

  // Under a partial index the probe-surname chain query is inexact, so
  // kAuto has to parse candidate documents; the budget trips with the
  // typed error instead of degrading down the ladder (a cheaper strategy
  // cannot refund bytes already scanned).
  auto schema = BibtexSchema();
  ASSERT_TRUE(schema.ok());
  FileQuerySystem partial(*schema);
  BibtexGenOptions gen;
  gen.num_references = 40;
  gen.seed = 77;
  gen.probe_author_rate = 0.1;
  ASSERT_TRUE(partial.AddFile("p.bib", GenerateBibtex(gen)).ok());
  ASSERT_TRUE(
      partial
          .BuildIndexes(IndexSpec::Partial({"Reference", "Key",
                                            "Last_Name"}))
          .ok());
  auto r = partial.Execute(kExactFql, ExecutionMode::kAuto, options);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsBudgetExhausted()) << r.status().ToString();
}

TEST_F(GovernanceTest, RegionBudgetDegradesAutoWithNotes) {
  auto reference = system_->Execute(kExactFql);
  ASSERT_TRUE(reference.ok());

  QueryOptions options;
  options.max_regions = 1;
  auto r = system_->Execute(kExactFql, ExecutionMode::kAuto, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->regions, reference->regions);
  bool degraded_note = false;
  for (const std::string& note : r->stats.notes) {
    degraded_note = degraded_note ||
                    note.find("degraded to") != std::string::npos;
  }
  EXPECT_TRUE(degraded_note) << "no degradation note in stats.notes";
}

TEST_F(GovernanceTest, RegionBudgetIsTypedWhenModeIsForced) {
  // Only kAuto owns the ladder; a forced strategy fails with the typed
  // error instead of silently switching plans.
  QueryOptions options;
  options.max_regions = 1;
  auto r = system_->Execute(kExactFql, ExecutionMode::kIndexOnly, options);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsBudgetExhausted()) << r.status().ToString();
}

TEST_F(GovernanceTest, SoftFailReturnsTruncatedPrefix) {
  auto full = system_->Execute(kExactFql, ExecutionMode::kBaseline);
  ASSERT_TRUE(full.ok());

  QueryOptions options;
  options.max_bytes = 80 * 1024;  // roughly one document in
  options.soft_fail = true;
  auto r = system_->Execute(kExactFql, ExecutionMode::kBaseline, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->stats.truncated);
  EXPECT_LT(r->regions.size(), full->regions.size());
  // The verified prefix is a subset of the full answer.
  for (size_t i = 0; i < r->regions.size(); ++i) {
    EXPECT_EQ(r->regions[i], full->regions[i]);
  }
  bool truncation_note = false;
  for (const std::string& note : r->stats.notes) {
    truncation_note = truncation_note ||
                      note.find("truncated") != std::string::npos;
  }
  EXPECT_TRUE(truncation_note);
}

TEST_F(GovernanceTest, InjectedFaultAtEverySiteLeavesSystemQueryable) {
  auto reference = system_->Execute(kInexactFql);
  ASSERT_TRUE(reference.ok());

  for (const std::string& site : FaultSites()) {
    {
      ScopedFaultInjector inject({site, 1});
      auto r = system_->Execute(kInexactFql, ExecutionMode::kAuto);
      // Auto execution may absorb the fault by degrading (then the
      // answer must be right) or surface a diagnosable error — never a
      // wrong answer.
      if (r.ok()) {
        EXPECT_EQ(r->regions, reference->regions) << "site " << site;
      } else {
        EXPECT_FALSE(r.status().message().empty()) << "site " << site;
      }
    }
    // Fault gone: the system answers as if nothing happened.
    auto after = system_->Execute(kInexactFql, ExecutionMode::kAuto);
    ASSERT_TRUE(after.ok()) << "site " << site << ": "
                            << after.status().ToString();
    EXPECT_EQ(after->regions, reference->regions) << "site " << site;
  }
}

TEST_F(GovernanceTest, ForcedStrategiesSurfaceInjectedFaults) {
  for (ExecutionMode mode :
       {ExecutionMode::kTwoPhase, ExecutionMode::kBaseline}) {
    ScopedFaultInjector inject({fault_site::kParseDocument, 1});
    auto r = system_->Execute(kInexactFql, mode);
    ASSERT_FALSE(r.ok()) << "mode " << static_cast<int>(mode);
    EXPECT_FALSE(r.status().message().empty());
  }
}

TEST(ImportStagingTest, CorruptStoreLeavesPreviousIndexesIntact) {
  auto schema = BibtexSchema();
  ASSERT_TRUE(schema.ok());
  FileQuerySystem system(*schema);
  BibtexGenOptions gen;
  gen.num_references = 40;
  gen.probe_author_rate = 0.2;
  ASSERT_TRUE(system.AddFile("a.bib", GenerateBibtex(gen)).ok());
  ASSERT_TRUE(system.BuildIndexes().ok());
  auto reference = system.Execute(kExactFql);
  ASSERT_TRUE(reference.ok());

  const std::string path = TempPath("good.qofstore");
  ASSERT_TRUE(system.SaveStore(path).ok());
  auto image = ReadFileBytes(path);
  ASSERT_TRUE(image.ok());

  // Truncated and bit-flipped stores must both fail the open and leave
  // the in-memory indexes untouched (staging, swap on success). The flip
  // lands in the document table, which the open reads.
  auto meta = DecodeMetaPage(*image);
  ASSERT_TRUE(meta.ok());
  const std::string bad = TempPath("bad.qofstore");
  ASSERT_TRUE(WriteFileBytes(bad, image->substr(0, image->size() / 2)).ok());
  EXPECT_FALSE(system.OpenStore(bad).ok());
  std::string flipped = *image;
  flipped[size_t{meta->section(StoreSection::kDocTable).first_page} *
              meta->page_size +
          kPageHeaderSize + 2] ^= 0x5a;
  ASSERT_TRUE(WriteFileBytes(bad, flipped).ok());
  EXPECT_FALSE(system.OpenStore(bad).ok());

  for (ExecutionMode mode :
       {ExecutionMode::kAuto, ExecutionMode::kIndexOnly,
        ExecutionMode::kTwoPhase}) {
    auto r = system.Execute(kExactFql, mode);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->regions, reference->regions);
  }
  EXPECT_EQ(system.index_stats().source, "built");

  // A clean open still works after the failed attempts.
  EXPECT_TRUE(system.OpenStore(path).ok());
  auto again = system.Execute(kExactFql);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->regions, reference->regions);
}

TEST(ImportStagingTest, InjectedDeserializeFaultBehavesLikeCorruption) {
  auto schema = BibtexSchema();
  ASSERT_TRUE(schema.ok());
  FileQuerySystem system(*schema);
  BibtexGenOptions gen;
  gen.num_references = 30;
  gen.probe_author_rate = 0.2;
  ASSERT_TRUE(system.AddFile("a.bib", GenerateBibtex(gen)).ok());
  ASSERT_TRUE(system.BuildIndexes().ok());
  auto reference = system.Execute(kExactFql);
  ASSERT_TRUE(reference.ok());
  const std::string path = TempPath("store.qofstore");
  ASSERT_TRUE(system.SaveStore(path).ok());

  {
    ScopedFaultInjector inject({fault_site::kIndexIoDeserialize, 1});
    Status s = system.OpenStore(path);
    ASSERT_FALSE(s.ok());
    EXPECT_TRUE(inject.injector().fired());
  }
  auto r = system.Execute(kExactFql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->regions, reference->regions);
  EXPECT_EQ(system.index_stats().source, "built");
}

TEST(ImportStagingTest, InjectedSerializeFaultFailsOnlyTheSave) {
  auto schema = BibtexSchema();
  ASSERT_TRUE(schema.ok());
  FileQuerySystem system(*schema);
  BibtexGenOptions gen;
  gen.num_references = 30;
  ASSERT_TRUE(system.AddFile("a.bib", GenerateBibtex(gen)).ok());
  ASSERT_TRUE(system.BuildIndexes().ok());
  const std::string path = TempPath("store.qofstore");
  std::remove(path.c_str());  // a previous run's file
  {
    ScopedFaultInjector inject({fault_site::kIndexIoSerialize, 1});
    Status s = system.SaveStore(path);
    ASSERT_FALSE(s.ok());
    EXPECT_FALSE(s.message().empty());
    EXPECT_TRUE(inject.injector().fired());
  }
  // Nothing was written, and the next save succeeds.
  EXPECT_FALSE(ReadFileBytes(path).ok());
  EXPECT_TRUE(system.SaveStore(path).ok());
  EXPECT_TRUE(system.OpenStore(path).ok());
}

TEST(GovernedMaintenanceTest, DeadlineAbortsMutationAtomically) {
  auto schema = BibtexSchema();
  ASSERT_TRUE(schema.ok());
  FileQuerySystem system(*schema);
  BibtexGenOptions gen;
  gen.num_references = 20;
  ASSERT_TRUE(system.AddFile("a.bib", GenerateBibtex(gen)).ok());
  ASSERT_TRUE(system.BuildIndexes().ok());
  uint64_t generation = system.maintain_stats().generation;

  BibtexGenOptions big;
  big.num_references = 400;
  big.seed = 77;
  QueryOptions options;
  options.cancel = std::make_shared<CancelToken>();
  options.cancel->Cancel();  // deterministic interrupt at the first check
  Status s = system.AddFile("b.bib", GenerateBibtex(big), options);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCancelled()) << s.ToString();
  // Nothing applied: generation unchanged, corpus unchanged, and the
  // system still answers.
  EXPECT_EQ(system.maintain_stats().generation, generation);
  auto r = system.Execute(kExactFql);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
}

}  // namespace
}  // namespace qof
