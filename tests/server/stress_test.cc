// Concurrency stress battery for the server subsystem — the CI
// `server-tsan` leg builds these under -fsanitize=thread, so each test
// maximizes cross-thread interleavings rather than asserting much:
// readers race mutators and compaction, snapshots pin/unpin while state
// is cloned and reclaimed, and cancellation arrives from foreign
// threads mid-query. Functional invariants (isolation, accounting) are
// asserted where they are cheap to check.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "qof/datagen/bibtex_gen.h"
#include "qof/datagen/schemas.h"
#include "qof/engine/system.h"
#include "qof/server/service.h"

namespace qof {
namespace {

constexpr const char* kProbeFql =
    "SELECT r FROM References r "
    "WHERE r.Authors.Name.Last_Name = \"Chang\"";

std::string Doc(uint32_t seed, int refs = 10) {
  BibtexGenOptions gen;
  gen.num_references = refs;
  gen.seed = seed;
  gen.probe_author_rate = 0.2;
  return GenerateBibtex(gen);
}

std::string Fingerprint(const Result<QueryResult>& r) {
  if (!r.ok()) return "error:" + r.status().ToString();
  std::string out;
  for (const Region& region : r->regions) {
    out += std::to_string(region.start) + "-" +
           std::to_string(region.end) + ";";
  }
  return out;
}

std::unique_ptr<FileQuerySystem> MakeSystem() {
  auto schema = BibtexSchema();
  EXPECT_TRUE(schema.ok());
  auto system = std::make_unique<FileQuerySystem>(*schema);
  EXPECT_TRUE(system->AddFile("a.bib", Doc(11)).ok());
  EXPECT_TRUE(system->AddFile("b.bib", Doc(22)).ok());
  system->SetCacheOptions(CacheOptions::Enabled());
  EXPECT_TRUE(system->BuildIndexes(IndexSpec::Full()).ok());
  return system;
}

TEST(ServerStress, ReadersRaceMutatorsAndCompaction) {
  auto system = MakeSystem();
  ServiceOptions options;
  options.workers = 2;
  QueryService service(system.get(), options);

  // A frozen session pinned before the storm: its answer must be
  // byte-identical throughout, whatever the interleaving.
  auto frozen = service.OpenSession();
  ASSERT_TRUE(frozen.ok());
  std::string frozen_answer = Fingerprint(service.Query(*frozen, kProbeFql));

  constexpr int kReaders = 3;
  constexpr int kOpsPerReader = 40;
  std::atomic<uint64_t> unexpected{0};
  std::vector<std::thread> threads;
  for (int reader = 0; reader < kReaders; ++reader) {
    threads.emplace_back([&, reader] {
      auto sid = service.OpenSession();
      if (!sid.ok()) { ++unexpected; return; }
      std::string pinned = Fingerprint(service.Query(*sid, kProbeFql));
      for (int op = 0; op < kOpsPerReader; ++op) {
        if (op % 10 == 9) {
          // Repin and re-baseline: repeatable reads restart here.
          if (!service.Refresh(*sid).ok()) ++unexpected;
          pinned = Fingerprint(service.Query(*sid, kProbeFql));
          continue;
        }
        std::string got = Fingerprint(service.Query(*sid, kProbeFql));
        if (got != pinned) ++unexpected;  // isolation violated
      }
      if (!service.CloseSession(*sid).ok()) ++unexpected;
    });
  }
  threads.emplace_back([&] {  // mutator
    auto sid = service.OpenSession();
    if (!sid.ok()) { ++unexpected; return; }
    for (uint32_t round = 0; round < 25; ++round) {
      Status s = round % 8 == 7
                     ? service.Compact(*sid)
                     : service.UpdateFile(*sid, "b.bib", Doc(100 + round));
      if (!s.ok()) ++unexpected;
    }
    if (!service.CloseSession(*sid).ok()) ++unexpected;
  });
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(unexpected.load(), 0u);
  EXPECT_EQ(Fingerprint(service.Query(*frozen, kProbeFql)), frozen_answer)
      << "frozen session diverged during the storm";
  ASSERT_TRUE(service.CloseSession(*frozen).ok());
  EXPECT_EQ(service.stats().sessions_open, 0u);
  EXPECT_EQ(service.stats().queries_failed, 0u);
}

TEST(ServerStress, SnapshotPinUnpinRacesReclamation) {
  // Engine-level: snapshots acquired and dropped from several threads
  // while a mutator forces copy-on-write clones and epoch advances —
  // reclamation must never free state a live pin still reads.
  auto system = MakeSystem();
  std::atomic<uint64_t> unexpected{0};
  std::atomic<bool> stop{false};

  std::vector<std::thread> pinners;
  for (int t = 0; t < 3; ++t) {
    pinners.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto snapshot = system->AcquireSnapshot();
        if (!snapshot.ok()) { ++unexpected; continue; }
        std::string first =
            Fingerprint(system->ExecuteOnSnapshot(**snapshot, kProbeFql));
        std::string second =
            Fingerprint(system->ExecuteOnSnapshot(**snapshot, kProbeFql));
        if (first != second) ++unexpected;
        if (first.rfind("error:", 0) == 0) ++unexpected;
      }
    });
  }
  for (uint32_t round = 0; round < 30; ++round) {
    Status s = round % 10 == 9
                   ? system->CompactIndexes()
                   : system->UpdateFile("a.bib", Doc(200 + round));
    if (!s.ok()) ++unexpected;
  }
  stop.store(true);
  for (std::thread& t : pinners) t.join();
  EXPECT_EQ(unexpected.load(), 0u);
}

/// A hash of everything a reader can see through a snapshot: its text
/// bytes, every instance and every posting list.
uint64_t ScanPinnedState(const IndexSnapshot& snapshot) {
  uint64_t h = 0;
  for (char c : snapshot.corpus->full_text()) {
    h = h * 31 + static_cast<unsigned char>(c);
  }
  const RegionIndex& regions = snapshot.built->regions;
  for (const std::string& name : regions.Names()) {
    for (const Region& r : **regions.Get(name)) {
      h = h * 31 + r.start * 7 + r.end;
    }
  }
  snapshot.built->words.ForEachWord(
      [&h](const std::string& word, const std::vector<TextPos>& list) {
        h = h * 31 + word.size();
        for (TextPos p : list) h = h * 31 + p;
      });
  return h;
}

TEST(ServerStress, PinnedStateScansRaceAppendsAndCompaction) {
  // Readers walk pinned snapshots' text bytes, instances and posting
  // lists while the writer appends past their end, splices private
  // copies of what it touches and compacts into fresh arrays. Nothing a
  // pin reaches may ever be written: TSan checks the memory, the hashes
  // check the values. Readers also drop and re-take pins throughout, so
  // writes race the release of the state they fork from.
  auto system = MakeSystem();
  auto frozen = system->AcquireSnapshot();
  ASSERT_TRUE(frozen.ok());
  const uint64_t frozen_hash = ScanPinnedState(**frozen);
  std::atomic<uint64_t> unexpected{0};
  std::atomic<bool> stop{false};

  std::vector<std::thread> readers;
  readers.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (ScanPinnedState(**frozen) != frozen_hash) ++unexpected;
    }
  });
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto snapshot = system->AcquireSnapshot();
        if (!snapshot.ok()) { ++unexpected; continue; }
        if (ScanPinnedState(**snapshot) != ScanPinnedState(**snapshot)) {
          ++unexpected;
        }
      }
    });
  }
  for (uint32_t round = 0; round < 30; ++round) {
    std::string added = std::to_string(round);
    added += ".bib";
    Status s = round % 10 == 9 ? system->CompactIndexes()
               : round % 3 == 0
                   ? system->AddFile(added, Doc(300 + round))
                   : system->UpdateFile("a.bib", Doc(400 + round));
    if (!s.ok()) ++unexpected;
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(unexpected.load(), 0u);
  EXPECT_EQ(ScanPinnedState(**frozen), frozen_hash);
}

TEST(ServerStress, CancellationFromForeignThreads) {
  auto system = MakeSystem();
  ServiceOptions options;
  options.workers = 2;
  QueryService service(system.get(), options);
  auto sid = service.OpenSession();
  ASSERT_TRUE(sid.ok());

  std::atomic<uint64_t> bad{0};
  std::atomic<bool> stop{false};
  std::thread canceller([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (!service.CancelActive(*sid).ok()) ++bad;
      std::this_thread::yield();
    }
  });
  for (int op = 0; op < 60; ++op) {
    auto r = service.Query(*sid, kProbeFql);
    // Either outcome is legal; anything else is a bug.
    if (!r.ok() && !r.status().IsCancelled()) ++bad;
  }
  stop.store(true);
  canceller.join();
  EXPECT_EQ(bad.load(), 0u);
  // The session survives any number of cancellations.
  (void)service.CancelActive(*sid);
  auto last = service.Query(*sid, kProbeFql);
  EXPECT_TRUE(last.ok()) << last.status().ToString();
}

TEST(ServerStress, ShutdownDrainsEveryAcceptedQuery) {
  auto system = MakeSystem();
  ServiceOptions options;
  options.workers = 2;
  options.max_queued = 0;  // unbounded: all submissions are accepted
  QueryService service(system.get(), options);
  auto sid = service.OpenSession();
  ASSERT_TRUE(sid.ok());

  std::atomic<uint64_t> completed{0};
  constexpr int kSubmitted = 50;
  for (int op = 0; op < kSubmitted; ++op) {
    ASSERT_TRUE(service
                    .SubmitQuery(*sid, kProbeFql, {},
                                 [&](Result<QueryResult> r) {
                                   if (r.ok()) ++completed;
                                 })
                    .ok());
  }
  service.Shutdown();  // runs every accepted task to completion
  EXPECT_EQ(completed.load(), static_cast<uint64_t>(kSubmitted));
  EXPECT_EQ(service.stats().queries_executed,
            static_cast<uint64_t>(kSubmitted));
}

TEST(ServerStress, ConcurrentSessionChurn) {
  // Sessions open, query, mutate, and close from many threads at once;
  // the id space and the session map must stay consistent.
  auto system = MakeSystem();
  QueryService service(system.get());
  std::atomic<uint64_t> unexpected{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 12; ++round) {
        auto sid = service.OpenSession();
        if (!sid.ok()) { ++unexpected; continue; }
        if (!service.Query(*sid, kProbeFql).ok()) ++unexpected;
        if (round % 3 == 2) {
          std::string name = "scratch" + std::to_string(t) + ".bib";
          if (!service
                   .AddFile(*sid, name, Doc(300 + t * 100 + round))
                   .ok() ||
              !service.RemoveFile(*sid, name).ok()) {
            ++unexpected;
          }
        }
        if (!service.CloseSession(*sid).ok()) ++unexpected;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(unexpected.load(), 0u);
  EXPECT_EQ(service.stats().sessions_open, 0u);
}

}  // namespace
}  // namespace qof
