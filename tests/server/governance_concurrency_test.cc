// Governance under concurrency: per-session budgets stay independent
// when M sessions share K workers, and the kAuto degradation ladder
// works unchanged inside a worker thread on a pinned snapshot (the
// ladder was built for the live path in PR 4; the service must not
// change its semantics).

#include <atomic>
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

std::unique_ptr<FileQuerySystem> MakeSystem() {
  auto schema = BibtexSchema();
  EXPECT_TRUE(schema.ok());
  auto system = std::make_unique<FileQuerySystem>(*schema);
  for (int doc = 0; doc < 3; ++doc) {
    BibtexGenOptions gen;
    gen.num_references = 40;
    gen.seed = 500 + doc;
    gen.probe_author_rate = 0.15;
    EXPECT_TRUE(system
                    ->AddFile("doc" + std::to_string(doc) + ".bib",
                              GenerateBibtex(gen))
                    .ok());
  }
  EXPECT_TRUE(system->BuildIndexes(IndexSpec::Full()).ok());
  return system;
}

bool HasDegradationNote(const QueryResult& result) {
  for (const std::string& note : result.stats.notes) {
    if (note.find("degraded to") != std::string::npos) return true;
  }
  return false;
}

TEST(GovernanceConcurrency, DegradationLadderRunsInWorkerThreads) {
  auto system = MakeSystem();
  QueryService service(system.get());
  auto sid = service.OpenSession();
  ASSERT_TRUE(sid.ok());

  QueryOptions tight;
  tight.max_regions = 1;
  auto degraded = service.Query(*sid, kProbeFql, tight);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(HasDegradationNote(*degraded))
      << "ladder did not engage on the snapshot path";

  // Same query, no budget: no ladder, same answer.
  auto free = service.Query(*sid, kProbeFql);
  ASSERT_TRUE(free.ok());
  EXPECT_FALSE(HasDegradationNote(*free));
  EXPECT_EQ(degraded->regions, free->regions);
}

TEST(GovernanceConcurrency, PerSessionBudgetsAreIndependent) {
  // Three sessions with three different governance postures share two
  // workers concurrently; each must get exactly its own treatment —
  // budgets and cancellation attach to the query, never to the worker.
  auto system = MakeSystem();
  ServiceOptions options;
  options.workers = 2;
  QueryService service(system.get(), options);

  auto tight_sid = service.OpenSession();
  auto cancelled_sid = service.OpenSession();
  auto free_sid = service.OpenSession();
  ASSERT_TRUE(tight_sid.ok() && cancelled_sid.ok() && free_sid.ok());

  constexpr int kRounds = 25;
  std::atomic<uint64_t> violations{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (int i = 0; i < kRounds; ++i) {
      QueryOptions tight;
      tight.max_regions = 1;
      auto r = service.Query(*tight_sid, kProbeFql, tight);
      if (!r.ok() || !HasDegradationNote(*r)) ++violations;
    }
  });
  threads.emplace_back([&] {
    for (int i = 0; i < kRounds; ++i) {
      QueryOptions doomed;
      doomed.cancel = std::make_shared<CancelToken>();
      doomed.cancel->Cancel();
      auto r = service.Query(*cancelled_sid, kProbeFql, doomed);
      if (r.ok() || !r.status().IsCancelled()) ++violations;
    }
  });
  threads.emplace_back([&] {
    for (int i = 0; i < kRounds; ++i) {
      auto r = service.Query(*free_sid, kProbeFql);
      // The free session must see neither its neighbors' budgets nor
      // their cancellations.
      if (!r.ok() || HasDegradationNote(*r)) ++violations;
    }
  });
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(violations.load(), 0u);
  auto stats = service.stats();
  EXPECT_EQ(stats.queries_failed, static_cast<uint64_t>(kRounds))
      << "only the pre-cancelled session's queries may fail";
  EXPECT_EQ(stats.queries_executed, static_cast<uint64_t>(3 * kRounds));
}

TEST(GovernanceConcurrency, CancelActiveLeavesOtherSessionsRunning) {
  auto system = MakeSystem();
  ServiceOptions options;
  options.workers = 2;
  QueryService service(system.get(), options);
  auto victim = service.OpenSession();
  auto bystander = service.OpenSession();
  ASSERT_TRUE(victim.ok() && bystander.ok());

  std::atomic<uint64_t> bystander_failures{0};
  std::atomic<bool> stop{false};
  std::thread bystander_thread([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (!service.Query(*bystander, kProbeFql).ok()) {
        ++bystander_failures;
      }
    }
  });
  for (int i = 0; i < 30; ++i) {
    auto r = service.Query(*victim, kProbeFql);
    if (i % 3 == 0) {
      ASSERT_TRUE(service.CancelActive(*victim).ok());
    }
    if (!r.ok()) {
      EXPECT_TRUE(r.status().IsCancelled());
    }
  }
  stop.store(true);
  bystander_thread.join();
  EXPECT_EQ(bystander_failures.load(), 0u)
      << "cancelling one session cancelled another's queries";
}

TEST(GovernanceConcurrency, ServiceCeilingAppliesAcrossAllSessions) {
  auto system = MakeSystem();
  ServiceOptions options;
  options.workers = 2;
  options.limits.max_regions = 1;
  QueryService service(system.get(), options);

  std::vector<std::thread> threads;
  std::atomic<uint64_t> missing_clamp{0};
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      auto sid = service.OpenSession();
      if (!sid.ok()) { ++missing_clamp; return; }
      for (int i = 0; i < 10; ++i) {
        auto r = service.Query(*sid, kProbeFql);
        if (!r.ok() || !HasDegradationNote(*r)) ++missing_clamp;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(missing_clamp.load(), 0u);
}

}  // namespace
}  // namespace qof
