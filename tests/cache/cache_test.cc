// Tests of the per-state query caches: the EvalCache and PlanCache
// units, and the FileQuerySystem wiring — warm runs served from cache,
// byte-identical answers, and a fresh cache on every path that changes
// what a query would see (mutations, compaction, rebuilds, imports).

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "qof/cache/cache.h"
#include "qof/datagen/schemas.h"
#include "qof/engine/system.h"
#include "qof/exec/fault_injector.h"
#include "temp_path.h"

namespace qof {
namespace {

std::shared_ptr<const RegionSet> MakeSet(std::vector<Region> v) {
  return std::make_shared<const RegionSet>(
      RegionSet::FromUnsorted(std::move(v)));
}

TEST(EvalCacheTest, LookupReturnsInsertedSetUnderSameEpoch) {
  auto counters = std::make_shared<CacheCounters>(/*max_regions=*/100);
  EvalCache cache(counters);
  EXPECT_EQ(cache.Lookup("k"), nullptr);
  cache.Insert("k", MakeSet({{0, 5}, {7, 9}}));
  auto hit = cache.Lookup("k");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->size(), 2u);
  CacheStats stats = counters->stats();
  EXPECT_EQ(stats.eval_hits, 1u);
  EXPECT_EQ(stats.eval_misses, 1u);
  EXPECT_EQ(stats.eval_regions_cached, 2u);
}

TEST(EvalCacheTest, EvictsLeastRecentlyUsedByRegionCount) {
  auto counters = std::make_shared<CacheCounters>(/*max_regions=*/10);
  EvalCache cache(counters);
  cache.Insert("a", MakeSet({{0, 1}, {2, 3}, {4, 5}, {6, 7}}));
  cache.Insert("b", MakeSet({{0, 1}, {2, 3}, {4, 5}, {6, 7}}));
  ASSERT_NE(cache.Lookup("a"), nullptr);  // refresh a; b is LRU
  cache.Insert("c", MakeSet({{0, 1}, {2, 3}, {4, 5}, {6, 7}}));
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  EXPECT_NE(cache.Lookup("c"), nullptr);
  CacheStats stats = counters->stats();
  EXPECT_EQ(stats.eval_evictions, 1u);
  EXPECT_LE(stats.eval_regions_cached, 10u);
}

TEST(EvalCacheTest, RefusesSetsLargerThanTheWholeBudget) {
  auto counters = std::make_shared<CacheCounters>(/*max_regions=*/2);
  EvalCache cache(counters);
  cache.Insert("big", MakeSet({{0, 1}, {2, 3}, {4, 5}}));
  EXPECT_EQ(cache.Lookup("big"), nullptr);
  EXPECT_EQ(counters->stats().eval_regions_cached, 0u);
}

TEST(EvalCacheTest, TheRegionBoundHoldsAcrossTwoStatesCaches) {
  // Two states' caches (an old one a snapshot still pins, and the live
  // one) share one bound: an insert that takes the system total over it
  // evicts from its own cache's LRU, never from the other state's.
  auto counters = std::make_shared<CacheCounters>(/*max_regions=*/10);
  auto pinned = std::make_unique<EvalCache>(counters);
  EvalCache live(counters);
  pinned->Insert("p1", MakeSet({{0, 1}, {2, 3}, {4, 5}}));
  pinned->Insert("p2", MakeSet({{0, 1}, {2, 3}, {4, 5}}));
  live.Insert("l1", MakeSet({{0, 1}, {2, 3}}));
  EXPECT_EQ(counters->stats().eval_regions_cached, 8u);
  live.Insert("l2", MakeSet({{0, 1}, {2, 3}, {4, 5}}));
  // 11 > 10: the live cache dropped its own LRU entry.
  EXPECT_EQ(live.Lookup("l1"), nullptr);
  EXPECT_NE(live.Lookup("l2"), nullptr);
  EXPECT_NE(pinned->Lookup("p1"), nullptr);
  EXPECT_NE(pinned->Lookup("p2"), nullptr);
  CacheStats stats = counters->stats();
  EXPECT_EQ(stats.eval_evictions, 1u);
  EXPECT_EQ(stats.eval_regions_cached, 9u);
  // The pinned state's cache freeing hands its regions back to the bound.
  pinned.reset();
  EXPECT_EQ(counters->stats().eval_regions_cached, 3u);
  live.Insert("l3", MakeSet({{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}}));
  EXPECT_NE(live.Lookup("l2"), nullptr);
  EXPECT_EQ(counters->stats().eval_regions_cached, 8u);
}

TEST(PlanCacheTest, LruEvictionByEntryCount) {
  auto counters = std::make_shared<CacheCounters>();
  PlanCache cache(counters, /*max_plans=*/2);
  auto entry = [] {
    auto e = std::make_shared<PlanCache::Entry>();
    return e;
  };
  cache.Insert("q1", entry());
  cache.Insert("q2", entry());
  ASSERT_NE(cache.Lookup("q1"), nullptr);  // refresh q1; q2 is LRU
  cache.Insert("q3", entry());
  EXPECT_NE(cache.Lookup("q1"), nullptr);
  EXPECT_EQ(cache.Lookup("q2"), nullptr);
  EXPECT_NE(cache.Lookup("q3"), nullptr);
  EXPECT_EQ(counters->stats().plan_evictions, 1u);
}

// ---- system wiring ---------------------------------------------------------

constexpr const char* kRefs = R"(@INCOLLECTION{Ref0,
  AUTHOR = "Y. F. Chang and G. F. Corliss",
  TITLE = "Solving Ordinary Differential Equations",
  BOOKTITLE = "Automatic Differentiation Algorithms",
  YEAR = "1982",
  EDITOR = "A. Griewank",
  PUBLISHER = "SIAM",
  ADDRESS = "Philadelphia, Penn.",
  PAGES = "114--144",
  REFERRED = "",
  KEYWORDS = "point algorithm",
  ABSTRACT = "a Fortran pre-processor"
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
)";

constexpr const char* kExtraRef = R"(@INCOLLECTION{Ref9,
  AUTHOR = "Z. Chang",
  TITLE = "Another Entry",
  BOOKTITLE = "More Databases",
  YEAR = "1994",
  EDITOR = "N. Body",
  PUBLISHER = "ACM Press",
  ADDRESS = "Toronto",
  PAGES = "2--4",
  REFERRED = "",
  KEYWORDS = "caching",
  ABSTRACT = "an extra reference"
}
)";

constexpr const char* kQuery =
    "SELECT r FROM References r WHERE r.Authors.Name.Last_Name = \"Chang\"";

class CacheSystemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = BibtexSchema();
    ASSERT_TRUE(schema.ok());
    cached_ = std::make_unique<FileQuerySystem>(*schema);
    plain_ = std::make_unique<FileQuerySystem>(*schema);
    for (FileQuerySystem* s : {cached_.get(), plain_.get()}) {
      ASSERT_TRUE(s->AddFile("refs.bib", kRefs).ok());
      s->SetParallelism(1);
    }
    cached_->SetCacheOptions(CacheOptions::Enabled());
    ASSERT_TRUE(cached_->BuildIndexes(IndexSpec::Full()).ok());
    ASSERT_TRUE(plain_->BuildIndexes(IndexSpec::Full()).ok());
  }

  QueryResult Run(FileQuerySystem* s, const char* fql = kQuery) {
    auto r = s->Execute(fql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r : QueryResult{};
  }

  void ExpectAgree(const char* fql = kQuery) {
    QueryResult a = Run(cached_.get(), fql);
    QueryResult b = Run(plain_.get(), fql);
    EXPECT_EQ(a.regions, b.regions) << fql;
    EXPECT_EQ(a.RenderedValues(), b.RenderedValues()) << fql;
  }

  std::unique_ptr<FileQuerySystem> cached_;
  std::unique_ptr<FileQuerySystem> plain_;
};

TEST_F(CacheSystemTest, WarmRunIsServedFromBothCaches) {
  QueryResult cold = Run(cached_.get());
  CacheStats after_cold = cached_->cache_stats();
  EXPECT_EQ(after_cold.plan_hits, 0u);
  EXPECT_GT(after_cold.eval_misses, 0u);
  EXPECT_EQ(cold.stats.algebra.cache_hits, 0u);

  QueryResult warm = Run(cached_.get());
  CacheStats after_warm = cached_->cache_stats();
  EXPECT_EQ(after_warm.plan_hits, 1u);
  EXPECT_EQ(after_warm.eval_misses, after_cold.eval_misses)
      << "warm run recomputed subexpressions";
  EXPECT_GT(warm.stats.algebra.cache_hits, 0u);
  EXPECT_EQ(warm.regions, cold.regions);
  EXPECT_EQ(warm.RenderedValues(), cold.RenderedValues());
  ExpectAgree();
}

TEST_F(CacheSystemTest, MutationsInvalidateCachedResults) {
  ExpectAgree();  // warms the caches
  for (FileQuerySystem* s : {cached_.get(), plain_.get()}) {
    ASSERT_TRUE(s->AddFile("extra.bib", kExtraRef).ok());
  }
  ExpectAgree();  // must include Ref9, not the cached two-ref answer
  for (FileQuerySystem* s : {cached_.get(), plain_.get()}) {
    ASSERT_TRUE(s->UpdateFile("extra.bib", kRefs).ok());
  }
  ExpectAgree();
  for (FileQuerySystem* s : {cached_.get(), plain_.get()}) {
    ASSERT_TRUE(s->RemoveFile("extra.bib").ok());
  }
  ExpectAgree();
  EXPECT_GT(cached_->cache_stats().invalidations, 0u);
}

TEST_F(CacheSystemTest, CompactionInvalidatesWithoutAGenerationBump) {
  for (FileQuerySystem* s : {cached_.get(), plain_.get()}) {
    ASSERT_TRUE(s->AddFile("extra.bib", kExtraRef).ok());
    ASSERT_TRUE(s->RemoveFile("extra.bib").ok());
  }
  ExpectAgree();  // warms the caches on the fragmented corpus
  for (FileQuerySystem* s : {cached_.get(), plain_.get()}) {
    ASSERT_TRUE(s->CompactIndexes().ok());
  }
  // Compaction rebased every region offset; a stale cached answer would
  // carry pre-compaction coordinates.
  ExpectAgree();
}

TEST_F(CacheSystemTest, RebuildAndImportFlushBothCaches) {
  ExpectAgree();
  CacheStats before = cached_->cache_stats();
  ASSERT_TRUE(cached_->BuildIndexes(IndexSpec::Full()).ok());
  EXPECT_GT(cached_->cache_stats().invalidations, before.invalidations);
  ExpectAgree();

  const std::string path = TempPath("plain.qofstore");
  ASSERT_TRUE(plain_->SaveStore(path).ok());
  CacheStats mid = cached_->cache_stats();
  ASSERT_TRUE(cached_->OpenStore(path).ok());
  EXPECT_GT(cached_->cache_stats().invalidations, mid.invalidations);
  ExpectAgree();
}

TEST_F(CacheSystemTest, CacheHitsStillChargeTheRegionBudget) {
  // Governance must be cache-independent: a budget that fails the cold
  // run must fail the warm run identically, even though the warm run's
  // regions come from the cache.
  QueryOptions tight;
  tight.max_regions = 1;
  auto cold = cached_->Execute(kQuery, ExecutionMode::kAuto, tight);
  auto warm = cached_->Execute(kQuery, ExecutionMode::kAuto, tight);
  // Auto mode degrades a blown region budget to the baseline, so both
  // must *succeed* via the same fallback — or fail the same way.
  ASSERT_EQ(cold.ok(), warm.ok());
  if (cold.ok()) {
    EXPECT_EQ(cold->regions, warm->regions);
    EXPECT_EQ(cold->stats.strategy, warm->stats.strategy);
  } else {
    EXPECT_EQ(cold.status().code(), warm.status().code());
  }
}

TEST_F(CacheSystemTest, DisablingCachesRestoresUncachedBehavior) {
  ExpectAgree();
  cached_->SetCacheOptions(CacheOptions{});
  EXPECT_FALSE(cached_->cache_options().enabled);
  QueryResult r = Run(cached_.get());
  EXPECT_EQ(r.stats.algebra.cache_hits, 0u);
  CacheStats stats = cached_->cache_stats();
  EXPECT_EQ(stats.plan_hits + stats.plan_misses + stats.eval_hits +
                stats.eval_misses,
            0u);
  ExpectAgree();
}

TEST_F(CacheSystemTest, InjectStaleServesPreMutationAnswers) {
  // The planted bug the fuzzer's cache leg exists to catch: with
  // stale-cache armed a write keeps the old state's eval cache, so after
  // a mutation the cached system keeps answering from pre-mutation state.
  ScopedFaultInjector planted({planted_bug::kStaleCache, 1});
  cached_->SetCacheOptions(CacheOptions::Enabled());
  QueryResult before = Run(cached_.get());
  ASSERT_TRUE(cached_->AddFile("extra.bib", kExtraRef).ok());
  ASSERT_TRUE(plain_->AddFile("extra.bib", kExtraRef).ok());
  QueryResult stale = Run(cached_.get());
  QueryResult fresh = Run(plain_.get());
  EXPECT_EQ(stale.regions, before.regions)
      << "stale-cache should have pinned the pre-mutation answer";
  EXPECT_NE(stale.regions, fresh.regions)
      << "the planted bug must be observable";
}

TEST_F(CacheSystemTest, LastSnapshotDropsOnAWorkerWhileTheWriterPublishes) {
  // Each round a worker queries the only snapshot of the current state,
  // filling that state's eval cache, and drops it — freeing the cache on
  // the worker — while this thread's write publishes the next state.
  // Run under TSan this checks that the shared counters need no lock.
  const std::string both = std::string(kRefs) + kExtraRef;
  for (int round = 0; round < 20; ++round) {
    auto snapshot = cached_->AcquireSnapshot();
    ASSERT_TRUE(snapshot.ok());
    std::thread worker([this, pinned = std::move(*snapshot)]() mutable {
      EXPECT_TRUE(cached_->ExecuteOnSnapshot(*pinned, kQuery).ok());
      pinned.reset();
    });
    ASSERT_TRUE(
        cached_->UpdateFile("refs.bib", round % 2 == 0 ? both : kRefs).ok());
    worker.join();
  }
  // Every snapshot is gone and the live state was never queried: every
  // freed cache handed its regions back.
  CacheStats stats = cached_->cache_stats();
  EXPECT_GT(stats.eval_misses, 0u);
  EXPECT_EQ(stats.eval_regions_cached, 0u);
}

}  // namespace
}  // namespace qof
