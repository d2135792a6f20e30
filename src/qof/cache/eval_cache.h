#ifndef QOF_CACHE_EVAL_CACHE_H_
#define QOF_CACHE_EVAL_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "qof/region/region_set.h"

namespace qof {

/// Counters for both query caches, exposed through
/// FileQuerySystem::cache_stats().
struct CacheStats {
  uint64_t plan_hits = 0;
  uint64_t plan_misses = 0;
  uint64_t plan_evictions = 0;
  uint64_t eval_hits = 0;
  uint64_t eval_misses = 0;
  uint64_t eval_evictions = 0;
  uint64_t eval_regions_cached = 0;  // currently retained, all caches
  uint64_t invalidations = 0;        // non-empty caches a new state retired
};

/// Regions all of one system's eval caches may retain together.
inline constexpr uint64_t kMaxCachedRegions = uint64_t{1} << 20;

/// What all of one system's caches share: the counters cache_stats()
/// reads, cumulative across the caches each new index state retires, and
/// the retained-region bound, which holds across every live cache rather
/// than per cache. Atomic: a cache fills on any thread querying a
/// snapshot and frees on whichever thread drops the last one.
struct CacheCounters {
  explicit CacheCounters(uint64_t max_regions = kMaxCachedRegions)
      : max_regions(max_regions) {}

  const uint64_t max_regions;
  std::atomic<uint64_t> plan_hits{0};
  std::atomic<uint64_t> plan_misses{0};
  std::atomic<uint64_t> plan_evictions{0};
  std::atomic<uint64_t> eval_hits{0};
  std::atomic<uint64_t> eval_misses{0};
  std::atomic<uint64_t> eval_evictions{0};
  std::atomic<uint64_t> eval_regions_cached{0};
  std::atomic<uint64_t> invalidations{0};

  CacheStats stats() const;
};

/// LRU map from a serialized region expression to the resulting
/// RegionSet, shared immutably with every consumer. Thm 3.6 normal forms
/// are canonical and re-parseable, so the serialized expression is a
/// perfect key. Thread-safe; sits below the algebra evaluator, which
/// consults it.
///
/// One cache belongs to one index state (see qof/engine/snapshot.h):
/// every write publishes its new state with a fresh cache, so an entry
/// can only reach queries on the state that computed it, and the cache
/// frees with the last snapshot of that state. Bounded by total regions
/// retained across the system (CacheCounters::max_regions), not by entry
/// count: an insert that takes the total over the bound evicts from this
/// cache's own LRU.
class EvalCache {
 public:
  explicit EvalCache(std::shared_ptr<CacheCounters> counters =
                         std::make_shared<CacheCounters>());
  /// Returns the retained regions to the system-wide gauge.
  ~EvalCache();
  EvalCache(const EvalCache&) = delete;
  EvalCache& operator=(const EvalCache&) = delete;

  /// Returns the cached set for `key`, or null.
  std::shared_ptr<const RegionSet> Lookup(const std::string& key);

  void Insert(const std::string& key, std::shared_ptr<const RegionSet> set);

  bool empty() const;

 private:
  void EvictIfNeededLocked();

  const std::shared_ptr<CacheCounters> counters_;
  mutable std::mutex mu_;
  std::list<std::string> lru_;  // front = most recent
  struct Slot {
    std::shared_ptr<const RegionSet> set;
    std::list<std::string>::iterator lru_it;
  };
  std::unordered_map<std::string, Slot> map_;
  uint64_t regions_ = 0;  // this cache's share of eval_regions_cached
};

}  // namespace qof

#endif  // QOF_CACHE_EVAL_CACHE_H_
