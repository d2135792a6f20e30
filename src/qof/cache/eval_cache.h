#ifndef QOF_CACHE_EVAL_CACHE_H_
#define QOF_CACHE_EVAL_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

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
  uint64_t eval_regions_cached = 0;  // currently retained
  uint64_t invalidations = 0;        // epoch flushes + explicit clears
};

/// Identifies one index state: entries cached under a different epoch are
/// never served *to a query running under it*. `generation` counts
/// mutations; `compactions` must ride along because Compact() rebases
/// region/posting offsets *without* bumping the generation; `build`
/// counts full index rebuilds/imports (which replace the compiler and may
/// change the index spec), so an epoch is globally unique across the
/// system's whole lifetime — required now that snapshots (see
/// qof/engine/snapshot.h) can keep an old epoch's entries alive across a
/// rebuild.
struct CacheEpoch {
  uint64_t generation = 0;
  uint64_t compactions = 0;
  uint64_t build = 0;

  friend bool operator==(const CacheEpoch& a, const CacheEpoch& b) {
    return a.generation == b.generation && a.compactions == b.compactions &&
           a.build == b.build;
  }
  friend bool operator!=(const CacheEpoch& a, const CacheEpoch& b) {
    return !(a == b);
  }
  /// Epochs are totally ordered by time: `build` dominates (a rebuild may
  /// reset the maintainer's compaction count), then generation, then
  /// compactions — each monotonic within one build. The cache uses this
  /// to advance only forwards: a pinned snapshot querying under an old
  /// epoch must never drag the current epoch backwards.
  friend bool operator<(const CacheEpoch& a, const CacheEpoch& b) {
    if (a.build != b.build) return a.build < b.build;
    if (a.generation != b.generation) return a.generation < b.generation;
    return a.compactions < b.compactions;
  }
};

/// LRU map from a serialized region expression (plus the index epoch it
/// was evaluated under) to the resulting RegionSet, shared immutably with
/// every consumer. Thm 3.6 normal forms are canonical and re-parseable,
/// so the serialized expression is a perfect key. Bounded by total
/// regions retained, not entry count — the budget-relevant quantity.
/// Thread-safe; sits below the algebra evaluator, which consults it.
///
/// Retention is *per epoch*, not wholesale: entries are keyed by
/// (epoch, expression), and when the current epoch advances, entries of
/// the old epoch are pruned — unless that epoch is pinned by a live
/// snapshot (Pin/Unpin), in which case they survive and keep serving the
/// snapshot's queries. This is what makes mutations cheap for pinned
/// readers: an unrelated UpdateFile no longer costs them their warm
/// cache.
class EvalCache {
 public:
  explicit EvalCache(uint64_t max_regions) : max_regions_(max_regions) {}

  /// Returns the cached set for (`epoch`, `key`), or null. An `epoch`
  /// newer than any seen so far advances the cache's notion of "current"
  /// and prunes entries of unpinned stale epochs. Under the armed
  /// stale-cache planted bug entries are keyed by expression alone — old-
  /// generation entries keep being served after mutations, which the
  /// fuzzer's cache rows exist to catch (--inject stale-cache).
  std::shared_ptr<const RegionSet> Lookup(const std::string& key,
                                          const CacheEpoch& epoch);

  void Insert(const std::string& key, const CacheEpoch& epoch,
              std::shared_ptr<const RegionSet> set);

  /// Marks `epoch` as pinned by a live snapshot: its entries survive
  /// epoch advances until the matching Unpin. Pins nest (refcounted).
  void Pin(const CacheEpoch& epoch);

  /// Releases one pin. When the last pin on a non-current epoch drops,
  /// its entries are reclaimed immediately (not counted as an
  /// invalidation — nothing a live query could still see was discarded).
  void Unpin(const CacheEpoch& epoch);

  /// Eagerly advances the current epoch (rebuild/import paths call this
  /// the moment the new index state is published, so stats reflect the
  /// flush without waiting for the next query).
  void AdvanceEpoch(const CacheEpoch& epoch);

  void Clear();
  CacheStats stats() const;

 private:
  void AdvanceEpochLocked(const CacheEpoch& epoch);
  void ErasePlainLocked(const std::string& composite);
  bool IsPinnedLocked(const CacheEpoch& epoch) const;
  void EvictIfNeededLocked();
  std::string CompositeKey(const std::string& key,
                           const CacheEpoch& epoch) const;

  const uint64_t max_regions_;
  mutable std::mutex mu_;
  CacheEpoch epoch_;
  std::list<std::string> lru_;  // front = most recent (composite keys)
  struct Slot {
    std::shared_ptr<const RegionSet> set;
    CacheEpoch epoch;
    std::list<std::string>::iterator lru_it;
  };
  std::unordered_map<std::string, Slot> map_;
  /// Live snapshot pins: (epoch, refcount). A handful at most, so a flat
  /// vector beats a map.
  std::vector<std::pair<CacheEpoch, int>> pins_;
  uint64_t regions_cached_ = 0;
  CacheStats stats_;
};

}  // namespace qof

#endif  // QOF_CACHE_EVAL_CACHE_H_
