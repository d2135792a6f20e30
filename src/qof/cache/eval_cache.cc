#include "qof/cache/eval_cache.h"

#include "qof/exec/fault_injector.h"

namespace qof {

std::string EvalCache::CompositeKey(const std::string& key,
                                    const CacheEpoch& epoch) const {
  // Under the planted bug entries are keyed by expression alone, so the
  // epoch check vanishes and stale answers keep flowing.
  if (PlantedBugArmed(planted_bug::kStaleCache)) return key;
  return std::to_string(epoch.build) + ':' + std::to_string(epoch.generation) +
         ':' + std::to_string(epoch.compactions) + '|' + key;
}

bool EvalCache::IsPinnedLocked(const CacheEpoch& epoch) const {
  for (const auto& [pinned, count] : pins_) {
    if (pinned == epoch && count > 0) return true;
  }
  return false;
}

void EvalCache::ErasePlainLocked(const std::string& composite) {
  auto it = map_.find(composite);
  if (it == map_.end()) return;
  regions_cached_ -= it->second.set->size();
  lru_.erase(it->second.lru_it);
  map_.erase(it);
}

void EvalCache::AdvanceEpochLocked(const CacheEpoch& epoch) {
  // Only ever move forwards: a snapshot query running under a pinned old
  // epoch must not reset "current" and prune the live state's entries.
  if (!(epoch_ < epoch)) return;
  if (!PlantedBugArmed(planted_bug::kStaleCache)) {
    // Prune entries of epochs no live snapshot pins. Entries of pinned
    // epochs survive — that is the whole point of per-generation
    // retention: a mutation must not cost pinned readers their warm
    // cache.
    uint64_t pruned = 0;
    for (auto it = map_.begin(); it != map_.end();) {
      if (it->second.epoch != epoch && !IsPinnedLocked(it->second.epoch)) {
        regions_cached_ -= it->second.set->size();
        lru_.erase(it->second.lru_it);
        it = map_.erase(it);
        ++pruned;
      } else {
        ++it;
      }
    }
    if (pruned > 0) ++stats_.invalidations;
    stats_.eval_regions_cached = regions_cached_;
  }
  epoch_ = epoch;
}

std::shared_ptr<const RegionSet> EvalCache::Lookup(const std::string& key,
                                                   const CacheEpoch& epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  AdvanceEpochLocked(epoch);
  auto it = map_.find(CompositeKey(key, epoch));
  if (it == map_.end()) {
    ++stats_.eval_misses;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  ++stats_.eval_hits;
  return it->second.set;
}

void EvalCache::Insert(const std::string& key, const CacheEpoch& epoch,
                       std::shared_ptr<const RegionSet> set) {
  if (set == nullptr || set->size() > max_regions_) return;
  std::lock_guard<std::mutex> lock(mu_);
  AdvanceEpochLocked(epoch);
  std::string composite = CompositeKey(key, epoch);
  auto it = map_.find(composite);
  if (it != map_.end()) {
    regions_cached_ -= it->second.set->size();
    regions_cached_ += set->size();
    it->second.set = std::move(set);
    it->second.epoch = epoch;
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  } else {
    regions_cached_ += set->size();
    lru_.push_front(composite);
    map_[composite] = Slot{std::move(set), epoch, lru_.begin()};
  }
  stats_.eval_regions_cached = regions_cached_;
  EvictIfNeededLocked();
}

void EvalCache::Pin(const CacheEpoch& epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [pinned, count] : pins_) {
    if (pinned == epoch) {
      ++count;
      return;
    }
  }
  pins_.emplace_back(epoch, 1);
}

void EvalCache::Unpin(const CacheEpoch& epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = pins_.begin(); it != pins_.end(); ++it) {
    if (it->first != epoch) continue;
    if (--it->second > 0) return;
    pins_.erase(it);
    // Last pin dropped: if the epoch is no longer current its entries can
    // never be served again — reclaim them now rather than waiting for
    // the next epoch advance. Not an invalidation: no live query could
    // still observe these entries.
    if (epoch != epoch_ && !PlantedBugArmed(planted_bug::kStaleCache)) {
      for (auto e = map_.begin(); e != map_.end();) {
        if (e->second.epoch == epoch) {
          regions_cached_ -= e->second.set->size();
          lru_.erase(e->second.lru_it);
          e = map_.erase(e);
        } else {
          ++e;
        }
      }
      stats_.eval_regions_cached = regions_cached_;
    }
    return;
  }
}

void EvalCache::AdvanceEpoch(const CacheEpoch& epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  AdvanceEpochLocked(epoch);
}

void EvalCache::EvictIfNeededLocked() {
  while (regions_cached_ > max_regions_ && !lru_.empty()) {
    auto it = map_.find(lru_.back());
    regions_cached_ -= it->second.set->size();
    map_.erase(it);
    lru_.pop_back();
    ++stats_.eval_evictions;
  }
  stats_.eval_regions_cached = regions_cached_;
}

void EvalCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  lru_.clear();
  regions_cached_ = 0;
  stats_.eval_regions_cached = 0;
  ++stats_.invalidations;
}

CacheStats EvalCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace qof
