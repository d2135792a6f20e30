#include "qof/cache/cache.h"

namespace qof {

std::shared_ptr<const PlanCache::Entry> PlanCache::Lookup(
    const std::string& fql) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(fql);
  if (it == map_.end()) {
    counters_->plan_misses.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  counters_->plan_hits.fetch_add(1, std::memory_order_relaxed);
  return it->second.entry;
}

void PlanCache::Insert(const std::string& fql,
                       std::shared_ptr<const Entry> entry) {
  if (entry == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(fql);
  if (it != map_.end()) {
    it->second.entry = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return;
  }
  lru_.push_front(fql);
  map_[fql] = Slot{std::move(entry), lru_.begin()};
  while (map_.size() > max_plans_) {
    map_.erase(lru_.back());
    lru_.pop_back();
    counters_->plan_evictions.fetch_add(1, std::memory_order_relaxed);
  }
}

bool PlanCache::empty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.empty();
}

}  // namespace qof
