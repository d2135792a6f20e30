#include "qof/cache/eval_cache.h"

namespace qof {

CacheStats CacheCounters::stats() const {
  CacheStats s;
  s.plan_hits = plan_hits.load(std::memory_order_relaxed);
  s.plan_misses = plan_misses.load(std::memory_order_relaxed);
  s.plan_evictions = plan_evictions.load(std::memory_order_relaxed);
  s.eval_hits = eval_hits.load(std::memory_order_relaxed);
  s.eval_misses = eval_misses.load(std::memory_order_relaxed);
  s.eval_evictions = eval_evictions.load(std::memory_order_relaxed);
  s.eval_regions_cached = eval_regions_cached.load(std::memory_order_relaxed);
  s.invalidations = invalidations.load(std::memory_order_relaxed);
  return s;
}

EvalCache::EvalCache(std::shared_ptr<CacheCounters> counters)
    : counters_(std::move(counters)) {}

EvalCache::~EvalCache() {
  counters_->eval_regions_cached.fetch_sub(regions_,
                                           std::memory_order_relaxed);
}

std::shared_ptr<const RegionSet> EvalCache::Lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) {
    counters_->eval_misses.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  counters_->eval_hits.fetch_add(1, std::memory_order_relaxed);
  return it->second.set;
}

void EvalCache::Insert(const std::string& key,
                       std::shared_ptr<const RegionSet> set) {
  if (set == nullptr || set->size() > counters_->max_regions) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = map_.try_emplace(key);
  if (inserted) {
    lru_.push_front(key);
    it->second.lru_it = lru_.begin();
  } else {
    // Two queries on one state missed the same key; keep the later set.
    regions_ -= it->second.set->size();
    counters_->eval_regions_cached.fetch_sub(it->second.set->size(),
                                             std::memory_order_relaxed);
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  }
  regions_ += set->size();
  counters_->eval_regions_cached.fetch_add(set->size(),
                                           std::memory_order_relaxed);
  it->second.set = std::move(set);
  EvictIfNeededLocked();
}

bool EvalCache::empty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.empty();
}

void EvalCache::EvictIfNeededLocked() {
  while (counters_->eval_regions_cached.load(std::memory_order_relaxed) >
             counters_->max_regions &&
         !lru_.empty()) {
    auto it = map_.find(lru_.back());
    const uint64_t size = it->second.set->size();
    regions_ -= size;
    counters_->eval_regions_cached.fetch_sub(size, std::memory_order_relaxed);
    map_.erase(it);
    lru_.pop_back();
    counters_->eval_evictions.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace qof
