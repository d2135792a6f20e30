#ifndef QOF_CACHE_CACHE_H_
#define QOF_CACHE_CACHE_H_

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "qof/cache/eval_cache.h"
#include "qof/compiler/query_compiler.h"
#include "qof/query/ast.h"

namespace qof {

/// The switch for the two query caches (see
/// FileQuerySystem::SetCacheOptions). Off by default: enabling them never
/// changes results — only cost — which the fuzzer's cache rows
/// cross-check byte-for-byte. The plan cache maps FQL text to its parsed
/// AST and compiled plan; the eval cache maps normal-form subexpression
/// strings to shared immutable RegionSets (qof/cache/eval_cache.h).
struct CacheOptions {
  bool enabled = false;

  static CacheOptions Enabled() { return CacheOptions{true}; }
};

/// Plans one plan cache retains.
inline constexpr size_t kMaxCachedPlans = 256;

/// LRU map from FQL text to its parsed AST and (once compiled) plan.
/// Entries are immutable once published; an update replaces the whole
/// entry. Thread-safe.
///
/// One cache belongs to one build: plans depend on the compiler, which
/// BuildIndexes / OpenStore replace along with a fresh plan cache, and
/// never on the indexed data, so writes keep it.
class PlanCache {
 public:
  struct Entry {
    SelectQuery query;
    /// Null until the query was executed in an index-backed mode (the
    /// baseline never compiles).
    std::shared_ptr<const QueryPlan> plan;
  };

  explicit PlanCache(std::shared_ptr<CacheCounters> counters =
                         std::make_shared<CacheCounters>(),
                     size_t max_plans = kMaxCachedPlans)
      : counters_(std::move(counters)), max_plans_(max_plans) {}

  /// Returns the entry and refreshes its LRU position, or null.
  std::shared_ptr<const Entry> Lookup(const std::string& fql);

  /// Publishes (or replaces) the entry for `fql`.
  void Insert(const std::string& fql, std::shared_ptr<const Entry> entry);

  bool empty() const;

 private:
  const std::shared_ptr<CacheCounters> counters_;
  const size_t max_plans_;
  mutable std::mutex mu_;
  std::list<std::string> lru_;  // front = most recent
  struct Slot {
    std::shared_ptr<const Entry> entry;
    std::list<std::string>::iterator lru_it;
  };
  std::unordered_map<std::string, Slot> map_;
};

}  // namespace qof

#endif  // QOF_CACHE_CACHE_H_
