#ifndef QOF_CACHE_CACHE_H_
#define QOF_CACHE_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "qof/cache/eval_cache.h"
#include "qof/compiler/query_compiler.h"
#include "qof/query/ast.h"

namespace qof {

/// Knobs for the two query caches (see FileQuerySystem::SetCacheOptions).
/// Both caches are off by default: enabling them never changes results —
/// only cost — which the fuzzer's cache rows cross-check byte-for-byte.
struct CacheOptions {
  /// Query text → parsed AST + compiled plan. Invalidated when the
  /// compiler changes (BuildIndexes / OpenStore); mutations do not
  /// invalidate plans, which depend only on the schema and the index
  /// spec — never on the indexed data.
  bool enable_plan_cache = false;
  /// Normal-form subexpression string + index epoch → shared immutable
  /// RegionSet (see qof/cache/eval_cache.h).
  bool enable_eval_cache = false;
  /// LRU capacity of the plan cache, in entries.
  size_t max_plans = 256;
  /// LRU capacity of the eval cache, in total regions retained.
  uint64_t max_cached_regions = 1u << 20;

  bool any() const { return enable_plan_cache || enable_eval_cache; }

  static CacheOptions Enabled() {
    CacheOptions o;
    o.enable_plan_cache = true;
    o.enable_eval_cache = true;
    return o;
  }
};

/// LRU map from FQL text to its parsed AST and (once compiled) plan.
/// Entries are immutable once published; an update replaces the whole
/// entry. Thread-safe.
class PlanCache {
 public:
  struct Entry {
    SelectQuery query;
    /// The build counter (FileQuerySystem's BuildIndexes/OpenStore
    /// count) the entry was parsed and compiled under. Entries are only
    /// served to executions of the same build: plans never depend on
    /// the indexed data, but they do depend on the compiler, which is
    /// replaced per build — and snapshot queries (which may publish
    /// entries concurrently) can outlive a rebuild.
    uint64_t build = 0;
    /// Null until the query was executed in an index-backed mode (the
    /// baseline never compiles).
    std::shared_ptr<const QueryPlan> plan;
  };

  explicit PlanCache(size_t max_plans) : max_plans_(max_plans) {}

  /// Returns the entry and refreshes its LRU position, or null.
  std::shared_ptr<const Entry> Lookup(const std::string& fql);

  /// Publishes (or replaces) the entry for `fql`.
  void Insert(const std::string& fql, std::shared_ptr<const Entry> entry);

  void Clear();
  CacheStats stats() const;

 private:
  void EvictIfNeededLocked();

  const size_t max_plans_;
  mutable std::mutex mu_;
  std::list<std::string> lru_;  // front = most recent
  struct Slot {
    std::shared_ptr<const Entry> entry;
    std::list<std::string>::iterator lru_it;
  };
  std::unordered_map<std::string, Slot> map_;
  CacheStats stats_;
};

}  // namespace qof

#endif  // QOF_CACHE_CACHE_H_
