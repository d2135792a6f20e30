#ifndef QOF_EXEC_EXEC_CONTEXT_H_
#define QOF_EXEC_EXEC_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include "qof/util/status.h"

namespace qof {

/// Cooperative cancellation handle. The party that wants to stop a
/// running query calls Cancel() from any thread; execution notices at
/// the next governance checkpoint and unwinds with kCancelled.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Per-call resource limits. All limits default to "unlimited"; a
/// default-constructed QueryOptions makes execution behave exactly as it
/// did before governance existed (the engine skips every checkpoint).
struct QueryOptions {
  /// Wall-clock budget in milliseconds, armed when execution starts.
  /// 0 = no deadline.
  uint64_t deadline_ms = 0;
  /// Maximum corpus bytes the call may scan (parsing, phrase
  /// verification, baseline scans all count). 0 = unlimited.
  uint64_t max_bytes = 0;
  /// Maximum regions algebra operators may produce across the call —
  /// bounds intermediate-result explosion on index-backed plans.
  /// 0 = unlimited.
  uint64_t max_regions = 0;
  /// When a governance limit trips mid-query, return the results
  /// verified so far with QueryStats::truncated set instead of a typed
  /// error.
  bool soft_fail = false;
  /// Optional external cancellation handle, shared with whoever may
  /// cancel the call.
  std::shared_ptr<CancelToken> cancel;

  bool unlimited() const {
    return deadline_ms == 0 && max_bytes == 0 && max_regions == 0 &&
           cancel == nullptr;
  }
};

/// Execution-scoped governance state: an armed deadline, budget
/// counters, and a stop flag recording that a limit tripped. One
/// ExecContext lives for the duration of a single engine call (query,
/// index build, mutation); it is shared by all worker threads of that
/// call. All methods are thread-safe.
///
/// Engine code receives `const ExecContext*` and treats nullptr as
/// "ungoverned" — every checkpoint is then a single branch.
class ExecContext {
 public:
  /// Inactive context: Check() always succeeds.
  ExecContext() = default;

  /// Arms the deadline clock at construction time.
  explicit ExecContext(const QueryOptions& options);

  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  /// False when no limit is configured; callers then pass nullptr down
  /// so the hot paths skip checkpoints entirely.
  bool active() const { return active_; }

  /// Points the byte budget at a live scanned-bytes counter (in
  /// practice Corpus::bytes_read_counter()). May be null.
  void set_scanned_bytes_counter(const std::atomic<uint64_t>* counter) {
    scanned_bytes_ = counter;
  }

  /// Full checkpoint: cancellation, byte budget, region budget,
  /// deadline — in that order. On failure the stop flag is set.
  Status Check() const;

  /// Adds `n` to the produced-region counter and fails with
  /// kBudgetExhausted once the region budget is exceeded. Cheap (no
  /// clock read); deadline checks are left to Check().
  Status ChargeRegions(uint64_t n) const;

  /// True once a limit tripped; never on an inactive context.
  bool stopped() const { return stop_.load(std::memory_order_relaxed); }

  /// True once the region budget specifically has tripped. The
  /// execution ladder uses this to degrade an exploding index plan to a
  /// scan instead of failing the query.
  bool regions_exhausted() const {
    return regions_exhausted_.load(std::memory_order_relaxed);
  }

  /// Regions charged so far (partial-progress reporting).
  uint64_t regions_charged() const {
    return regions_.load(std::memory_order_relaxed);
  }

  /// Re-arms the context for a fallback attempt after the region budget
  /// tripped: clears the region counter and the stop flag. Deadline,
  /// cancellation and the byte budget keep their state — only the
  /// per-attempt intermediate-result budget resets.
  void ResetForFallback() const;

  /// RAII installer of a thread-local "current" context. Layers the engine
  /// does not thread an ExecContext* through explicitly — the buffer
  /// pool's page-fetch path — call CurrentThread() at their blocking
  /// points so a governed call's deadline and cancellation reach into the
  /// disk tier. Scopes nest (a nested engine call restores the outer
  /// context on exit); a null/inactive context installs nothing.
  class ThreadScope {
   public:
    explicit ThreadScope(const ExecContext* ctx) : prev_(current_) {
      current_ = (ctx != nullptr && ctx->active()) ? ctx : prev_;
    }
    ~ThreadScope() { current_ = prev_; }
    ThreadScope(const ThreadScope&) = delete;
    ThreadScope& operator=(const ThreadScope&) = delete;

   private:
    const ExecContext* prev_;
  };

  /// The context installed on this thread, or nullptr when ungoverned.
  static const ExecContext* CurrentThread() { return current_; }

 private:
  static thread_local const ExecContext* current_;

  bool active_ = false;
  uint64_t deadline_ms_ = 0;
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
  uint64_t max_bytes_ = 0;
  uint64_t max_regions_ = 0;
  std::shared_ptr<CancelToken> cancel_;
  const std::atomic<uint64_t>* scanned_bytes_ = nullptr;
  mutable std::atomic<uint64_t> regions_{0};
  mutable std::atomic<bool> regions_exhausted_{false};
  mutable std::atomic<bool> stop_{false};
};

/// True for the three governance codes (deadline/cancelled/budget) —
/// errors that describe the caller's limits rather than the data.
/// Rollback-based control flow (the schema parser's star backtracking)
/// must propagate these instead of swallowing them.
bool IsGovernanceError(const Status& status);

}  // namespace qof

#endif  // QOF_EXEC_EXEC_CONTEXT_H_
