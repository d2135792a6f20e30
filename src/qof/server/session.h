#ifndef QOF_SERVER_SESSION_H_
#define QOF_SERVER_SESSION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "qof/engine/snapshot.h"
#include "qof/exec/exec_context.h"

namespace qof {

/// One client's view of the query service: a pinned index snapshot
/// (repeatable reads — the session sees one generation until it mutates
/// or refreshes), a cancellation handle for its in-flight queries, and
/// per-session counters. Thread-safe: the connection thread repins /
/// cancels while worker threads read the snapshot and finish queries.
class ClientSession {
 public:
  ClientSession(uint64_t id, SnapshotRef snapshot)
      : id_(id),
        snapshot_(std::move(snapshot)),
        cancel_(std::make_shared<CancelToken>()) {}

  ClientSession(const ClientSession&) = delete;
  ClientSession& operator=(const ClientSession&) = delete;

  uint64_t id() const { return id_; }

  /// The snapshot queries submitted right now will run against.
  SnapshotRef snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return snapshot_;
  }

  /// Points the session at a newer snapshot (after its own mutation —
  /// read-your-writes — or an explicit REFRESH). Queries already in
  /// flight keep the snapshot they captured at submit time.
  void Repin(SnapshotRef snapshot) {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot_ = std::move(snapshot);
  }

  uint64_t pinned_generation() const {
    std::lock_guard<std::mutex> lock(mu_);
    return snapshot_->maintain.generation;
  }

  /// The token queries submitted right now carry (unless the caller
  /// supplied its own). CancelActive swaps in a fresh token, so
  /// cancellation hits exactly the queries in flight at that moment.
  std::shared_ptr<CancelToken> cancel_token() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cancel_;
  }

  /// Cancels every query currently carrying the session token; later
  /// submissions get a fresh, uncancelled token.
  void CancelActive() {
    std::shared_ptr<CancelToken> old;
    {
      std::lock_guard<std::mutex> lock(mu_);
      old = std::move(cancel_);
      cancel_ = std::make_shared<CancelToken>();
    }
    old->Cancel();
  }

  void RecordQuery() { queries_.fetch_add(1, std::memory_order_relaxed); }
  void RecordMutation() {
    mutations_.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t queries() const {
    return queries_.load(std::memory_order_relaxed);
  }
  uint64_t mutations() const {
    return mutations_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mu_;
  const uint64_t id_;
  SnapshotRef snapshot_;
  std::shared_ptr<CancelToken> cancel_;
  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> mutations_{0};
};

}  // namespace qof

#endif  // QOF_SERVER_SESSION_H_
