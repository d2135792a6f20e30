#ifndef QOF_SERVER_SERVICE_H_
#define QOF_SERVER_SERVICE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "qof/engine/system.h"
#include "qof/server/session.h"
#include "qof/util/result.h"
#include "qof/util/status.h"
#include "qof/util/thread_pool.h"

namespace qof {

/// Service configuration. `limits` are per-query ceilings: a session may
/// ask for less, never for more — each nonzero field clamps the
/// corresponding QueryOptions field of every submitted query, so one
/// client cannot exhaust the service however generous its own options.
struct ServiceOptions {
  /// Query worker threads (resolved via EffectiveParallelism; 0 = one
  /// per hardware thread).
  int workers = 2;
  /// Queries accepted but not yet running; beyond this SubmitQuery
  /// refuses with kUnavailable (admission control). 0 = unbounded.
  size_t max_queued = 64;
  /// Per-query governance ceilings (deadline_ms / max_bytes /
  /// max_regions; zero fields impose no ceiling). Each query runs serial
  /// on its worker, so the thread budget is `workers`.
  QueryOptions limits;
};

struct ServiceStats {
  uint64_t sessions_opened = 0;
  uint64_t sessions_open = 0;
  uint64_t queries_submitted = 0;  // accepted by admission control
  uint64_t queries_rejected = 0;   // kUnavailable at the queue
  uint64_t queries_executed = 0;   // completed (ok or error)
  uint64_t queries_failed = 0;     // completed with a non-OK status
  uint64_t mutations = 0;
  uint64_t refreshes = 0;
};

/// The multi-client query service: sessions with generation-snapshot
/// isolation over one FileQuerySystem, a bounded worker pool for query
/// execution, and admission control at the queue.
///
/// Concurrency model (see FileQuerySystem's snapshot contract):
///  - Every query runs on a worker thread against the snapshot its
///    session had pinned at submit time — never against live state — so
///    queries from any number of sessions run concurrently with each
///    other and with mutations.
///  - Mutations are serialized by the engine. After a session's own
///    mutation the service repins that session to the new state
///    (read-your-writes); other sessions keep their pins until they
///    mutate, REFRESH, or close (repeatable reads).
///  - CancelActive(sid) cancels that session's in-flight queries from
///    any thread; they unwind with kCancelled at the next governance
///    checkpoint.
///
/// The system must outlive the service. The service takes over all
/// mutation traffic: callers must not mutate the system directly while
/// the service runs (live Execute on the system is likewise unsafe).
class QueryService {
 public:
  /// The system must have built indexes (snapshots require them).
  QueryService(FileQuerySystem* system, ServiceOptions options = {});
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Opens a session pinned to the current index state.
  Result<uint64_t> OpenSession();

  /// Drops the session and its pin (freeing copy-on-write state its
  /// snapshot kept alive, once in-flight queries finish).
  Status CloseSession(uint64_t session_id);

  /// Submits `fql` for asynchronous execution on the session's pinned
  /// snapshot; `done` runs on a worker thread with the result. Returns
  /// kUnavailable (without calling `done`) when the queue is full, and
  /// kNotFound for unknown sessions. `options` are clamped to the
  /// service limits; when `options.cancel` is null the session's cancel
  /// token is attached, so CancelActive reaches the query.
  Status SubmitQuery(uint64_t session_id, std::string fql,
                     const QueryOptions& options,
                     std::function<void(Result<QueryResult>)> done);

  /// Blocking convenience wrapper around SubmitQuery.
  Result<QueryResult> Query(uint64_t session_id, std::string_view fql,
                            const QueryOptions& options = {});

  /// Mutations: applied to the live system (serialized internally),
  /// then the mutating session is repinned to the post-mutation state.
  Status AddFile(uint64_t session_id, std::string name,
                 std::string_view text);
  Status UpdateFile(uint64_t session_id, std::string_view name,
                    std::string_view text);
  Status RemoveFile(uint64_t session_id, std::string_view name);
  Status Compact(uint64_t session_id);

  /// Repins the session to the current index state without mutating.
  Status Refresh(uint64_t session_id);

  /// Cancels the session's in-flight queries (cross-thread safe).
  Status CancelActive(uint64_t session_id);

  /// The generation / epoch the session's queries currently see.
  Result<uint64_t> SessionGeneration(uint64_t session_id) const;
  Result<CacheEpoch> SessionEpoch(uint64_t session_id) const;
  Result<uint64_t> SessionQueryCount(uint64_t session_id) const;

  ServiceStats stats() const;
  const ServiceOptions& options() const { return options_; }
  FileQuerySystem* system() const { return system_; }

  /// Stops intake, drains accepted queries, joins the workers.
  /// Idempotent; the destructor calls it.
  void Shutdown();

 private:
  std::shared_ptr<ClientSession> FindSession(uint64_t session_id) const;

  /// Applies the clamp + session cancel token to one query's options.
  QueryOptions EffectiveOptions(const ClientSession& session,
                                QueryOptions options) const;

  /// Repins `session` to the current state; shared by mutations
  /// (read-your-writes) and Refresh.
  Status RepinToCurrent(ClientSession& session);

  FileQuerySystem* const system_;
  const ServiceOptions options_;

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::shared_ptr<ClientSession>> sessions_;
  uint64_t next_session_id_ = 1;

  mutable std::mutex stats_mu_;
  ServiceStats stats_;

  /// Last: destroyed first, so draining workers still find the maps.
  TaskQueue queue_;
};

}  // namespace qof

#endif  // QOF_SERVER_SERVICE_H_
