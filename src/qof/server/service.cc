#include "qof/server/service.h"

#include <algorithm>
#include <future>
#include <utility>

#include "qof/exec/fault_injector.h"

namespace qof {
namespace {

/// min over "0 = unlimited" values: the tighter of two ceilings.
uint64_t TightenLimit(uint64_t requested, uint64_t ceiling) {
  if (ceiling == 0) return requested;
  if (requested == 0) return ceiling;
  return std::min(requested, ceiling);
}

}  // namespace

QueryService::QueryService(FileQuerySystem* system, ServiceOptions options)
    : system_(system),
      options_(options),
      queue_(options.workers, options.max_queued) {}

QueryService::~QueryService() { Shutdown(); }

void QueryService::Shutdown() { queue_.Shutdown(); }

Result<uint64_t> QueryService::OpenSession() {
  QOF_ASSIGN_OR_RETURN(SnapshotRef snapshot, system_->AcquireSnapshot());
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t id = next_session_id_++;
  sessions_.emplace(
      id, std::make_shared<ClientSession>(id, std::move(snapshot)));
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    ++stats_.sessions_opened;
    stats_.sessions_open = sessions_.size();
  }
  return id;
}

Status QueryService::CloseSession(uint64_t session_id) {
  std::shared_ptr<ClientSession> session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(session_id);
    if (it == sessions_.end()) {
      return Status::NotFound("no session " + std::to_string(session_id));
    }
    session = std::move(it->second);
    sessions_.erase(it);
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    stats_.sessions_open = sessions_.size();
  }
  // In-flight queries hold their own SnapshotRef + session reference;
  // the pin releases when the last of them finishes.
  return Status::OK();
}

std::shared_ptr<ClientSession> QueryService::FindSession(
    uint64_t session_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session_id);
  return it == sessions_.end() ? nullptr : it->second;
}

QueryOptions QueryService::EffectiveOptions(const ClientSession& session,
                                            QueryOptions options) const {
  const QueryOptions& limits = options_.limits;
  options.deadline_ms = TightenLimit(options.deadline_ms, limits.deadline_ms);
  options.max_bytes = TightenLimit(options.max_bytes, limits.max_bytes);
  options.max_regions = TightenLimit(options.max_regions, limits.max_regions);
  if (options.cancel == nullptr) {
    options.cancel = session.cancel_token();
  }
  return options;
}

Status QueryService::SubmitQuery(
    uint64_t session_id, std::string fql, const QueryOptions& options,
    std::function<void(Result<QueryResult>)> done) {
  std::shared_ptr<ClientSession> session = FindSession(session_id);
  if (session == nullptr) {
    return Status::NotFound("no session " + std::to_string(session_id));
  }
  QueryOptions effective = EffectiveOptions(*session, options);
  // Snapshot captured at submit time: a repin (mutation / refresh)
  // between submit and execution must not retroactively move the query.
  SnapshotRef snapshot = session->snapshot();
  bool accepted = queue_.TrySubmit(
      [this, session = std::move(session), snapshot = std::move(snapshot),
       fql = std::move(fql), effective, done = std::move(done)]() {
        SnapshotRef target = snapshot;
        if (PlantedBugArmed(planted_bug::kStaleSnapshot)) {
          // Planted bug: serve the query from the *live* state, breaking
          // the session's repeatable-read pin.
          auto fresh = system_->AcquireSnapshot();
          if (fresh.ok()) target = *std::move(fresh);
        }
        Result<QueryResult> result = system_->ExecuteOnSnapshot(
            *target, fql, ExecutionMode::kAuto, effective);
        session->RecordQuery();
        {
          std::lock_guard<std::mutex> stats_lock(stats_mu_);
          ++stats_.queries_executed;
          if (!result.ok()) ++stats_.queries_failed;
        }
        if (done) done(std::move(result));
      });
  std::lock_guard<std::mutex> stats_lock(stats_mu_);
  if (!accepted) {
    ++stats_.queries_rejected;
    return Status::Unavailable(
        "query queue full (" + std::to_string(queue_.queued()) +
        " queued); retry");
  }
  ++stats_.queries_submitted;
  return Status::OK();
}

Result<QueryResult> QueryService::Query(uint64_t session_id,
                                        std::string_view fql,
                                        const QueryOptions& options) {
  auto promise = std::make_shared<std::promise<Result<QueryResult>>>();
  std::future<Result<QueryResult>> future = promise->get_future();
  Status submitted = SubmitQuery(
      session_id, std::string(fql), options,
      [promise](Result<QueryResult> result) {
        promise->set_value(std::move(result));
      });
  if (!submitted.ok()) return submitted;
  return future.get();
}

Status QueryService::RepinToCurrent(ClientSession& session) {
  QOF_ASSIGN_OR_RETURN(SnapshotRef snapshot, system_->AcquireSnapshot());
  session.Repin(std::move(snapshot));
  return Status::OK();
}

Status QueryService::AddFile(uint64_t session_id, std::string name,
                             std::string_view text) {
  std::shared_ptr<ClientSession> session = FindSession(session_id);
  if (session == nullptr) {
    return Status::NotFound("no session " + std::to_string(session_id));
  }
  QOF_RETURN_IF_ERROR(system_->AddFile(std::move(name), text));
  session->RecordMutation();
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    ++stats_.mutations;
  }
  return RepinToCurrent(*session);
}

Status QueryService::UpdateFile(uint64_t session_id, std::string_view name,
                                std::string_view text) {
  std::shared_ptr<ClientSession> session = FindSession(session_id);
  if (session == nullptr) {
    return Status::NotFound("no session " + std::to_string(session_id));
  }
  QOF_RETURN_IF_ERROR(system_->UpdateFile(name, text));
  session->RecordMutation();
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    ++stats_.mutations;
  }
  return RepinToCurrent(*session);
}

Status QueryService::RemoveFile(uint64_t session_id, std::string_view name) {
  std::shared_ptr<ClientSession> session = FindSession(session_id);
  if (session == nullptr) {
    return Status::NotFound("no session " + std::to_string(session_id));
  }
  QOF_RETURN_IF_ERROR(system_->RemoveFile(name));
  session->RecordMutation();
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    ++stats_.mutations;
  }
  return RepinToCurrent(*session);
}

Status QueryService::Compact(uint64_t session_id) {
  std::shared_ptr<ClientSession> session = FindSession(session_id);
  if (session == nullptr) {
    return Status::NotFound("no session " + std::to_string(session_id));
  }
  QOF_RETURN_IF_ERROR(system_->CompactIndexes());
  session->RecordMutation();
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    ++stats_.mutations;
  }
  return RepinToCurrent(*session);
}

Status QueryService::Refresh(uint64_t session_id) {
  std::shared_ptr<ClientSession> session = FindSession(session_id);
  if (session == nullptr) {
    return Status::NotFound("no session " + std::to_string(session_id));
  }
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    ++stats_.refreshes;
  }
  return RepinToCurrent(*session);
}

Status QueryService::CancelActive(uint64_t session_id) {
  std::shared_ptr<ClientSession> session = FindSession(session_id);
  if (session == nullptr) {
    return Status::NotFound("no session " + std::to_string(session_id));
  }
  session->CancelActive();
  return Status::OK();
}

Result<uint64_t> QueryService::SessionGeneration(uint64_t session_id) const {
  std::shared_ptr<ClientSession> session = FindSession(session_id);
  if (session == nullptr) {
    return Status::NotFound("no session " + std::to_string(session_id));
  }
  return session->pinned_generation();
}

Result<uint64_t> QueryService::SessionQueryCount(uint64_t session_id) const {
  std::shared_ptr<ClientSession> session = FindSession(session_id);
  if (session == nullptr) {
    return Status::NotFound("no session " + std::to_string(session_id));
  }
  return session->queries();
}

ServiceStats QueryService::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

}  // namespace qof
