#include "qof/fuzz/session_leg.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "qof/engine/system.h"
#include "qof/exec/fault_injector.h"
#include "qof/fuzz/canon.h"
#include "qof/fuzz/matrix.h"
#include "qof/fuzz/rng.h"
#include "qof/server/service.h"

namespace qof {
namespace {

/// Ground truth per generation: a fresh single-threaded system built
/// from the original docs with the first `k` mutations replayed
/// *incrementally* — the same calls the service host saw — so the
/// physical corpus layout (tombstones, appended tails) and therefore
/// region coordinates are byte-identical to the state a session pinned
/// at generation k. A from-scratch rebuild of the mutated docs would
/// not do: fragmentation shifts offsets.
class ReplayOracle {
 public:
  ReplayOracle(const StructuringSchema& schema,
               const CaseDocs& docs,
               const ConcreteCase& c)
      : schema_(schema), docs_(docs), c_(c),
        expected_(c.mutations.size() + 1) {}

  /// The canonical answer at generation k (k mutations applied).
  /// Replays lazily, memoized — at most one system per distinct pinned
  /// generation the schedule actually queries.
  Result<CanonExec> ExpectedAt(size_t k) {
    if (expected_[k].has_value()) return *expected_[k];
    FileQuerySystem replay(schema_);
    for (const auto& [name, text] : docs_) {
      QOF_RETURN_IF_ERROR(replay.AddFile(name, text));
    }
    replay.SetParallelism(1);
    QOF_RETURN_IF_ERROR(replay.BuildIndexes(IndexSpec::Full()));
    for (size_t i = 0; i < k; ++i) {
      Status applied = ApplyMutation(replay, c_.mutations[i]);
      if (!applied.ok()) {
        return Status::Internal("session replay: mutation " +
                                std::to_string(i) + " (" +
                                c_.mutations[i].name +
                                ") failed: " + applied.ToString());
      }
    }
    expected_[k] = Canon(replay.Execute(c_.fql, ExecutionMode::kAuto));
    return *expected_[k];
  }

 private:
  const StructuringSchema& schema_;
  const CaseDocs& docs_;
  const ConcreteCase& c_;
  std::vector<std::optional<CanonExec>> expected_;
};

}  // namespace

Status CheckSessions(
    const StructuringSchema& schema,
    const CaseDocs& docs,
    const ConcreteCase& c, const OracleOptions& options, uint64_t seed,
    std::string* failure) {
  auto fail = [&](const std::string& what) {
    *failure = "[session] " + what + " (fql: " + c.fql + ")";
    return Status::OK();
  };

  // The service host: caches on, so the leg also exercises pinned-epoch
  // eval-cache retention (a stale entry served across generations would
  // diverge from the replay).
  FileQuerySystem host(schema);
  for (const auto& [name, text] : docs) {
    QOF_RETURN_IF_ERROR(host.AddFile(name, text));
  }
  host.SetParallelism(1);
  host.SetCacheOptions(CacheOptions::Enabled());
  QOF_RETURN_IF_ERROR(host.BuildIndexes(IndexSpec::Full()));

  ServiceOptions service_options;
  service_options.workers = 2;
  service_options.max_queued = 0;  // unbounded: the schedule never rejects
  // Armed for the service's whole life (declared first, so it outlives
  // the workers); only the service reads the stale-snapshot bug.
  std::optional<ScopedFaultInjector> planted;
  if (options.bug == InjectedBug::kStaleSnapshot) {
    planted.emplace(FaultInjector::Spec{planted_bug::kStaleSnapshot});
  }
  QueryService service(&host, service_options);

  constexpr int kSessions = 3;
  uint64_t sids[kSessions];
  size_t pinned[kSessions];  // generation each session last pinned
  for (int s = 0; s < kSessions; ++s) {
    QOF_ASSIGN_OR_RETURN(sids[s], service.OpenSession());
    pinned[s] = 0;
  }
  ReplayOracle replay(schema, docs, c);
  FuzzRng rng(seed ^ 0x5e551011d5eedull);

  // One session's query checked against the replay at its pin.
  bool violated = false;
  auto check_query = [&](int s, const std::string& when) -> Status {
    QOF_ASSIGN_OR_RETURN(CanonExec want, replay.ExpectedAt(pinned[s]));
    CanonExec got = Canon(service.Query(sids[s], c.fql));
    std::string label = "session/s" + std::to_string(s) + "@gen" +
                        std::to_string(pinned[s]) + " " + when;
    if (!Agrees(label, want, got, c, failure)) violated = true;
    return Status::OK();
  };
  auto check_generation = [&](int s) -> Status {
    QOF_ASSIGN_OR_RETURN(uint64_t gen,
                         service.SessionGeneration(sids[s]));
    if (gen != pinned[s]) {
      fail("session s" + std::to_string(s) + " reports generation " +
           std::to_string(gen) + ", schedule pinned it at " +
           std::to_string(pinned[s]));
      violated = true;
    }
    return Status::OK();
  };

  for (size_t mi = 0; mi <= c.mutations.size() && !violated; ++mi) {
    // Every session queries at its pin: non-mutators must see their old
    // generation untouched (repeatable reads), however many mutations
    // other sessions have applied since.
    for (int s = 0; s < kSessions && !violated; ++s) {
      QOF_RETURN_IF_ERROR(check_generation(s));
      if (violated) break;
      QOF_RETURN_IF_ERROR(
          check_query(s, "round " + std::to_string(mi)));
    }
    if (violated || mi == c.mutations.size()) break;

    // Occasionally a bystander refreshes to the latest generation.
    if (rng.Chance(0.3)) {
      int r = static_cast<int>(rng.Below(kSessions));
      QOF_RETURN_IF_ERROR(service.Refresh(sids[r]));
      pinned[r] = mi;
    }

    // A seed-chosen session applies the next mutation through the
    // service; it must observe its own write immediately.
    int mutator = static_cast<int>(rng.Below(kSessions));
    const MutationStep& m = c.mutations[mi];
    Status applied = Status::OK();
    switch (m.op) {
      case MutationStep::Op::kAdd:
        applied = service.AddFile(sids[mutator], m.name, m.text);
        break;
      case MutationStep::Op::kUpdate:
        applied = service.UpdateFile(sids[mutator], m.name, m.text);
        break;
      case MutationStep::Op::kRemove:
        applied = service.RemoveFile(sids[mutator], m.name);
        break;
    }
    if (!applied.ok()) {
      return Status::Internal("session leg: mutation " +
                              std::to_string(mi) + " (" + m.name +
                              ") failed: " + applied.ToString());
    }
    pinned[mutator] = mi + 1;
    QOF_RETURN_IF_ERROR(check_query(mutator, "read-your-writes"));
  }
  if (violated) return Status::OK();

  // Teardown sanity: closing every session must release every pin.
  for (int s = 0; s < kSessions; ++s) {
    QOF_RETURN_IF_ERROR(service.CloseSession(sids[s]));
  }
  ServiceStats stats = service.stats();
  if (stats.sessions_open != 0) {
    return fail("closed every session but " +
                std::to_string(stats.sessions_open) + " remain open");
  }
  if (stats.queries_failed != 0 && replay.ExpectedAt(0).ok() &&
      replay.ExpectedAt(0)->ok) {
    // Queries that legitimately error (rejected FQL) fail on the replay
    // too and were compared above; anything else is a service defect.
    return fail(std::to_string(stats.queries_failed) +
                " service queries failed where the replay succeeded");
  }
  return Status::OK();
}

}  // namespace qof
