#ifndef QOF_EXEC_FAULT_INJECTOR_H_
#define QOF_EXEC_FAULT_INJECTOR_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "qof/util/status.h"

namespace qof {

/// Canonical fault-site names. Instrumented code calls
/// MaybeInjectFault(site) at each; the list is the contract the fuzzer
/// and the governance tests iterate over.
namespace fault_site {
inline constexpr const char* kParseDocument = "parse.document";
inline constexpr const char* kIndexerBuild = "indexer.build";
inline constexpr const char* kIndexIoSerialize = "index_io.serialize";
inline constexpr const char* kIndexIoDeserialize = "index_io.deserialize";
inline constexpr const char* kJournalAppend = "journal.append";
inline constexpr const char* kJournalReplay = "journal.replay";
inline constexpr const char* kMaintainAdd = "maintain.add";
inline constexpr const char* kMaintainUpdate = "maintain.update";
inline constexpr const char* kMaintainRemove = "maintain.remove";
inline constexpr const char* kMaintainCompact = "maintain.compact";
inline constexpr const char* kAlgebraEval = "algebra.eval";
inline constexpr const char* kTwoPhaseCandidate = "two_phase.candidate";
}  // namespace fault_site

/// Every registered site name, in a stable order. Tests and the fuzzer's
/// random-site mode enumerate this.
const std::vector<std::string>& FaultSites();

/// Planted-bug names: deliberate defects the differential fuzzer arms
/// (through a ScopedFaultInjector whose spec names one) to prove its legs
/// catch them. Kept apart from FaultSites(), so a random fault site is
/// never a planted bug. Instrumented code asks PlantedBugArmed (bugs that
/// stay on for the whole scope) or TakePlantedBug (one-shot bugs).
namespace planted_bug {
/// The maintainer loses one tombstone's index splice (one-shot).
inline constexpr const char* kDropTombstone = "drop-tombstone";
/// A write keeps the old index state's eval cache.
inline constexpr const char* kStaleCache = "stale-cache";
/// CSE hashes selections without their word operands.
inline constexpr const char* kBadCse = "bad-cse";
/// The query service ignores a session's pinned snapshot.
inline constexpr const char* kStaleSnapshot = "stale-snapshot";
/// The buffer pool evicts frames that are still pinned.
inline constexpr const char* kEvictPinned = "evict-pinned";
}  // namespace planted_bug

/// Every planted-bug name, in a stable order.
const std::vector<std::string>& PlantedBugs();

/// Deterministic one-shot fault injection. A FaultInjector is installed
/// process-wide (via Scoped); instrumented code consults it through
/// MaybeInjectFault(site). The spec names a site and a hit ordinal: the
/// hit-th time execution passes through that site, the call returns an
/// injected kInternal error exactly once. All other sites (and later
/// passes) are recorded but succeed, so a run with a given (site, hit)
/// pair is reproducible bit-for-bit.
class FaultInjector {
 public:
  struct Spec {
    std::string site;   // FaultSites() or PlantedBugs(); empty = record-only
    uint64_t hit = 1;   // 1-based ordinal of the pass that fails
  };

  explicit FaultInjector(Spec spec) : spec_(std::move(spec)) {}

  /// Called by MaybeInjectFault. Records the pass; fails if this is the
  /// armed site's hit-th pass and the injector has not fired yet.
  Status Fire(std::string_view site);

  /// True when the spec names planted bug `bug`.
  bool Arms(std::string_view bug) const { return spec_.site == bug; }
  /// Called by TakePlantedBug: true on the armed bug's hit-th pass, once.
  bool Take(std::string_view bug);

  bool fired() const;
  /// Passes observed per site so far (for tests asserting coverage).
  std::vector<std::pair<std::string, uint64_t>> observed() const;

  /// Currently installed injector, or nullptr. Lock-free read so the
  /// uninstrumented (production) path costs one relaxed atomic load.
  static FaultInjector* Current();

 private:
  /// Counts one pass through the armed site; true when it is the hit-th
  /// and the injector has not fired yet.
  bool FiresNowLocked();

  const Spec spec_;
  mutable std::mutex mu_;
  bool fired_ = false;
  uint64_t armed_site_passes_ = 0;
  std::map<std::string, uint64_t, std::less<>> observed_;
};

/// Installs an injector for the current scope and restores the previous
/// one (usually none) on destruction. Not reentrant across threads:
/// tests and the fuzzer install one injector per case.
class ScopedFaultInjector {
 public:
  explicit ScopedFaultInjector(FaultInjector::Spec spec);
  ~ScopedFaultInjector();
  ScopedFaultInjector(const ScopedFaultInjector&) = delete;
  ScopedFaultInjector& operator=(const ScopedFaultInjector&) = delete;
  FaultInjector& injector() { return injector_; }

 private:
  FaultInjector injector_;
  FaultInjector* previous_;
};

/// Checkpoint placed at each named fault site. Returns OK (at one atomic
/// load of cost) unless a FaultInjector is installed and decides this
/// pass fails.
inline Status MaybeInjectFault(const char* site) {
  FaultInjector* injector = FaultInjector::Current();
  if (injector == nullptr) return Status::OK();
  return injector->Fire(site);
}

/// Branch point of a planted bug that stays on while armed: true only
/// inside a ScopedFaultInjector naming `bug`, at one atomic load of cost
/// otherwise.
inline bool PlantedBugArmed(const char* bug) {
  FaultInjector* injector = FaultInjector::Current();
  return injector != nullptr && injector->Arms(bug);
}

/// Branch point of a one-shot planted bug: true on the armed pass only
/// (the spec's hit-th), like a fault site.
inline bool TakePlantedBug(const char* bug) {
  FaultInjector* injector = FaultInjector::Current();
  return injector != nullptr && injector->Take(bug);
}

}  // namespace qof

#endif  // QOF_EXEC_FAULT_INJECTOR_H_
