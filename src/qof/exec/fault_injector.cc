#include "qof/exec/fault_injector.h"

#include <atomic>

namespace qof {

namespace {
std::atomic<FaultInjector*> g_current{nullptr};
}  // namespace

const std::vector<std::string>& FaultSites() {
  static const std::vector<std::string>* kSites = new std::vector<std::string>{
      fault_site::kParseDocument,     fault_site::kIndexerBuild,
      fault_site::kIndexIoSerialize,  fault_site::kIndexIoDeserialize,
      fault_site::kJournalAppend,     fault_site::kJournalReplay,
      fault_site::kMaintainAdd,       fault_site::kMaintainUpdate,
      fault_site::kMaintainRemove,    fault_site::kMaintainCompact,
      fault_site::kAlgebraEval,       fault_site::kTwoPhaseCandidate,
  };
  return *kSites;
}

const std::vector<std::string>& PlantedBugs() {
  static const std::vector<std::string>* kBugs = new std::vector<std::string>{
      planted_bug::kDropTombstone, planted_bug::kStaleCache,
      planted_bug::kBadCse,        planted_bug::kStaleSnapshot,
      planted_bug::kEvictPinned,
  };
  return *kBugs;
}

Status FaultInjector::Fire(std::string_view site) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = observed_.find(site);
  if (it == observed_.end()) {
    observed_.emplace(std::string(site), 1);
  } else {
    ++it->second;
  }
  if (spec_.site != site || !FiresNowLocked()) return Status::OK();
  return Status::Internal("injected fault at site '" + spec_.site +
                          "' (hit " + std::to_string(spec_.hit) + ")");
}

bool FaultInjector::Take(std::string_view bug) {
  if (!Arms(bug)) return false;
  std::lock_guard<std::mutex> lock(mu_);
  return FiresNowLocked();
}

bool FaultInjector::FiresNowLocked() {
  if (fired_ || ++armed_site_passes_ != spec_.hit) return false;
  fired_ = true;
  return true;
}

bool FaultInjector::fired() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fired_;
}

std::vector<std::pair<std::string, uint64_t>> FaultInjector::observed()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return {observed_.begin(), observed_.end()};
}

ScopedFaultInjector::ScopedFaultInjector(FaultInjector::Spec spec)
    : injector_(std::move(spec)) {
  previous_ = g_current.exchange(&injector_, std::memory_order_acq_rel);
}

ScopedFaultInjector::~ScopedFaultInjector() {
  g_current.store(previous_, std::memory_order_release);
}

FaultInjector* FaultInjector::Current() {
  return g_current.load(std::memory_order_acquire);
}

}  // namespace qof
