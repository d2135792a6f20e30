#include "qof/region/region_index.h"

#include <utility>

#include "qof/region/region_cursor.h"

namespace qof {

void RegionIndex::CopyFrom(const RegionIndex& other) {
  std::scoped_lock lock(other.lazy_mu_, other.universe_mu_);
  sets_ = other.sets_;
  universe_ = other.universe_;
  parents_ = other.parents_;
  separator_tables_ = other.separator_tables_;
  source_ = other.source_;
  unloaded_ = other.unloaded_;
}

void RegionIndex::Add(std::string name, RegionSet regions) {
  auto it = sets_.find(name);
  if (it == sets_.end()) {
    sets_.emplace(std::move(name), CowPtr<RegionSet>(std::move(regions)));
  } else {
    it->second.Reset(Union(*it->second, regions));
  }
  InvalidateUniverse();
}

uint64_t RegionIndex::SpliceDocument(
    uint64_t begin, uint64_t end,
    const std::map<std::string, std::vector<Region>>& insert) {
  static const std::vector<Region> kNoRun;
  uint64_t erased = 0;
  bool changed = false;
  auto splice = [&](CowPtr<RegionSet>& set, const std::vector<Region>& run) {
    if (!set) set.Reset(RegionSet());
    Splice<Region> s = set->SpliceFor(begin, end, run);
    if (s.empty()) return;
    erased += s.hi - s.lo;
    changed = true;
    if (set.owned()) {
      set.Mutable().ApplySplice(s);
    } else {
      set.Reset(RegionSet::FromSortedUnique(s.Applied(set->regions())));
    }
  };
  for (auto& [name, set] : sets_) {
    auto run = insert.find(name);
    splice(set, run != insert.end() ? run->second : kNoRun);
  }
  for (const auto& [name, run] : insert) {
    if (sets_.find(name) != sets_.end()) continue;
    changed = true;
    splice(sets_[name], run);
  }
  if (changed) InvalidateUniverse();
  return erased;
}

bool RegionIndex::Has(std::string_view name) const {
  if (source_ != nullptr) {
    std::lock_guard<std::mutex> lock(lazy_mu_);
    if (unloaded_.find(name) != unloaded_.end()) return true;
    return sets_.find(name) != sets_.end();
  }
  return sets_.find(name) != sets_.end();
}

Status RegionIndex::MaterializeLocked(const std::string& name,
                                      uint64_t count) const {
  QOF_ASSIGN_OR_RETURN(std::unique_ptr<RegionCursor> cursor,
                       source_->OpenCursor(name));
  QOF_ASSIGN_OR_RETURN(RegionSet set, MaterializeCursor(*cursor));
  if (set.size() != count) {
    return Status::Internal("region instance '" + name + "' materialized " +
                            std::to_string(set.size()) + " regions, store " +
                            "dictionary promised " + std::to_string(count));
  }
  sets_.emplace(name, CowPtr<RegionSet>(std::move(set)));
  unloaded_.erase(name);
  return Status::OK();
}

uint64_t RegionIndex::InstanceCount(std::string_view name) const {
  if (source_ != nullptr) {
    std::lock_guard<std::mutex> lock(lazy_mu_);
    auto pending = unloaded_.find(name);
    if (pending != unloaded_.end()) return pending->second;
    auto it = sets_.find(name);
    return it != sets_.end() ? it->second->size() : 0;
  }
  auto it = sets_.find(name);
  return it != sets_.end() ? it->second->size() : 0;
}

Result<const RegionSet*> RegionIndex::Get(std::string_view name) const {
  if (source_ != nullptr) {
    std::lock_guard<std::mutex> lock(lazy_mu_);
    auto it = sets_.find(name);
    if (it != sets_.end()) return it->second.get();
    auto pending = unloaded_.find(name);
    if (pending != unloaded_.end()) {
      QOF_RETURN_IF_ERROR(
          MaterializeLocked(pending->first, pending->second));
      return sets_.find(name)->second.get();
    }
    return Status::NotFound("region name not indexed: " + std::string(name));
  }
  auto it = sets_.find(name);
  if (it == sets_.end()) {
    return Status::NotFound("region name not indexed: " + std::string(name));
  }
  return it->second.get();
}

Result<std::unique_ptr<RegionCursor>> RegionIndex::OpenCursor(
    std::string_view name) const {
  if (source_ != nullptr) {
    std::lock_guard<std::mutex> lock(lazy_mu_);
    if (unloaded_.find(name) != unloaded_.end()) {
      return source_->OpenCursor(name);
    }
    if (sets_.find(name) != sets_.end()) {
      return std::unique_ptr<RegionCursor>();
    }
    return Status::NotFound("region name not indexed: " + std::string(name));
  }
  if (sets_.find(name) == sets_.end()) {
    return Status::NotFound("region name not indexed: " + std::string(name));
  }
  return std::unique_ptr<RegionCursor>();
}

std::vector<std::string> RegionIndex::Names() const {
  std::vector<std::string> names;
  if (source_ != nullptr) {
    std::lock_guard<std::mutex> lock(lazy_mu_);
    names.reserve(sets_.size() + unloaded_.size());
    // Both maps are sorted and disjoint: merge.
    auto a = sets_.begin();
    auto b = unloaded_.begin();
    while (a != sets_.end() || b != unloaded_.end()) {
      if (b == unloaded_.end() ||
          (a != sets_.end() && a->first < b->first)) {
        names.push_back((a++)->first);
      } else {
        names.push_back((b++)->first);
      }
    }
    return names;
  }
  names.reserve(sets_.size());
  for (const auto& [name, set] : sets_) names.push_back(name);
  return names;
}

Status RegionIndex::AttachSource(std::shared_ptr<const RegionSource> source) {
  QOF_ASSIGN_OR_RETURN(std::vector<RegionSource::Entry> entries,
                       source->Entries());
  std::lock_guard<std::mutex> lock(lazy_mu_);
  for (auto& e : entries) {
    if (sets_.find(e.name) == sets_.end()) {
      unloaded_.emplace(std::move(e.name), e.count);
    }
  }
  source_ = std::move(source);
  InvalidateUniverse();
  return Status::OK();
}

bool RegionIndex::disk_resident() const {
  if (source_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(lazy_mu_);
  return !unloaded_.empty();
}

Status RegionIndex::EnsureResident() const {
  if (source_ == nullptr) return Status::OK();
  std::lock_guard<std::mutex> lock(lazy_mu_);
  while (!unloaded_.empty()) {
    auto it = unloaded_.begin();
    QOF_RETURN_IF_ERROR(MaterializeLocked(it->first, it->second));
  }
  return Status::OK();
}

uint64_t RegionIndex::UniverseSize() const {
  if (source_ != nullptr) {
    std::lock_guard<std::mutex> lock(lazy_mu_);
    if (!unloaded_.empty()) return source_->universe_size();
  }
  return Universe().size();
}

const RegionSet& RegionIndex::Universe() const {
  // Forces residency: the universe is the union of *every* instance.
  // Fallible callers run EnsureResident() first to observe I/O errors;
  // on failure here the union covers what did load (and the next
  // EnsureResident reports the same error).
  (void)EnsureResident();
  std::lock_guard<std::mutex> lock(universe_mu_);
  if (universe_ == nullptr) {
    std::vector<const RegionSet*> instances;
    instances.reserve(sets_.size());
    for (const auto& [name, set] : sets_) instances.push_back(set.get());
    universe_ = std::make_shared<const RegionSet>(UnionAll(instances));
  }
  return *universe_;
}

const ParentTable& RegionIndex::Parents() const {
  const RegionSet& universe = Universe();
  std::lock_guard<std::mutex> lock(universe_mu_);
  if (parents_ == nullptr) {
    parents_ = std::make_shared<const ParentTable>(BuildParentTable(universe));
  }
  return *parents_;
}

bool RegionIndex::has_parents() const {
  std::lock_guard<std::mutex> lock(universe_mu_);
  return parents_ != nullptr;
}

Result<std::shared_ptr<const SeparatorTable>> RegionIndex::Separators(
    const std::vector<std::string>& names) const {
  // Only the named instances are paged in; the pointers Get() hands out
  // stay valid for the life of the index.
  std::vector<const RegionSet*> instances;
  for (const std::string& name : names) {
    Result<const RegionSet*> set = Get(name);
    if (set.ok()) {
      instances.push_back(*set);
    } else if (!set.status().IsNotFound()) {
      return set.status();
    }
  }
  std::lock_guard<std::mutex> lock(universe_mu_);
  std::shared_ptr<const SeparatorTable>& table = separator_tables_[names];
  if (table == nullptr) {
    auto built = std::make_shared<SeparatorTable>();
    built->regions = UnionAll(instances);
    built->parents = BuildParentTable(built->regions);
    table = std::move(built);
  }
  return table;
}

std::vector<const RegionSet*> RegionIndex::AllExcept(
    std::string_view excluded) const {
  (void)EnsureResident();
  std::vector<const RegionSet*> out;
  for (const auto& [name, set] : sets_) {
    if (name != excluded) out.push_back(set.get());
  }
  return out;
}

size_t RegionIndex::num_names() const {
  if (source_ != nullptr) {
    std::lock_guard<std::mutex> lock(lazy_mu_);
    return sets_.size() + unloaded_.size();
  }
  return sets_.size();
}

uint64_t RegionIndex::num_regions() const {
  uint64_t n = 0;
  if (source_ != nullptr) {
    std::lock_guard<std::mutex> lock(lazy_mu_);
    for (const auto& [name, count] : unloaded_) n += count;
    for (const auto& [name, set] : sets_) n += set->size();
    return n;
  }
  for (const auto& [name, set] : sets_) n += set->size();
  return n;
}

uint64_t RegionIndex::ApproxBytes() const {
  uint64_t bytes = 0;
  if (source_ != nullptr) {
    std::lock_guard<std::mutex> lock(lazy_mu_);
    for (const auto& [name, count] : unloaded_) {
      bytes += name.size() + count * sizeof(Region) + 64;
    }
    for (const auto& [name, set] : sets_) {
      bytes += name.size() + set->size() * sizeof(Region) + 64;
    }
    return bytes;
  }
  for (const auto& [name, set] : sets_) {
    bytes += name.size() + set->size() * sizeof(Region) + 64;
  }
  return bytes;
}

}  // namespace qof
