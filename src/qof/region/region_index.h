#ifndef QOF_REGION_REGION_INDEX_H_
#define QOF_REGION_REGION_INDEX_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "qof/region/region_set.h"
#include "qof/region/region_source.h"
#include "qof/util/cow_ptr.h"
#include "qof/util/result.h"
#include "qof/util/status.h"

namespace qof {

/// The union of a set of instances and its parent table: what a ⊃d/⊂d
/// probe walks once the RIG has narrowed its separators to those names
/// (ir/passes.h), in place of the universe.
struct SeparatorTable {
  RegionSet regions;
  ParentTable parents;
};

/// An *instance* of a region index (paper §3.1): a mapping from region
/// names R1..Rn to sets of regions. The union of all instances is the
/// "universe" of indexed regions, which defines direct inclusion (⊃d/⊂d:
/// no *indexed* region strictly in between); a probe whose separators the
/// RIG narrows walks the union of just those instances (Separators()).
///
/// Disk-resident mode: AttachSource() hands the index a backing
/// RegionSource (the paged store). Instances then materialize lazily on
/// first Get() — a selective query pages in only the names it touches —
/// while Names()/Has()/counts answer from the source's dictionary without
/// any posting I/O. EnsureResident() forces every instance into memory;
/// mutations and serialization require it first (the mutators below keep
/// their resident-only contract).
class RegionIndex {
 public:
  RegionIndex() = default;

  // Hand-written copy/move: the mutexes guarding the lazy caches and the
  // lazy materialization are neither copyable nor movable — each index
  // gets its own. A copy shares every instance (copy-on-write, see
  // CowPtr) and every cached table (all immutable once built), so it
  // costs a handle per name whatever the index holds. Copy a resident
  // index, or one no reader is paging in (the lazy map is copied as it
  // stands).
  RegionIndex(const RegionIndex& other) { CopyFrom(other); }
  RegionIndex& operator=(const RegionIndex& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  RegionIndex(RegionIndex&& other) noexcept
      : sets_(std::move(other.sets_)),
        universe_(std::move(other.universe_)),
        parents_(std::move(other.parents_)),
        separator_tables_(std::move(other.separator_tables_)),
        source_(std::move(other.source_)),
        unloaded_(std::move(other.unloaded_)) {}
  RegionIndex& operator=(RegionIndex&& other) noexcept {
    sets_ = std::move(other.sets_);
    universe_ = std::move(other.universe_);
    parents_ = std::move(other.parents_);
    separator_tables_ = std::move(other.separator_tables_);
    source_ = std::move(other.source_);
    unloaded_ = std::move(other.unloaded_);
    return *this;
  }

  /// Registers (or extends) the instance of a region name.
  void Add(std::string name, RegionSet regions);

  // --- incremental maintenance (see src/qof/maintain/) ------------------

  /// One document change: erases from every instance the regions
  /// starting in [begin, end) — a tombstoned document's contribution
  /// (pass an empty span when only adding) — and inserts each run of
  /// `insert` at its canonical position (the appended document's
  /// contribution). Runs must be canonically sorted, duplicate-free, and
  /// confined to a span no remaining region starts in; unknown names are
  /// registered. Names stay registered when emptied: "indexed but
  /// absent" must survive removals. Each touched instance is edited in
  /// place when this index owns it, else rebuilt as prefix + run +
  /// suffix in one pass (the copy sharing it keeps the old one). Returns
  /// the number of regions erased.
  uint64_t SpliceDocument(
      uint64_t begin, uint64_t end,
      const std::map<std::string, std::vector<Region>>& insert);

  bool Has(std::string_view name) const;

  /// `name`'s cardinality without materializing it: resident instances
  /// answer from memory, unloaded ones from the backing source's
  /// dictionary counts. 0 for unregistered names — the shape the cost
  /// estimators want, and the reason a disk-backed index can be planned
  /// against without a single posting read.
  uint64_t InstanceCount(std::string_view name) const;

  /// The instance of `name`; NotFound if the name was never registered.
  /// With a backing source attached this may page the instance in, so it
  /// can also fail on I/O or corruption. The returned pointer stays valid
  /// until the next mutation of this index (copies keep their own).
  Result<const RegionSet*> Get(std::string_view name) const;

  /// Region names in registration-independent (sorted) order.
  std::vector<std::string> Names() const;

  // --- disk-resident backing (see src/qof/store/) -----------------------

  /// Attaches a backing source; instances materialize lazily from it on
  /// first Get(). Call on a freshly constructed index, before sharing it.
  Status AttachSource(std::shared_ptr<const RegionSource> source);

  /// A block cursor over `name`'s still-unmaterialized instance, or null
  /// when the instance is already resident (read it via Get(), which is
  /// then free) — the executor's block-skipping kernels probe the cursor
  /// so a selective query never materializes the name at all. NotFound
  /// for unregistered names, like Get().
  Result<std::unique_ptr<RegionCursor>> OpenCursor(
      std::string_view name) const;

  /// True while some instance still lives only in the source.
  bool disk_resident() const;

  /// Materializes every not-yet-loaded instance. Idempotent. Mutators and
  /// serialization require this first; Universe()/AllExcept() force it
  /// internally, so fallible callers should invoke this beforehand to see
  /// the error.
  Status EnsureResident() const;

  /// Universe().size() without forcing materialization: a disk-backed
  /// index answers from the store's persisted universe size (the cost
  /// model and the optimizer only need the cardinality).
  uint64_t UniverseSize() const;

  /// Union of every instance — the indexed-region universe. Computed
  /// lazily and cached; invalidated by Add(). Safe to call from
  /// concurrent readers sharing an otherwise-immutable index (snapshot
  /// queries): the lazy initialization is serialized internally.
  const RegionSet& Universe() const;

  /// BuildParentTable(Universe()), the table the ⊃d/⊂d kernels probe.
  /// Built lazily on the first call rather than with the universe, so
  /// callers that only want the universe (SaveStore) never pay for it;
  /// cached and invalidated with the universe, carried by copies and
  /// moves. Thread-safety as Universe().
  const ParentTable& Parents() const;

  /// True while a parent table for the current universe is cached.
  bool has_parents() const;

  /// The SeparatorTable of `names` (sorted, duplicate-free; unregistered
  /// names contribute nothing). Built on first use and cached per set
  /// until the next mutation; the tables are immutable. Pages in only the named instances, so it fails only on
  /// their I/O or corruption. Thread-safety as Universe().
  Result<std::shared_ptr<const SeparatorTable>> Separators(
      const std::vector<std::string>& names) const;

  /// All instances except `excluded` — the paper's "I − {S}" used by the
  /// layered ⊃d program.
  std::vector<const RegionSet*> AllExcept(std::string_view excluded) const;

  size_t num_names() const;
  uint64_t num_regions() const;

  /// Approximate memory footprint (for the indexing-amount tradeoff
  /// experiments, §6–§7).
  uint64_t ApproxBytes() const;

 private:
  /// Pages `name` in from the source. Caller holds lazy_mu_.
  Status MaterializeLocked(const std::string& name, uint64_t count) const;

  /// Copy assignment's body: takes both of `other`'s locks.
  void CopyFrom(const RegionIndex& other);

  /// Drops the cached universe, its parent table and every separator
  /// table: each mutator calls this.
  void InvalidateUniverse() {
    universe_.reset();
    parents_.reset();
    separator_tables_.clear();
  }

  /// Mutable: Get() materializes lazily under lazy_mu_. Each instance sits
  /// behind its own copy-on-write handle, so a copy of the index shares
  /// them and a splice copies only the names it writes.
  mutable std::map<std::string, CowPtr<RegionSet>, std::less<>> sets_;
  /// Serializes the lazy Universe() build between concurrent readers of a
  /// shared immutable index. Mutators (Add/EraseSpan/InsertDocRegions)
  /// require external exclusion, as before.
  mutable std::mutex universe_mu_;
  /// Null until built; copies share it.
  mutable std::shared_ptr<const RegionSet> universe_;
  /// Guarded by universe_mu_ like universe_; valid only while the
  /// universe is.
  mutable std::shared_ptr<const ParentTable> parents_;
  /// Separators() cache, keyed by name set; guarded by universe_mu_.
  mutable std::map<std::vector<std::string>,
                   std::shared_ptr<const SeparatorTable>>
      separator_tables_;

  /// Backing source; null for a fully in-memory index. Set once before
  /// the index is shared, never reassigned by const paths (readers may
  /// test it without the lock).
  std::shared_ptr<const RegionSource> source_;
  /// Serializes lazy materialization between concurrent readers. Taken
  /// by const paths only while source_ is attached.
  mutable std::mutex lazy_mu_;
  /// name → region count for instances not yet materialized. Guarded by
  /// lazy_mu_; empty once EnsureResident() has run.
  mutable std::map<std::string, uint64_t, std::less<>> unloaded_;
};

}  // namespace qof

#endif  // QOF_REGION_REGION_INDEX_H_
