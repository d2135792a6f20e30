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
#include "qof/util/result.h"
#include "qof/util/status.h"

namespace qof {

/// An *instance* of a region index (paper §3.1): a mapping from region
/// names R1..Rn to sets of regions. The union of all instances is the
/// "universe" of indexed regions, which defines direct inclusion (⊃d/⊂d:
/// no *indexed* region strictly in between).
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

  // Hand-written copy/move: the index is a value (copy-on-write snapshots
  // duplicate it, builds move it), but the mutexes guarding the lazy
  // universe cache and the lazy materialization are neither copyable nor
  // movable — each instance gets its own.
  RegionIndex(const RegionIndex& other) { CopyFrom(other); }
  RegionIndex& operator=(const RegionIndex& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  RegionIndex(RegionIndex&& other) noexcept
      : sets_(std::move(other.sets_)),
        universe_(std::move(other.universe_)),
        universe_valid_(other.universe_valid_),
        parents_(std::move(other.parents_)),
        parents_valid_(other.parents_valid_),
        source_(std::move(other.source_)),
        unloaded_(std::move(other.unloaded_)) {}
  RegionIndex& operator=(RegionIndex&& other) noexcept {
    sets_ = std::move(other.sets_);
    universe_ = std::move(other.universe_);
    universe_valid_ = other.universe_valid_;
    parents_ = std::move(other.parents_);
    parents_valid_ = other.parents_valid_;
    source_ = std::move(other.source_);
    unloaded_ = std::move(other.unloaded_);
    return *this;
  }

  /// Registers (or extends) the instance of a region name.
  void Add(std::string name, RegionSet regions);

  // --- incremental maintenance (see src/qof/maintain/) ------------------

  /// Erases from every instance the regions starting in [begin, end) — a
  /// tombstoned document's contribution. Names stay registered (possibly
  /// with empty instances): "indexed but absent" must survive removals.
  /// Returns the number of regions erased.
  uint64_t EraseSpan(uint64_t begin, uint64_t end);

  /// Splices one document's contribution in: for each (name, run) the run
  /// is inserted at its canonical position. Runs must be canonically
  /// sorted, duplicate-free, and confined to a span no existing region
  /// starts in. Unknown names are registered.
  void InsertDocRegions(
      const std::map<std::string, std::vector<Region>>& by_name);

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
  /// for the life of the index (map nodes are stable; materialized
  /// instances are immutable until EnsureResident precedes mutation).
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

  /// Copy assignment's body: takes both of `other`'s cache locks.
  void CopyFrom(const RegionIndex& other);

  /// Drops the cached universe and its parent table.
  void InvalidateUniverse() {
    universe_valid_ = false;
    parents_valid_ = false;
  }

  /// Mutable: Get() materializes lazily under lazy_mu_. Node-based, so
  /// pointers handed out by Get() survive later insertions.
  mutable std::map<std::string, RegionSet, std::less<>> sets_;
  /// Serializes the lazy Universe() build between concurrent readers of a
  /// shared immutable index. Mutators (Add/EraseSpan/InsertDocRegions)
  /// require external exclusion, as before.
  mutable std::mutex universe_mu_;
  mutable RegionSet universe_;
  mutable bool universe_valid_ = false;
  /// Guarded by universe_mu_ like universe_; valid only while the
  /// universe is.
  mutable ParentTable parents_;
  mutable bool parents_valid_ = false;

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
