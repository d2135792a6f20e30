#ifndef QOF_REGION_REGION_SET_H_
#define QOF_REGION_REGION_SET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "qof/region/cost_model.h"
#include "qof/region/region.h"

namespace qof {

/// A set of regions in canonical order (start ascending, end descending)
/// with no duplicate spans. Overlapping and nested members are allowed
/// (paper §3.1: "with no restrictions on overlaps").
///
/// All the region-algebra primitives of §3.1 are provided as free functions
/// below. Each walks one operand in canonical order with forward
/// galloping cursors into the other (a sorted merge whose searches cost
/// O(log d) for a cursor that moves d places), so its cost is linear in
/// the operands or better — never proportional to the underlying text.
class RegionSet {
 public:
  RegionSet() = default;

  /// Takes arbitrary regions; sorts and deduplicates.
  static RegionSet FromUnsorted(std::vector<Region> regions);

  /// Adopts a vector that is already canonically sorted and duplicate-free
  /// (checked in debug builds). Used by the algorithms below.
  static RegionSet FromSortedUnique(std::vector<Region> regions);

  bool empty() const { return regions_.empty(); }
  size_t size() const { return regions_.size(); }
  const Region& operator[](size_t i) const { return regions_[i]; }
  const std::vector<Region>& regions() const { return regions_; }

  std::vector<Region>::const_iterator begin() const {
    return regions_.begin();
  }
  std::vector<Region>::const_iterator end() const { return regions_.end(); }

  bool ContainsRegion(const Region& r) const;

  // --- incremental maintenance (see src/qof/maintain/) ------------------
  // Parse-derived instances never cross document boundaries, so one
  // document's members form a contiguous slice of the canonical order;
  // document-level maintenance is a slice erase / slice insert.

  /// Erases members whose start lies in [begin, end); returns how many.
  size_t EraseStartsIn(uint64_t begin, uint64_t end);

  /// Splices in a canonically sorted, duplicate-free run whose start
  /// window is disjoint from every existing member's start (one
  /// document's contribution). Debug-checked.
  void InsertRun(const std::vector<Region>& run);

  /// Sum of member lengths (bytes covered, counting nested spans multiply).
  uint64_t TotalLength() const;

  /// True when members are pairwise nested-or-disjoint (no partial
  /// overlaps). Parse-tree-derived indices always are; the fast direct
  /// -inclusion algorithms require a laminar universe.
  bool IsLaminar() const;

  friend bool operator==(const RegionSet& a, const RegionSet& b) {
    return a.regions_ == b.regions_;
  }

  std::string ToString() const;

 private:
  std::vector<Region> regions_;
};

/// Which merge kernel ∩ and − use, and which direction the selection
/// kernels (select_kernels.h) iterate in. ⊃, ⊂ and ι have one cursor
/// kernel each, which already adapts to skew, and ignore the policy.
///
/// The linear kernels cost O(m + n) regardless of operand skew; the
/// galloping (exponential-search) kernels probe the small operand into
/// the large one in O(m log(n/m)), which wins exactly when
/// min(m, n) ≪ max(m, n) — the shape indexed containment queries produce
/// (a handful of selected regions against a full instance).
enum class KernelPolicy {
  /// Per call: gallop when the size ratio crosses kGallopRatio (default).
  kAdaptive,
  /// Always the linear merge / full-table path.
  kLinear,
  /// Always the galloping path (when one exists for the operation).
  kGalloping,
};

/// Crossover ratio for kAdaptive: gallop when small * ratio < large.
/// Aliased from the shared CostModel table so every layer (kernels,
/// evaluator dispatch, cost estimation, IR passes) agrees on it.
inline constexpr size_t kGallopRatio = CostModel::kGallopRatio;

/// Sets the process-wide kernel policy. The default is kAdaptive, or the
/// value of the QOF_FORCE_KERNEL environment variable ("linear" |
/// "galloping" | "adaptive") read once at first use — a debug knob to pin
/// either path. Results are identical under every policy; only cost
/// changes.
void SetKernelPolicy(KernelPolicy policy);
KernelPolicy kernel_policy();

/// Set-theoretic union of two region sets.
RegionSet Union(const RegionSet& a, const RegionSet& b);
/// Union of any number of sets by one k-way heap merge: O(N log k) for N
/// members over k sets, each written once, where folding Union one set
/// at a time re-copies the growing result on every step.
RegionSet UnionAll(const std::vector<const RegionSet*>& sets);
/// Set-theoretic intersection (identical spans).
RegionSet Intersect(const RegionSet& a, const RegionSet& b);
/// Members of `a` whose span does not occur in `b`.
RegionSet Difference(const RegionSet& a, const RegionSet& b);

/// ι(R): members that contain no *other* member (paper's innermost).
/// Runs the ⊃ kernel of r against itself.
RegionSet Innermost(const RegionSet& r);
/// ω(R): members contained in no *other* member (paper's outermost).
/// One pass with a running maximum end.
RegionSet Outermost(const RegionSet& r);

/// R ⊃ S: members of `r` that (weakly) contain some member of `s`.
/// Each member of `r` gallops a cursor into `s` and scans its start
/// window up to the first contained member: O(|r| log(1 + |s|/|r|))
/// searches plus the scans. The scans are budgeted at |r| + |s| members;
/// past that (deeply nested r over long-ending s) a range-min table over
/// `s` answers the rest, so the worst case is O(|r| + |s| log |s|).
RegionSet Including(const RegionSet& r, const RegionSet& s);
/// R ⊂ S: members of `r` (weakly) contained in some member of `s`.
/// Each member of `s` not inside an earlier one gallops a cursor into
/// `r` and collects its window; overlapping containers that rescan more
/// than |r| + |s| members in total hand over to one r-driven pass with a
/// running maximum of `s` ends, so the worst case is O(|r| + |s|).
RegionSet IncludedIn(const RegionSet& r, const RegionSet& s);

/// Strict variants (the containing/contained member must differ). Used by
/// the direct-inclusion machinery; not part of the paper's surface algebra.
RegionSet IncludingStrict(const RegionSet& r, const RegionSet& s);
RegionSet IncludedInStrict(const RegionSet& r, const RegionSet& s);

/// Parent table of a laminar universe, one 4-byte entry per member:
/// `parent[i]` is the index of the member below `universe[i]` on the
/// canonical-order stack sweep (members ending at or before its start are
/// popped first), or kNoParent at the bottom of the stack. For a member
/// of non-zero length that is its innermost strict encloser; a zero-length
/// member's entry skips enclosers that end exactly at its position. The
/// stack at any point of the sweep is a parent chain, so a probe that
/// lands on a member can walk up to every region enclosing that position.
/// Entries are 4 bytes and kNoParent is reserved, so the universe must
/// hold fewer than 2^32 - 1 members (debug-checked, as is laminarity).
using ParentTable = std::vector<uint32_t>;
inline constexpr uint32_t kNoParent = UINT32_MAX;

/// One O(|universe|) stack sweep. RegionIndex::Parents() caches the table
/// per universe, so an indexed query pays this once, not per operator.
ParentTable BuildParentTable(const RegionSet& universe);

/// R ⊃d S: members of `r` that directly include some member of `s`, where
/// "directly" means no region of `universe` lies strictly between the two
/// (paper §3.1). `parents` is BuildParentTable(universe).
///
/// Each member of `s` gallops into the universe from the previous probe's
/// position, lands on the last member not after it in canonical order and
/// walks the parent chain up to its innermost strict encloser (a
/// zero-length member can have two: one ending at and one starting at its
/// position). Cost O(|s| log(|U|/|s|) + chain steps) plus an adaptive
/// intersection with `r`: |U| enters only through the logarithm.
///
/// Preconditions: `universe` is laminar and the members of `r` occur in
/// it, which holds whenever `r` was produced by evaluating algebra
/// expressions over the region indices that make up the universe. The
/// members of `s` need not occur in the universe.
RegionSet DirectlyIncluding(const RegionSet& r, const RegionSet& s,
                            const RegionSet& universe,
                            const ParentTable& parents);

/// R ⊂d S: members of `r` directly included in some member of `s`. Same
/// probe as DirectlyIncluding with the roles swapped: each member of `r`
/// is probed and kept when one of its direct enclosers is in `s`, looked
/// up by a seek from the previous encloser's position in `s`. Cost
/// O(|r| log(|U|/|r|) + chain steps) plus O(log d) per seek of d places.
/// Preconditions as above, with `s` the side that must occur in the
/// universe.
RegionSet DirectlyIncluded(const RegionSet& r, const RegionSet& s,
                           const RegionSet& universe,
                           const ParentTable& parents);

/// The paper's §3.1 reference implementation of ⊃d: iterate over nested
/// layers of `r` via ω, and for each layer subtract the `s` members that
/// have an indexed region between themselves and the layer. `other_indices`
/// plays the role of "I − {S}" in the paper's program: it must cover every
/// indexed region that is not a member of `s`, and `s` must be the complete
/// instance of its region name (members of `s` never act as separators; the
/// returned r-set still matches the definition, because an r whose only
/// separators are `s`-members directly includes the outermost of them).
/// Quadratic in the nesting depth; exists to measure the cost the paper
/// attributes to ⊃d (experiment E3) and to cross-check DirectlyIncluding.
RegionSet DirectlyIncludingLayered(
    const RegionSet& r, const RegionSet& s,
    const std::vector<const RegionSet*>& other_indices);

}  // namespace qof

#endif  // QOF_REGION_REGION_SET_H_
