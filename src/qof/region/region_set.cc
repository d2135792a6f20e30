#include "qof/region/region_set.h"

#include <algorithm>
#include <cassert>
#include <optional>

#include "qof/util/gallop.h"

namespace qof {
namespace {

/// True when the galloping kernel should run for operand sizes (m, n),
/// m <= n.
bool UseGalloping(size_t small, size_t large) {
  return small > 0 && CostModel::PreferGallop(small, large);
}

// Sparse table for O(1) range-min queries over member end offsets. Only
// the ⊃ kernel builds one, and only once its window scans overrun their
// budget; construction is O(n log n) in that operand.
class MinEndTable {
 public:
  explicit MinEndTable(const std::vector<Region>& regions) {
    size_t n = regions.size();
    if (n == 0) return;
    size_t levels = 1;
    while ((size_t{1} << levels) <= n) ++levels;
    table_.resize(levels);
    table_[0].resize(n);
    for (size_t i = 0; i < n; ++i) table_[0][i] = regions[i].end;
    for (size_t k = 1; k < levels; ++k) {
      size_t len = size_t{1} << k;
      table_[k].resize(n - len + 1);
      for (size_t i = 0; i + len <= n; ++i) {
        table_[k][i] =
            std::min(table_[k - 1][i], table_[k - 1][i + len / 2]);
      }
    }
  }

  // Minimum end over [lo, hi); UINT64_MAX when empty.
  uint64_t Min(size_t lo, size_t hi) const {
    if (lo >= hi) return UINT64_MAX;
    size_t k = 0;
    while ((size_t{2} << k) <= hi - lo) ++k;
    return std::min(table_[k][lo], table_[k][hi - (size_t{1} << k)]);
  }

 private:
  std::vector<std::vector<uint64_t>> table_;
};

// --- cursor kernels -------------------------------------------------------
//
// Every kernel below walks one operand in canonical order and keeps
// forward cursors into the other. The bound each member needs only moves
// forward, so each search gallops from where the previous one stopped:
// m probes into n members cost O(m log(n/m)) in searches, and no loop
// re-searches the other operand from its start. All outputs are produced
// in canonical order.

/// First index >= `from` whose member is not before `key` canonically.
size_t LowerBound(const std::vector<Region>& v, size_t from,
                  const Region& key) {
  return GallopForward(v, from, [&](const Region& x) { return x < key; });
}

/// First index >= `from` whose member starts after `pos`.
size_t StartsAfter(const std::vector<Region>& v, size_t from, uint64_t pos) {
  return GallopForward(v, from,
                       [&](const Region& x) { return x.start <= pos; });
}

/// Lower bound of `key` searched outward from `pos`: forward when the
/// bound lies past `pos`, otherwise a backward gallop. For probes that
/// mostly move forward but occasionally step back a little (enclosers
/// of canonically ordered members), the cost is logarithmic in the
/// distance moved.
size_t SeekLowerBound(const std::vector<Region>& v, size_t pos,
                      const Region& key) {
  pos = std::min(pos, v.size());
  if (pos == 0 || v[pos - 1] < key) return LowerBound(v, pos, key);
  size_t hi = pos - 1;  // v[hi] is not before key
  size_t step = 1;
  while (hi >= step && !(v[hi - step] < key)) {
    hi -= step;
    step <<= 1;
  }
  const size_t lo = hi >= step ? hi - step : 0;
  return static_cast<size_t>(
      std::lower_bound(v.begin() + static_cast<long>(lo),
                       v.begin() + static_cast<long>(hi), key) -
      v.begin());
}

/// Difference with |a| ≪ |b|: keep the members of `a` whose span is
/// absent from `b`. (When `b` is the small side the linear merge is
/// already output-proportional, so no galloping variant exists for it.)
RegionSet GallopDifference(const RegionSet& a, const RegionSet& b) {
  std::vector<Region> out;
  out.reserve(a.size());
  const std::vector<Region>& bv = b.regions();
  size_t pos = 0;
  for (const Region& x : a) {
    pos = LowerBound(bv, pos, x);
    if (pos == bv.size() || !(bv[pos] == x)) {
      assert((out.empty() || out.back() < x) &&
             "galloping difference broke canonical order");
      out.push_back(x);
    }
  }
  return RegionSet::FromSortedUnique(std::move(out));
}

/// The one R ⊃ S kernel, for ⊃, its strict variant and (with
/// `keep_including` false, r = s, strict) ι. A member of `s` inside a
/// candidate c sorts at or after c canonically (an equal start means a
/// smaller end) and starts at or before c.end, so each candidate's window
/// begins at a forward cursor. The window is scanned with an exit at the
/// first contained member. Scans are budgeted at |r| + |s| members in
/// total; past that (deeply nested r over long-ending s members) the
/// remaining candidates are answered from a range-min table over the s
/// ends, O(1) each after an O(|s| log |s|) build, with the same cursor.
RegionSet IncludingKernel(const RegionSet& r, const RegionSet& s,
                          bool strict, bool keep_including) {
  std::vector<Region> out;
  out.reserve(r.size());
  const std::vector<Region>& sv = s.regions();
  const size_t n = sv.size();
  size_t lo = 0;
  size_t budget = r.size() + n;
  std::optional<MinEndTable> min_end;
  for (const Region& c : r) {
    lo = LowerBound(sv, lo, c);
    size_t i = strict && lo < n && sv[lo] == c ? lo + 1 : lo;
    bool hit = false;
    if (!min_end) {
      // Skip the window's members that end past c.
      while (budget > 0 && i < n && sv[i].start <= c.end &&
             sv[i].end > c.end) {
        ++i;
        --budget;
      }
      if (budget == 0) {
        min_end.emplace(sv);
      } else {
        hit = i < n && sv[i].start <= c.end;
      }
    }
    if (min_end) hit = min_end->Min(i, StartsAfter(sv, i, c.end)) <= c.end;
    if (hit == keep_including) out.push_back(c);
  }
  return RegionSet::FromSortedUnique(std::move(out));
}

/// R ⊂ S by one r-driven pass: a running maximum of s ends over the
/// members starting at or before each candidate (the fallback of
/// IncludedInKernel). For the strict variant the second-largest end is
/// kept too, and a cursor tells whether the candidate itself is in `s`.
RegionSet IncludedInFold(const RegionSet& r, const RegionSet& s,
                         bool strict) {
  std::vector<Region> out;
  out.reserve(r.size());
  const std::vector<Region>& sv = s.regions();
  size_t folded = 0;          // sv[0, folded) folded into the maxima below
  uint64_t max_end = 0;       // max end over sv[0, folded)
  uint64_t second_end = 0;    // max end over sv[0, folded) minus one
                              // occurrence of the max (for strict)
  size_t self = 0;            // lower bound of the candidate in sv
  for (const Region& cand : r) {
    for (; folded < sv.size() && sv[folded].start <= cand.start; ++folded) {
      if (sv[folded].end >= max_end) {
        second_end = max_end;
        max_end = sv[folded].end;
      } else {
        second_end = std::max(second_end, sv[folded].end);
      }
    }
    bool hit = folded > 0 && max_end >= cand.end;
    if (hit && strict && max_end == cand.end) {
      // The maximum may be the identical span; then a strict container
      // exists iff another folded member also reaches cand.end (the
      // identical span displaces only one occurrence of the max).
      self = LowerBound(sv, self, cand);
      if (self < sv.size() && sv[self] == cand) hit = second_end >= cand.end;
    }
    if (hit) out.push_back(cand);
  }
  return RegionSet::FromSortedUnique(std::move(out));
}

/// The R ⊂ S kernel, container-driven: each member c of `s` collects the
/// members of `r` in its window, which begins at c's forward cursor into
/// `r` (a contained member sorts at or after c) and ends at the first
/// member starting past c.end. A container inside an earlier one adds
/// nothing and is skipped, as is every container starting past the last
/// member of `r`. Only overlapping containers rescan part of a window;
/// once the scans pass |r| + |s| members the r-driven fold takes over.
RegionSet IncludedInKernel(const RegionSet& r, const RegionSet& s,
                           bool strict) {
  const std::vector<Region>& rv = r.regions();
  std::vector<size_t> hits;
  size_t lo = 0;
  size_t budget = rv.size() + s.size();
  size_t scanned_to = 0;  // one past the furthest member any window saw
  bool overlapped = false;
  bool first = true;
  uint64_t reach = 0;     // largest end over the containers so far
  const uint64_t last_start = rv.back().start;
  for (const Region& c : s) {
    if (c.start > last_start) break;
    if (!first && c.end <= reach) continue;
    first = false;
    reach = c.end;
    lo = LowerBound(rv, lo, c);
    overlapped = overlapped || lo < scanned_to;
    size_t i = lo;
    for (; i < rv.size() && rv[i].start <= c.end; ++i) {
      if (budget-- == 0) return IncludedInFold(r, s, strict);
      if (rv[i].end <= c.end && !(strict && rv[i] == c)) hits.push_back(i);
    }
    scanned_to = std::max(scanned_to, i);
  }
  if (overlapped) {
    std::sort(hits.begin(), hits.end());
    hits.erase(std::unique(hits.begin(), hits.end()), hits.end());
  }
  std::vector<Region> out;
  out.reserve(hits.size());
  for (size_t i : hits) out.push_back(rv[i]);
  return RegionSet::FromSortedUnique(std::move(out));
}

}  // namespace

RegionSet RegionSet::FromUnsorted(std::vector<Region> regions) {
  std::sort(regions.begin(), regions.end());
  regions.erase(std::unique(regions.begin(), regions.end()), regions.end());
  RegionSet set;
  set.regions_ = std::move(regions);
  return set;
}

RegionSet RegionSet::FromSortedUnique(std::vector<Region> regions) {
#ifndef NDEBUG
  for (size_t i = 1; i < regions.size(); ++i) {
    assert(regions[i - 1] < regions[i] && "regions not canonically sorted");
  }
#endif
  RegionSet set;
  set.regions_ = std::move(regions);
  return set;
}

bool RegionSet::ContainsRegion(const Region& r) const {
  return std::binary_search(regions_.begin(), regions_.end(), r);
}

Splice<Region> RegionSet::SpliceFor(uint64_t begin, uint64_t end,
                                    std::span<const Region> run) const {
  auto by_start = [](const Region& r, uint64_t s) { return r.start < s; };
  auto lo = std::lower_bound(regions_.begin(), regions_.end(), begin,
                             by_start);
  auto hi = std::lower_bound(lo, regions_.end(), end, by_start);
  Splice<Region> splice;
  splice.lo = static_cast<size_t>(lo - regions_.begin());
  splice.hi = static_cast<size_t>(hi - regions_.begin());
  splice.at = run.empty() ? splice.hi
                          : static_cast<size_t>(
                                std::lower_bound(regions_.begin(),
                                                 regions_.end(), run.front()) -
                                regions_.begin());
  splice.run = run;
  return splice;
}

void RegionSet::ApplySplice(const Splice<Region>& splice) {
  splice.Apply(&regions_);
#ifndef NDEBUG
  for (size_t i = 1; i < regions_.size(); ++i) {
    assert(regions_[i - 1] < regions_[i] && "splice broke canonical order");
  }
#endif
}

uint64_t RegionSet::TotalLength() const {
  uint64_t total = 0;
  for (const Region& r : regions_) total += r.length();
  return total;
}

bool RegionSet::IsLaminar() const {
  std::vector<Region> stack;
  for (const Region& r : regions_) {
    while (!stack.empty() && stack.back().end <= r.start) stack.pop_back();
    if (!stack.empty() && !stack.back().Contains(r)) return false;
    stack.push_back(r);
  }
  return true;
}

std::string RegionSet::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < regions_.size(); ++i) {
    if (i > 0) out += ", ";
    out += regions_[i].ToString();
  }
  out += "}";
  return out;
}

RegionSet Union(const RegionSet& a, const RegionSet& b) {
  std::vector<Region> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return RegionSet::FromSortedUnique(std::move(out));
}

namespace {

/// k-way merge: a min-heap holds one cursor per non-empty input, keyed by
/// the member it points at; each step pops the least member, passes it to
/// `emit` unless it repeats the previous one, and pushes the cursor back.
template <typename Emit>
void MergeDistinct(const std::vector<const RegionSet*>& sets, Emit&& emit) {
  struct Cursor {
    const Region* at;
    const Region* end;
  };
  auto later = [](const Cursor& a, const Cursor& b) { return *b.at < *a.at; };
  std::vector<Cursor> heap;
  for (const RegionSet* set : sets) {
    if (set->empty()) continue;
    heap.push_back({set->regions().data(),
                    set->regions().data() + set->size()});
  }
  std::make_heap(heap.begin(), heap.end(), later);
  const Region* last = nullptr;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Cursor& c = heap.back();
    if (last == nullptr || *last < *c.at) {
      last = c.at;
      emit(*c.at);
    }
    if (++c.at == c.end) {
      heap.pop_back();
    } else {
      std::push_heap(heap.begin(), heap.end(), later);
    }
  }
}

}  // namespace

RegionSet UnionAll(const std::vector<const RegionSet*>& sets) {
  size_t total = 0;
  for (const RegionSet* set : sets) total += set->size();
  std::vector<Region> out;
  out.reserve(total);
  MergeDistinct(sets, [&out](const Region& r) { out.push_back(r); });
  return RegionSet::FromSortedUnique(std::move(out));
}

uint64_t UnionAllSize(const std::vector<const RegionSet*>& sets) {
  uint64_t n = 0;
  MergeDistinct(sets, [&n](const Region&) { ++n; });
  return n;
}

RegionSet Intersect(const RegionSet& a, const RegionSet& b) {
  const RegionSet& small = a.size() <= b.size() ? a : b;
  const RegionSet& large = a.size() <= b.size() ? b : a;
  if (UseGalloping(small.size(), large.size())) {
    return GallopIntersect(small, large);
  }
  return LinearIntersect(a, b);
}

RegionSet LinearIntersect(const RegionSet& a, const RegionSet& b) {
  std::vector<Region> out;
  out.reserve(std::min(a.size(), b.size()));
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return RegionSet::FromSortedUnique(std::move(out));
}

RegionSet GallopIntersect(const RegionSet& a, const RegionSet& b) {
  std::vector<Region> out;
  out.reserve(a.size());
  const std::vector<Region>& bv = b.regions();
  size_t pos = 0;
  for (const Region& x : a) {
    pos = LowerBound(bv, pos, x);
    if (pos == bv.size()) break;
    if (bv[pos] == x) {
      assert((out.empty() || out.back() < x) &&
             "galloping intersect broke canonical order");
      out.push_back(x);
    }
  }
  return RegionSet::FromSortedUnique(std::move(out));
}

RegionSet Difference(const RegionSet& a, const RegionSet& b) {
  // Only the a-small case gallops: with b small the linear merge is
  // already proportional to the output (which contains most of a).
  if (a.size() <= b.size() && UseGalloping(a.size(), b.size())) {
    return GallopDifference(a, b);
  }
  std::vector<Region> out;
  out.reserve(a.size());
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return RegionSet::FromSortedUnique(std::move(out));
}

RegionSet Innermost(const RegionSet& r) {
  // ι(R): the members of r that strictly include no member of r.
  return IncludingKernel(r, r, /*strict=*/true, /*keep_including=*/false);
}

RegionSet Outermost(const RegionSet& r) {
  std::vector<Region> out;
  const std::vector<Region>& v = r.regions();
  uint64_t max_end = 0;
  for (const Region& cand : v) {
    // Any member containing cand appears before it (canonical order) and
    // contains it iff its end >= cand.end.
    if (out.empty() || max_end < cand.end) out.push_back(cand);
    max_end = std::max(max_end, cand.end);
  }
  return RegionSet::FromSortedUnique(std::move(out));
}

RegionSet Including(const RegionSet& r, const RegionSet& s) {
  return IncludingKernel(r, s, /*strict=*/false, /*keep_including=*/true);
}

RegionSet IncludedIn(const RegionSet& r, const RegionSet& s) {
  if (r.empty() || s.empty()) return RegionSet();
  return IncludedInKernel(r, s, /*strict=*/false);
}

RegionSet IncludingStrict(const RegionSet& r, const RegionSet& s) {
  return IncludingKernel(r, s, /*strict=*/true, /*keep_including=*/true);
}

RegionSet IncludedInStrict(const RegionSet& r, const RegionSet& s) {
  if (r.empty() || s.empty()) return RegionSet();
  return IncludedInKernel(r, s, /*strict=*/true);
}

ParentTable BuildParentTable(const RegionSet& universe) {
  assert(universe.IsLaminar() &&
         "direct inclusion requires a laminar universe");
  assert(universe.size() < kNoParent && "parent entries are 4 bytes");
  const std::vector<Region>& uv = universe.regions();
  ParentTable parent(uv.size());
  // The sweep's stack is always the parent chain of the last member
  // pushed, so popping is walking up that chain; every member is walked
  // past at most once, keeping the build linear.
  uint32_t top = kNoParent;
  for (size_t i = 0; i < uv.size(); ++i) {
    while (top != kNoParent && uv[top].end <= uv[i].start) top = parent[top];
    parent[i] = top;
    top = static_cast<uint32_t>(i);
  }
  return parent;
}

namespace {

/// Finds the direct enclosers of query regions in a laminar universe by
/// probing its parent table. Queries must come in canonical order: the
/// search cursors only move forward, so a whole operand costs
/// O(m log(|U|/m)) in searches plus the chain steps.
class EncloserProbe {
 public:
  EncloserProbe(const RegionSet& universe, const ParentTable& parents)
      : uv_(universe.regions()), parent_(parents) {
    assert(parents.size() == uv_.size() &&
           "parent table built for another universe");
  }

  /// Calls emit(i) for each universe index i whose member directly
  /// includes `q`: at most one for a query of non-zero length, at most two
  /// for a zero-length one.
  template <typename Emit>
  void Enclosers(const Region& q, Emit&& emit) {
    pos_ = LowerBound(uv_, pos_, q);  // first member not before q
    if (q.end > q.start) {
      // Every encloser of q precedes it canonically and stays on the
      // parent chain of the last member not after q (nothing before q
      // starts at or past an encloser's end); walking up from there, the
      // first strict encloser met is the innermost one.
      uint32_t last = pos_ < uv_.size() && uv_[pos_] == q
                          ? static_cast<uint32_t>(pos_)
                          : Before(pos_);
      uint32_t e = Up(last, [&](const Region& u) {
        return u.StrictlyContains(q);
      });
      if (e != kNoParent) emit(e);
      return;
    }
    // q = [x, x] is contained both by members ending at x and by members
    // starting at x, which are disjoint, so it can have two direct
    // enclosers. Members starting at x and ending after it form a nested
    // run just before q; its last member is the innermost right encloser.
    const uint64_t x = q.start;
    start_pos_ = LowerBound(uv_, start_pos_, Region{x, UINT64_MAX});
    const bool right = pos_ > start_pos_;
    if (right) emit(static_cast<uint32_t>(pos_ - 1));
    // Every member that starts before x and reaches x is on the parent
    // chain of the last member starting before x; the first one met is
    // innermost. One ending at x directly includes q; one spanning x does
    // only when nothing else encloses q below it.
    uint32_t e = Up(Before(start_pos_), [&](const Region& u) {
      return u.end >= x;
    });
    if (e != kNoParent && (uv_[e].end == x || !right)) emit(e);
  }

 private:
  static uint32_t Before(size_t i) {
    return i == 0 ? kNoParent : static_cast<uint32_t>(i - 1);
  }

  /// The first member on the parent chain from `i` satisfying `stop`.
  template <typename Stop>
  uint32_t Up(uint32_t i, Stop&& stop) const {
    while (i != kNoParent && !stop(uv_[i])) i = parent_[i];
    return i;
  }

  const std::vector<Region>& uv_;
  const ParentTable& parent_;
  size_t pos_ = 0;        // lower bound of the current query
  size_t start_pos_ = 0;  // first member starting at the query's start
};

}  // namespace

RegionSet DirectlyIncluding(const RegionSet& r, const RegionSet& s,
                            const RegionSet& universe,
                            const ParentTable& parents) {
  // r ⊃d s  ⟺  r is a direct encloser of some s member within the
  // universe: any shallower encloser has a direct one strictly between
  // itself and that member.
  if (r.empty() || s.empty()) return RegionSet();
  EncloserProbe probe(universe, parents);
  std::vector<uint32_t> hits;
  hits.reserve(s.size());
  for (const Region& q : s) {
    probe.Enclosers(q, [&](uint32_t e) { hits.push_back(e); });
  }
  // Universe indices sort in canonical order.
  std::sort(hits.begin(), hits.end());
  hits.erase(std::unique(hits.begin(), hits.end()), hits.end());
  std::vector<Region> enclosers;
  enclosers.reserve(hits.size());
  for (uint32_t e : hits) enclosers.push_back(universe[e]);
  return Intersect(r, RegionSet::FromSortedUnique(std::move(enclosers)));
}

RegionSet DirectlyIncluded(const RegionSet& r, const RegionSet& s,
                           const RegionSet& universe,
                           const ParentTable& parents) {
  if (r.empty() || s.empty()) return RegionSet();
  EncloserProbe probe(universe, parents);
  const std::vector<Region>& sv = s.regions();
  std::vector<Region> out;
  // Enclosers of canonically ordered members mostly move forward and
  // step back only to an ancestor of an earlier one, so each lookup in
  // `s` seeks outward from the previous one's position.
  size_t pos = 0;
  for (const Region& q : r) {
    bool keep = false;
    probe.Enclosers(q, [&](uint32_t e) {
      pos = SeekLowerBound(sv, pos, universe[e]);
      keep = keep || (pos < sv.size() && sv[pos] == universe[e]);
    });
    if (keep) out.push_back(q);
  }
  return RegionSet::FromSortedUnique(std::move(out));
}

RegionSet DirectlyIncludingLayered(
    const RegionSet& r, const RegionSet& s,
    const std::vector<const RegionSet*>& other_indices) {
  // Faithful transcription of the paper's §3.1 program. Each iteration
  // peels the outermost layer of `r` and keeps the layer members that
  // include an `s` member with no other indexed region in between.
  RegionSet layer = Outermost(r);
  RegionSet rest = Difference(r, layer);
  RegionSet result;
  while (!Including(layer, s).empty()) {
    RegionSet blocked;
    for (const RegionSet* t : other_indices) {
      blocked = Union(
          blocked, IncludedInStrict(s, IncludedInStrict(*t, layer)));
    }
    result = Union(result, IncludingStrict(layer, Difference(s, blocked)));
    if (rest.empty()) break;
    layer = Outermost(rest);
    rest = Difference(rest, layer);
  }
  return result;
}

}  // namespace qof
