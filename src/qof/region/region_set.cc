#include "qof/region/region_set.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdlib>
#include <cstring>

namespace qof {
namespace {

KernelPolicy InitialKernelPolicy() {
  const char* env = std::getenv("QOF_FORCE_KERNEL");
  if (env != nullptr) {
    if (std::strcmp(env, "linear") == 0) return KernelPolicy::kLinear;
    if (std::strcmp(env, "galloping") == 0) return KernelPolicy::kGalloping;
  }
  return KernelPolicy::kAdaptive;
}

std::atomic<KernelPolicy>& KernelPolicyFlag() {
  static std::atomic<KernelPolicy> policy{InitialKernelPolicy()};
  return policy;
}

/// True when the galloping kernel should run for operand sizes (m, n),
/// m <= n, under the current policy.
bool UseGalloping(size_t small, size_t large) {
  if (small == 0) return false;
  switch (KernelPolicyFlag().load(std::memory_order_relaxed)) {
    case KernelPolicy::kLinear:
      return false;
    case KernelPolicy::kGalloping:
      return true;
    case KernelPolicy::kAdaptive:
      break;
  }
  return CostModel::PreferGallop(small, large);
}

// Sparse table for O(1) range-min queries over member end offsets; built
// per algebra operation, so construction is O(n log n) on the operand only.
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

// Index range [lo, hi) of members whose start lies in [min_start, max_start].
std::pair<size_t, size_t> StartWindow(const std::vector<Region>& v,
                                      uint64_t min_start,
                                      uint64_t max_start) {
  auto lo = std::lower_bound(
      v.begin(), v.end(), min_start,
      [](const Region& r, uint64_t s) { return r.start < s; });
  auto hi = std::upper_bound(
      v.begin(), v.end(), max_start,
      [](uint64_t s, const Region& r) { return s < r.start; });
  return {static_cast<size_t>(lo - v.begin()),
          static_cast<size_t>(hi - v.begin())};
}

// Index of the exact span in a canonical vector, or npos.
size_t FindExact(const std::vector<Region>& v, const Region& r) {
  auto it = std::lower_bound(v.begin(), v.end(), r);
  if (it != v.end() && *it == r) return static_cast<size_t>(it - v.begin());
  return static_cast<size_t>(-1);
}

// Shared implementation of R ⊃ S (strict=false) and its strict variant.
RegionSet IncludingImpl(const RegionSet& r, const RegionSet& s, bool strict) {
  std::vector<Region> out;
  if (r.empty() || s.empty()) return RegionSet();
  const std::vector<Region>& sv = s.regions();
  MinEndTable min_end(sv);
  for (const Region& cand : r) {
    auto [lo, hi] = StartWindow(sv, cand.start, cand.end);
    bool hit;
    if (!strict) {
      hit = min_end.Min(lo, hi) <= cand.end;
    } else {
      size_t self = FindExact(sv, cand);
      if (self >= lo && self < hi) {
        hit = std::min(min_end.Min(lo, self), min_end.Min(self + 1, hi)) <=
              cand.end;
      } else {
        hit = min_end.Min(lo, hi) <= cand.end;
      }
    }
    if (hit) out.push_back(cand);
  }
  return RegionSet::FromSortedUnique(std::move(out));
}

// Shared implementation of R ⊂ S and its strict variant.
RegionSet IncludedInImpl(const RegionSet& r, const RegionSet& s,
                         bool strict) {
  std::vector<Region> out;
  if (r.empty() || s.empty()) return RegionSet();
  const std::vector<Region>& sv = s.regions();
  // prefix_max[i] = max end over sv[0..i).
  std::vector<uint64_t> prefix_max(sv.size() + 1, 0);
  for (size_t i = 0; i < sv.size(); ++i) {
    prefix_max[i + 1] = std::max(prefix_max[i], sv[i].end);
  }
  for (const Region& cand : r) {
    // Candidates that may contain `cand` have start <= cand.start, i.e.
    // indices [0, hi).
    auto hi_it = std::upper_bound(
        sv.begin(), sv.end(), cand.start,
        [](uint64_t p, const Region& x) { return p < x.start; });
    size_t hi = static_cast<size_t>(hi_it - sv.begin());
    bool hit = prefix_max[hi] >= cand.end;
    if (hit && strict) {
      // The only member of sv[0,hi) that weakly-but-not-strictly contains
      // `cand` is the identical span; re-check excluding it.
      size_t self = FindExact(sv, cand);
      if (self < hi) {
        uint64_t best = prefix_max[self];  // max over [0, self)
        for (size_t j = self + 1; j < hi && sv[j].start == cand.start; ++j) {
          best = std::max(best, sv[j].end);
        }
        // Members after `self` with the same start have smaller ends (and
        // cannot contain cand); members with larger start are not in [0,hi).
        hit = best >= cand.end;
      }
    }
    if (hit) out.push_back(cand);
  }
  return RegionSet::FromSortedUnique(std::move(out));
}

// --- galloping kernels ----------------------------------------------------
//
// Each probes the small operand into the large one: a forward exponential
// search from the previous match position, then a binary search over the
// bracketed range — O(m log(n/m)) total instead of the linear merge's
// O(m + n). All outputs are produced in canonical order (debug-asserted);
// results are identical to the linear kernels under every policy.

/// First index >= `from` whose region is not less than `key` (canonical
/// order), found by galloping forward from `from`.
size_t GallopLowerBound(const std::vector<Region>& v, size_t from,
                        const Region& key) {
  size_t n = v.size();
  size_t lo = from;
  size_t step = 1;
  while (from + step < n && v[from + step] < key) {
    lo = from + step;
    step <<= 1;
  }
  size_t hi = std::min(n, from + step);
  return static_cast<size_t>(
      std::lower_bound(v.begin() + static_cast<long>(lo),
                       v.begin() + static_cast<long>(hi), key) -
      v.begin());
}

/// Intersection with |a| ≪ |b|: gallop each member of `a` into `b`.
RegionSet GallopIntersect(const RegionSet& a, const RegionSet& b) {
  std::vector<Region> out;
  out.reserve(a.size());
  const std::vector<Region>& bv = b.regions();
  size_t pos = 0;
  for (const Region& x : a) {
    pos = GallopLowerBound(bv, pos, x);
    if (pos == bv.size()) break;
    if (bv[pos] == x) {
      assert((out.empty() || out.back() < x) &&
             "galloping intersect broke canonical order");
      out.push_back(x);
    }
  }
  return RegionSet::FromSortedUnique(std::move(out));
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
    pos = GallopLowerBound(bv, pos, x);
    if (pos == bv.size() || !(bv[pos] == x)) {
      assert((out.empty() || out.back() < x) &&
             "galloping difference broke canonical order");
      out.push_back(x);
    }
  }
  return RegionSet::FromSortedUnique(std::move(out));
}

/// R ⊃ S with |r| ≪ |s|: instead of building the range-min table over all
/// of `s`, binary-search each candidate's start window and scan it with an
/// early exit at the first contained member. When the windows blow past
/// |s| in total (pathologically overlapping operands) the scan bails to
/// the table-based kernel, bounding the worst case at ~2x linear.
RegionSet GallopIncluding(const RegionSet& r, const RegionSet& s,
                          bool strict) {
  std::vector<Region> out;
  out.reserve(r.size());
  const std::vector<Region>& sv = s.regions();
  size_t scanned = 0;
  for (const Region& cand : r) {
    auto [lo, hi] = StartWindow(sv, cand.start, cand.end);
    for (size_t i = lo; i < hi; ++i) {
      if (++scanned > sv.size()) return IncludingImpl(r, s, strict);
      if (sv[i].end > cand.end) continue;
      if (strict && sv[i] == cand) continue;
      assert((out.empty() || out.back() < cand) &&
             "galloping including broke canonical order");
      out.push_back(cand);
      break;
    }
  }
  return RegionSet::FromSortedUnique(std::move(out));
}

/// R ⊂ S with |r| ≪ |s|: the prefix-max over `s` ends is built
/// incrementally, advancing a cursor only as far as the candidates'
/// (nondecreasing) start positions require — s-members past the last
/// candidate's start are never touched.
RegionSet GallopIncludedInSmallR(const RegionSet& r, const RegionSet& s,
                                 bool strict) {
  std::vector<Region> out;
  out.reserve(r.size());
  const std::vector<Region>& sv = s.regions();
  size_t cursor = 0;          // sv[0, cursor) folded into the maxima below
  uint64_t max_end = 0;       // max end over sv[0, cursor)
  uint64_t second_end = 0;    // max end over sv[0, cursor) minus one
                              // occurrence of the max (for strict)
  for (const Region& cand : r) {
    // Fold in the s-members with start <= cand.start.
    while (cursor < sv.size() && sv[cursor].start <= cand.start) {
      if (sv[cursor].end >= max_end) {
        second_end = max_end;
        max_end = sv[cursor].end;
      } else {
        second_end = std::max(second_end, sv[cursor].end);
      }
      ++cursor;
    }
    bool hit = max_end >= cand.end;
    if (hit && strict && max_end == cand.end) {
      // The maximum may be the identical span; a strict container exists
      // iff some *other* folded member also reaches cand.end, or the max
      // was achieved by a non-identical span (earlier start or duplicate
      // end at a different start).
      size_t self = FindExact(sv, cand);
      if (self < cursor) {
        hit = second_end >= cand.end;
        // A member with the same end but a different (earlier) start
        // strictly contains cand and also counts; second_end covers it
        // because the identical span displaces only one occurrence.
      }
    }
    if (hit) {
      assert((out.empty() || out.back() < cand) &&
             "galloping included-in broke canonical order");
      out.push_back(cand);
    }
  }
  return RegionSet::FromSortedUnique(std::move(out));
}

/// R ⊂ S with |s| ≪ |r|: enumerate each container's start window in `r`
/// and keep the members it contains, deduplicating across overlapping
/// containers by index. Bails to the linear kernel when the windows blow
/// past |r| in total.
RegionSet GallopIncludedInSmallS(const RegionSet& r, const RegionSet& s,
                                 bool strict) {
  const std::vector<Region>& rv = r.regions();
  std::vector<size_t> hits;
  size_t scanned = 0;
  for (const Region& container : s) {
    auto [lo, hi] = StartWindow(rv, container.start, container.end);
    for (size_t i = lo; i < hi; ++i) {
      if (++scanned > rv.size()) return IncludedInImpl(r, s, strict);
      if (rv[i].end > container.end) continue;
      if (strict && rv[i] == container) continue;
      hits.push_back(i);
    }
  }
  std::sort(hits.begin(), hits.end());
  hits.erase(std::unique(hits.begin(), hits.end()), hits.end());
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
  return FindExact(regions_, r) != static_cast<size_t>(-1);
}

size_t RegionSet::EraseStartsIn(uint64_t begin, uint64_t end) {
  auto lo = std::lower_bound(
      regions_.begin(), regions_.end(), begin,
      [](const Region& r, uint64_t s) { return r.start < s; });
  auto hi = std::lower_bound(
      lo, regions_.end(), end,
      [](const Region& r, uint64_t s) { return r.start < s; });
  size_t n = static_cast<size_t>(hi - lo);
  regions_.erase(lo, hi);
  return n;
}

void RegionSet::InsertRun(const std::vector<Region>& run) {
  if (run.empty()) return;
#ifndef NDEBUG
  for (size_t i = 1; i < run.size(); ++i) {
    assert(run[i - 1] < run[i] && "run not canonically sorted");
  }
#endif
  auto at = std::lower_bound(regions_.begin(), regions_.end(), run.front());
  assert((at == regions_.end() || run.back().start < at->start) &&
         "run start window overlaps existing members");
  assert((at == regions_.begin() ||
          std::prev(at)->start < run.front().start) &&
         "run start window overlaps existing members");
  regions_.insert(at, run.begin(), run.end());
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

void SetKernelPolicy(KernelPolicy policy) {
  KernelPolicyFlag().store(policy, std::memory_order_relaxed);
}

KernelPolicy kernel_policy() {
  return KernelPolicyFlag().load(std::memory_order_relaxed);
}

RegionSet Intersect(const RegionSet& a, const RegionSet& b) {
  const RegionSet& small = a.size() <= b.size() ? a : b;
  const RegionSet& large = a.size() <= b.size() ? b : a;
  if (UseGalloping(small.size(), large.size())) {
    return GallopIntersect(small, large);
  }
  std::vector<Region> out;
  out.reserve(small.size());
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
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
  std::vector<Region> out;
  const std::vector<Region>& v = r.regions();
  MinEndTable min_end(v);
  for (size_t i = 0; i < v.size(); ++i) {
    // Any member contained in v[i] appears after i (canonical order) with
    // start <= v[i].end; it is contained iff its end <= v[i].end.
    auto hi_it = std::upper_bound(
        v.begin() + i + 1, v.end(), v[i].end,
        [](uint64_t p, const Region& x) { return p < x.start; });
    size_t hi = static_cast<size_t>(hi_it - v.begin());
    if (min_end.Min(i + 1, hi) > v[i].end) out.push_back(v[i]);
  }
  return RegionSet::FromSortedUnique(std::move(out));
}

RegionSet Outermost(const RegionSet& r) {
  std::vector<Region> out;
  const std::vector<Region>& v = r.regions();
  uint64_t max_end = 0;
  for (const Region& cand : v) {
    // Any member containing cand appears before it (canonical order) and
    // contains it iff its end >= cand.end.
    if (max_end < cand.end) out.push_back(cand);
    max_end = std::max(max_end, cand.end);
  }
  return RegionSet::FromSortedUnique(std::move(out));
}

namespace {

/// Shared adaptive dispatch for ⊃ and its strict variant. Only the
/// r-small case has a galloping kernel: the table-based kernel's work is
/// dominated by iterating r, which the output is drawn from.
RegionSet IncludingDispatch(const RegionSet& r, const RegionSet& s,
                            bool strict) {
  if (r.empty() || s.empty()) return RegionSet();
  if (r.size() <= s.size() && UseGalloping(r.size(), s.size())) {
    return GallopIncluding(r, s, strict);
  }
  return IncludingImpl(r, s, strict);
}

/// Shared adaptive dispatch for ⊂ and its strict variant; both skew
/// directions have galloping kernels.
RegionSet IncludedInDispatch(const RegionSet& r, const RegionSet& s,
                             bool strict) {
  if (r.empty() || s.empty()) return RegionSet();
  if (r.size() <= s.size()) {
    if (UseGalloping(r.size(), s.size())) {
      return GallopIncludedInSmallR(r, s, strict);
    }
  } else if (UseGalloping(s.size(), r.size())) {
    return GallopIncludedInSmallS(r, s, strict);
  }
  return IncludedInImpl(r, s, strict);
}

}  // namespace

RegionSet Including(const RegionSet& r, const RegionSet& s) {
  return IncludingDispatch(r, s, /*strict=*/false);
}

RegionSet IncludedIn(const RegionSet& r, const RegionSet& s) {
  return IncludedInDispatch(r, s, /*strict=*/false);
}

RegionSet IncludingStrict(const RegionSet& r, const RegionSet& s) {
  return IncludingDispatch(r, s, /*strict=*/true);
}

RegionSet IncludedInStrict(const RegionSet& r, const RegionSet& s) {
  return IncludedInDispatch(r, s, /*strict=*/true);
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
    pos_ = GallopLowerBound(uv_, pos_, q);  // first member not before q
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
    start_pos_ = GallopLowerBound(uv_, start_pos_, Region{x, UINT64_MAX});
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
  std::vector<Region> out;
  for (const Region& q : r) {
    bool keep = false;
    probe.Enclosers(q, [&](uint32_t e) {
      keep = keep || s.ContainsRegion(universe[e]);
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
