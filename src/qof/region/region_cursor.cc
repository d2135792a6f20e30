#include "qof/region/region_cursor.h"

#include <algorithm>

namespace qof {
namespace {

/// Gallop + binary search: the first block at or after `b` whose
/// block_last reaches `start` (nb when every remaining block falls
/// short).
size_t GallopToBlock(const RegionCursor& cursor, size_t nb, size_t b,
                     uint64_t start) {
  if (b >= nb || cursor.block_last(b) >= start) return b;
  size_t lo = b;  // block_last(lo) < start
  size_t step = 1;
  size_t hi = lo + step;
  while (hi < nb && cursor.block_last(hi) < start) {
    lo = hi;
    step *= 2;
    hi = lo + step;
  }
  if (hi > nb) hi = nb;
  // First index in (lo, hi] whose block_last reaches start (hi when none
  // does; hi == nb means every remaining block falls short).
  size_t left = lo + 1, right = hi;
  while (left < right) {
    size_t mid = left + (right - left) / 2;
    if (cursor.block_last(mid) < start) {
      left = mid + 1;
    } else {
      right = mid;
    }
  }
  return left;
}

}  // namespace

Result<RegionSet> MaterializeCursor(RegionCursor& cursor) {
  std::vector<Region> all;
  all.reserve(cursor.total_count());
  std::vector<Region> block;
  for (size_t b = 0; b < cursor.num_blocks(); ++b) {
    QOF_RETURN_IF_ERROR(cursor.ReadBlock(b, &block));
    all.insert(all.end(), block.begin(), block.end());
  }
  return RegionSet::FromSortedUnique(std::move(all));
}

Result<RegionSet> IntersectCursor(const RegionSet& probe,
                                  RegionCursor& cursor) {
  std::vector<Region> out;
  const size_t nb = cursor.num_blocks();
  if (nb == 0 || probe.size() == 0) {
    return RegionSet::FromSortedUnique(std::move(out));
  }
  std::vector<Region> block;
  size_t decoded = SIZE_MAX;  // which block `block` currently holds
  size_t b = 0;
  for (const Region& p : probe) {
    // Skip whole blocks on their max start — no decode, and for the disk
    // cursor no page fetch either. Gallop + binary search instead of a
    // linear walk: at high skew the probe lands in a handful of blocks,
    // and stepping over every bound in between would cost more than the
    // decodes themselves.
    b = GallopToBlock(cursor, nb, b, p.start);
    if (b == nb) break;
    // p can only live in blocks whose [first, last] covers p.start. An
    // equal-start run may straddle a block boundary (ends descend across
    // it), so keep probing while the next block still starts at p.start.
    for (size_t bb = b; bb < nb && cursor.block_first(bb) <= p.start; ++bb) {
      if (decoded != bb) {
        QOF_RETURN_IF_ERROR(cursor.ReadBlock(bb, &block));
        decoded = bb;
      }
      auto it = std::lower_bound(block.begin(), block.end(), p);
      if (it != block.end() && *it == p) {
        out.push_back(p);
        break;
      }
    }
  }
  return RegionSet::FromSortedUnique(std::move(out));
}

namespace {

/// Collects, canonically orders and dedupes kernel hits. The containment
/// kernels can find the same member through several probe regions.
RegionSet Canonicalize(std::vector<Region> hits) {
  std::sort(hits.begin(), hits.end());
  hits.erase(std::unique(hits.begin(), hits.end()), hits.end());
  return RegionSet::FromSortedUnique(std::move(hits));
}

/// Index of the last block whose first start is <= key, or SIZE_MAX when
/// every block starts past key.
size_t LastBlockStartingAtOrBefore(const RegionCursor& cursor, size_t nb,
                                   uint64_t key) {
  size_t left = 0, right = nb;  // first block with block_first > key
  while (left < right) {
    size_t mid = left + (right - left) / 2;
    if (cursor.block_first(mid) <= key) {
      left = mid + 1;
    } else {
      right = mid;
    }
  }
  return left - 1;  // SIZE_MAX when left == 0
}

}  // namespace

Result<RegionSet> IncludingCursor(const RegionSet& probe,
                                  RegionCursor& cursor) {
  const size_t nb = cursor.num_blocks();
  if (nb == 0 || probe.size() == 0) return RegionSet();
  // prefix_max[b] = max block_max_end over blocks [0, b) — the block-level
  // analogue of IncludedInImpl's per-member prefix table. The backward
  // candidate walk stops the moment no earlier block can reach p.end.
  std::vector<uint64_t> prefix_max(nb + 1, 0);
  for (size_t b = 0; b < nb; ++b) {
    prefix_max[b + 1] = std::max(prefix_max[b], cursor.block_max_end(b));
  }
  std::vector<Region> out;
  std::vector<Region> block;
  size_t decoded = SIZE_MAX;
  for (const Region& p : probe) {
    // A member containing p has start <= p.start: blocks (0..bl].
    size_t bl = LastBlockStartingAtOrBefore(cursor, nb, p.start);
    if (bl == SIZE_MAX) continue;
    for (size_t b = bl + 1; b-- > 0;) {
      if (prefix_max[b + 1] < p.end) break;
      if (cursor.block_max_end(b) < p.end) continue;
      if (decoded != b) {
        QOF_RETURN_IF_ERROR(cursor.ReadBlock(b, &block));
        decoded = b;
      }
      // Canonical order: members with start <= p.start are a prefix of
      // the block (an equal-start run's descending ends don't matter for
      // the start bound).
      auto stop = std::upper_bound(
          block.begin(), block.end(), p.start,
          [](uint64_t s, const Region& r) { return s < r.start; });
      for (auto it = block.begin(); it != stop; ++it) {
        if (it->end >= p.end) out.push_back(*it);
      }
    }
  }
  return Canonicalize(std::move(out));
}

Result<RegionSet> IncludedInCursor(const RegionSet& probe,
                                   RegionCursor& cursor) {
  const size_t nb = cursor.num_blocks();
  if (nb == 0 || probe.size() == 0) return RegionSet();
  std::vector<Region> out;
  std::vector<Region> block;
  size_t decoded = SIZE_MAX;
  size_t b = 0;
  for (const Region& p : probe) {
    // Probe starts ascend, so the first block that can hold a member
    // starting at or after p.start only moves forward — but within one
    // probe's span several blocks may qualify, so `b` itself must not
    // advance past blocks a later (nested) probe still needs.
    size_t lo = b;
    while (lo < nb && cursor.block_last(lo) < p.start) ++lo;
    b = lo;
    for (size_t bb = lo; bb < nb && cursor.block_first(bb) <= p.end; ++bb) {
      if (decoded != bb) {
        QOF_RETURN_IF_ERROR(cursor.ReadBlock(bb, &block));
        decoded = bb;
      }
      // Members with start in [p.start, p.end] and end <= p.end are
      // inside p.
      auto it = std::lower_bound(
          block.begin(), block.end(), p.start,
          [](const Region& r, uint64_t s) { return r.start < s; });
      for (; it != block.end() && it->start <= p.end; ++it) {
        if (it->end <= p.end) out.push_back(*it);
      }
    }
    if (b == nb) break;
  }
  return Canonicalize(std::move(out));
}

}  // namespace qof
