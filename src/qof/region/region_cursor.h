#ifndef QOF_REGION_REGION_CURSOR_H_
#define QOF_REGION_REGION_CURSOR_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "qof/region/region.h"
#include "qof/region/region_set.h"
#include "qof/util/result.h"
#include "qof/util/status.h"

namespace qof {

/// Block-oriented read access to one stored region instance — the
/// abstraction the disk tier hands the galloping kernels. A cursor exposes
/// the instance as a sequence of canonical-order blocks with [first, last]
/// start bounds per block, so a probe can discard whole blocks on their
/// min/max before the block's bytes are decompressed (or even paged in).
/// The in-memory implementation (VectorRegionCursor) views an existing
/// vector; the disk implementation (qof/store/) decodes delta+varint
/// blocks out of a paged file through the buffer pool.
///
/// Per-cursor I/O attribution the disk implementation fills in (the
/// in-memory cursor reports zeros): how many pages its reads pulled from
/// disk and in how many VFS read calls.
struct CursorIoStats {
  uint64_t pages_read = 0;
  uint64_t read_calls = 0;
};

/// Cursors are single-reader: one thread walks one cursor. Blocks are
/// indexed 0..num_blocks() and partition the instance in canonical order.
class RegionCursor {
 public:
  virtual ~RegionCursor() = default;

  virtual uint64_t total_count() const = 0;
  virtual size_t num_blocks() const = 0;
  /// Smallest region start in block `b`.
  virtual uint64_t block_first(size_t b) const = 0;
  /// Largest region start in block `b`.
  virtual uint64_t block_last(size_t b) const = 0;
  /// Largest region end in block `b` — the bound the containment kernels
  /// skip on: a block with max_end < p.end cannot hold a region that
  /// encloses p, however early its starts are.
  virtual uint64_t block_max_end(size_t b) const = 0;

  /// Decodes block `b` into `out` (cleared first). The expensive step —
  /// the kernels call it only for blocks whose bounds survive skipping.
  virtual Status ReadBlock(size_t b, std::vector<Region>* out) = 0;

  /// Blocks actually decoded so far — the skip-effectiveness number the
  /// disk-tier bench reports against num_blocks().
  uint64_t blocks_decoded() const { return blocks_decoded_; }

  /// I/O this cursor has done so far (disk implementation only).
  virtual CursorIoStats io_stats() const { return CursorIoStats{}; }

 protected:
  uint64_t blocks_decoded_ = 0;
};

/// An in-memory cursor over a RegionSet's vector, blocked at `block_size`
/// regions. Used by tests and benches to compare the block-skipping path
/// against the plain kernels on identical data.
class VectorRegionCursor : public RegionCursor {
 public:
  explicit VectorRegionCursor(const std::vector<Region>* regions,
                              uint32_t block_size = 128)
      : regions_(regions), block_size_(block_size) {}

  uint64_t total_count() const override { return regions_->size(); }
  size_t num_blocks() const override {
    return (regions_->size() + block_size_ - 1) / block_size_;
  }
  uint64_t block_first(size_t b) const override {
    return (*regions_)[b * block_size_].start;
  }
  uint64_t block_last(size_t b) const override {
    size_t end = std::min<size_t>((b + 1) * block_size_, regions_->size());
    return (*regions_)[end - 1].start;
  }
  uint64_t block_max_end(size_t b) const override {
    size_t begin = b * block_size_;
    size_t end = std::min<size_t>(begin + block_size_, regions_->size());
    uint64_t max_end = 0;
    for (size_t i = begin; i < end; ++i) {
      max_end = std::max(max_end, (*regions_)[i].end);
    }
    return max_end;
  }
  Status ReadBlock(size_t b, std::vector<Region>* out) override {
    size_t begin = b * block_size_;
    size_t end = std::min<size_t>(begin + block_size_, regions_->size());
    out->assign(regions_->begin() + begin, regions_->begin() + end);
    ++blocks_decoded_;
    return Status::OK();
  }

 private:
  const std::vector<Region>* regions_;
  uint32_t block_size_;
};

/// Decodes every block — how a store-backed index materializes an
/// instance into memory.
Result<RegionSet> MaterializeCursor(RegionCursor& cursor);

/// Set intersection of `probe` (in memory, typically small) with the
/// instance behind `cursor` (typically large, on disk) — the
/// block-skipping variant of the galloping Intersect kernel: blocks whose
/// [first, last] range cannot contain a probe start are skipped without
/// decoding.
Result<RegionSet> IntersectCursor(const RegionSet& probe,
                                  RegionCursor& cursor);

/// Members of the instance behind `cursor` that contain at least one
/// member of `probe` — Including(instance, probe) without materializing
/// the instance. Candidate blocks for a probe region p are those with
/// block_first <= p.start, walked backward and skipped on
/// block_max_end < p.end; a prefix-max over the block max_ends stops the
/// walk as soon as no earlier block can reach p.end (for instances with
/// little nesting that is after one or two blocks).
Result<RegionSet> IncludingCursor(const RegionSet& probe,
                                  RegionCursor& cursor);

/// Members of the instance behind `cursor` contained in at least one
/// member of `probe` — IncludedIn(instance, probe) without materializing
/// the instance. A probe region p only reaches blocks whose start range
/// [first, last] intersects [p.start, p.end]; everything else is skipped
/// undecoded.
Result<RegionSet> IncludedInCursor(const RegionSet& probe,
                                   RegionCursor& cursor);

}  // namespace qof

#endif  // QOF_REGION_REGION_CURSOR_H_
