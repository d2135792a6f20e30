#ifndef QOF_TEXT_COMPACTION_MAP_H_
#define QOF_TEXT_COMPACTION_MAP_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>

#include "qof/text/corpus.h"

namespace qof {

/// One live document's shift under compaction: bytes in
/// [old_start, old_end) move by `delta` (signed — documents only ever
/// move toward the front).
struct LiveSegment {
  TextPos old_start;
  TextPos old_end;
  int64_t delta;
};

inline TextPos ShiftPos(TextPos p, int64_t delta) {
  return static_cast<TextPos>(static_cast<int64_t>(p) + delta);
}

/// Maps spans of a fragmented corpus into the dense layout compaction
/// writes, given the live documents' segments in physical order.
/// Compaction keeps live documents in that order, so the map is
/// monotone: a sorted region instance or posting list stays sorted, and
/// one forward cursor serves a whole list — a lookup is O(1) unless it
/// skips segments, which it crosses by binary search.
class SegmentCursor {
 public:
  explicit SegmentCursor(std::span<const LiveSegment> segs) : segs_(segs) {}

  /// The shift of [start, end), which must not start before the span
  /// asked for last; nullopt when the span does not lie inside one live
  /// document (it points into a tombstoned span: a tombstone was lost).
  std::optional<int64_t> Delta(TextPos start, TextPos end) {
    if (at_ < segs_.size() && segs_[at_].old_end <= start) {
      at_ = std::partition_point(segs_.begin() + at_, segs_.end(),
                                 [start](const LiveSegment& s) {
                                   return s.old_end <= start;
                                 }) -
            segs_.begin();
    }
    if (at_ == segs_.size() || start < segs_[at_].old_start ||
        end > segs_[at_].old_end) {
      return std::nullopt;
    }
    return segs_[at_].delta;
  }

 private:
  std::span<const LiveSegment> segs_;
  size_t at_ = 0;
};

}  // namespace qof

#endif  // QOF_TEXT_COMPACTION_MAP_H_
