#ifndef QOF_STORE_BUFFER_POOL_H_
#define QOF_STORE_BUFFER_POOL_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "qof/store/page.h"
#include "qof/store/paged_file.h"
#include "qof/util/result.h"
#include "qof/util/status.h"

namespace qof {

struct BufferPoolOptions {
  /// Frames the pool holds resident. Small values force eviction in tests;
  /// the engine's default keeps the hot dictionary and posting pages of a
  /// working set pinned-or-resident.
  uint32_t capacity_pages = 256;
};

/// Counters the store-smoke gate and `qof_store inspect` report.
struct BufferPoolStats {
  uint64_t fetches = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;       // demand pages read (and verified) from disk
  uint64_t evictions = 0;
  uint64_t checksum_failures = 0;
  uint64_t io_errors = 0;      // reads that failed even after the retry
  uint64_t read_retries = 0;   // transient I/O errors absorbed by a retry
  uint64_t pages_touched = 0;  // distinct pages ever fetched from disk
  uint64_t bytes_read = 0;     // pages_read * page_size
  uint64_t read_calls = 0;     // VFS read invocations (retries included)
  uint64_t pages_read = 0;     // equals misses: one page per demand read
  // Always zero: every page enters the pool through a demand Fetch. Kept
  // only because the end-to-end benchmark still reports them.
  uint64_t prefetch_pages = 0;
  uint64_t prefetch_hits = 0;
  uint32_t capacity_pages = 0;
  uint32_t resident_pages = 0;
  uint32_t pinned_frames = 0;
};

/// Per-call I/O attribution: a caller that passes one of these to Fetch
/// gets its own share of the pool counters added in — exact even when
/// concurrent queries share the pool (a stats() delta is not).
struct FetchIo {
  uint64_t read_calls = 0;
  uint64_t pages_read = 0;
};

class BufferPool;

/// A pinned page: holds one reference on its frame; the frame cannot be
/// evicted (and its bytes cannot move) until every PageRef drops. Movable,
/// not copyable.
class PageRef {
 public:
  PageRef() = default;
  ~PageRef() { Release(); }
  PageRef(PageRef&& other) noexcept
      : pool_(other.pool_), frame_(other.frame_) {
    other.pool_ = nullptr;
  }
  PageRef& operator=(PageRef&& other) noexcept {
    if (this != &other) {
      Release();
      pool_ = other.pool_;
      frame_ = other.frame_;
      other.pool_ = nullptr;
    }
    return *this;
  }
  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;

  bool valid() const { return pool_ != nullptr; }
  PageType type() const;
  uint32_t page_no() const;
  /// The page's payload bytes (checksum already verified at fetch).
  std::string_view payload() const;

  void Release();

 private:
  friend class BufferPool;
  PageRef(BufferPool* pool, uint32_t frame) : pool_(pool), frame_(frame) {}

  BufferPool* pool_ = nullptr;
  uint32_t frame_ = 0;
};

/// Pinning buffer manager over a PagedFile (the redbase architecture:
/// fixed-size pages, refcounted frames, clock second-chance eviction).
/// Fetch verifies the page checksum on every miss, so damaged pages fail
/// loudly before any payload byte is decoded. Thread-safe; fetches
/// serialize on one mutex (reads are single-digit-microsecond page copies,
/// and the engine's parallelism is at the query level).
///
/// Frame bytes are allocated once per frame and overwritten in place on
/// eviction, so a stale PageRef held across an (injected) evict-pinned bug
/// reads wrong-but-valid memory — a differential mismatch, not UB.
class BufferPool {
 public:
  BufferPool(const PagedFile* file, BufferPoolOptions options = {});

  /// Pins `page_no`, reading and verifying it on a miss. Fails when every
  /// frame is pinned (the caller holds too many pages for the pool size),
  /// when the page fails its checksum, and when the calling thread's
  /// ExecContext (ExecContext::CurrentThread) has tripped a governance
  /// limit. `io` (optional) accumulates this call's share of the I/O
  /// counters.
  Result<PageRef> Fetch(uint32_t page_no, FetchIo* io = nullptr);

  BufferPoolStats stats() const;
  /// Forgets which pages have been touched and zeroes the counters (the
  /// benches measure per-query page footprints this way).
  void ResetStats();

  uint32_t page_size() const { return file_->page_size(); }
  uint32_t num_pages() const { return file_->num_pages(); }

 private:
  friend class PageRef;

  struct Frame {
    uint32_t page_no = 0;
    bool valid = false;
    bool ref_bit = false;
    uint32_t pins = 0;
    PageHeader header;
    std::string data;  // page_size bytes, allocated once, reused
  };

  void Unpin(uint32_t frame);
  /// Picks a victim frame (clock second-chance, pinned frames skipped
  /// unless the evict-pinned bug is injected) or grows the pool while
  /// below capacity. Returns the frame index or an error when every frame
  /// is pinned.
  Result<uint32_t> PickVictimLocked();

  const PagedFile* file_;
  BufferPoolOptions options_;

  mutable std::mutex mu_;
  std::vector<Frame> frames_;
  std::unordered_map<uint32_t, uint32_t> page_to_frame_;
  uint32_t clock_hand_ = 0;
  BufferPoolStats stats_;
  std::vector<bool> touched_;  // by page_no, for stats_.pages_touched
};

}  // namespace qof

#endif  // QOF_STORE_BUFFER_POOL_H_
