#include "qof/store/buffer_pool.h"

#include "qof/exec/exec_context.h"
#include "qof/exec/fault_injector.h"

namespace qof {

PageType PageRef::type() const { return pool_->frames_[frame_].header.type; }

uint32_t PageRef::page_no() const { return pool_->frames_[frame_].page_no; }

std::string_view PageRef::payload() const {
  const BufferPool::Frame& f = pool_->frames_[frame_];
  return std::string_view(f.data.data() + kPageHeaderSize,
                          f.header.payload_len);
}

void PageRef::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
  }
}

BufferPool::BufferPool(const PagedFile* file, BufferPoolOptions options)
    : file_(file), options_(options) {
  if (options_.capacity_pages == 0) options_.capacity_pages = 1;
  // Frames never relocate: PageRef readers dereference frames_[i] without
  // the mutex, which is only safe because this vector never reallocates.
  frames_.reserve(options_.capacity_pages);
  stats_.capacity_pages = options_.capacity_pages;
  touched_.resize(file_->num_pages(), false);
}

void BufferPool::Unpin(uint32_t frame) {
  std::lock_guard<std::mutex> lock(mu_);
  --frames_[frame].pins;
}

Result<uint32_t> BufferPool::PickVictimLocked() {
  if (frames_.size() < options_.capacity_pages) {
    frames_.emplace_back();
    return static_cast<uint32_t>(frames_.size() - 1);
  }
  // Clock second-chance: one lap forgives ref bits, the second finds any
  // unpinned frame; more laps cannot change the answer. The evict-pinned
  // planted bug treats pinned frames as evictable, so a page can be
  // stolen out from under a live PageRef.
  const bool steal_pinned = PlantedBugArmed(planted_bug::kEvictPinned);
  for (size_t scanned = 0; scanned < 2 * frames_.size(); ++scanned) {
    uint32_t f = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % frames_.size();
    Frame& frame = frames_[f];
    if (frame.pins > 0 && !steal_pinned) continue;
    if (frame.ref_bit) {
      frame.ref_bit = false;
      continue;
    }
    return f;
  }
  return Status::Internal(
      "buffer pool: every frame is pinned (capacity " +
      std::to_string(options_.capacity_pages) +
      " pages); unpin cursors or open the store with a larger pool");
}

Result<PageRef> BufferPool::Fetch(uint32_t page_no, FetchIo* io) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.fetches;
  auto it = page_to_frame_.find(page_no);
  if (it != page_to_frame_.end()) {
    Frame& frame = frames_[it->second];
    frame.ref_bit = true;
    ++frame.pins;
    ++stats_.hits;
    return PageRef(this, it->second);
  }

  // A miss does I/O: the one place the disk tier can stall, so it is also
  // where a governed call's deadline/cancellation is honored.
  if (const ExecContext* ctx = ExecContext::CurrentThread()) {
    QOF_RETURN_IF_ERROR(ctx->Check());
  }

  QOF_ASSIGN_OR_RETURN(uint32_t f, PickVictimLocked());
  Frame& frame = frames_[f];
  if (frame.valid) {
    page_to_frame_.erase(frame.page_no);
    frame.valid = false;
    ++stats_.evictions;
  }
  // One retry on a read error: transient EIO (a loose cable, a busy
  // controller) should not fail a query that a re-read would satisfy. A
  // second failure is surfaced — and the frame stays invalid, so a bad
  // read is never cached. The frame buffer is cleared before each
  // attempt: the page checksum covers content only (not the page number),
  // so a read that "succeeds" without transferring every byte into a
  // buffer still holding the evicted page's image would otherwise pass
  // verification and cache the *previous* page under the new number.
  frame.data.clear();
  ++stats_.read_calls;
  if (io != nullptr) ++io->read_calls;
  Status read = file_->ReadPage(page_no, &frame.data);
  if (!read.ok()) {
    ++stats_.read_retries;
    ++stats_.read_calls;
    if (io != nullptr) ++io->read_calls;
    frame.data.clear();
    read = file_->ReadPage(page_no, &frame.data);
    if (!read.ok()) {
      ++stats_.io_errors;
      return read;
    }
  }
  if (frame.data.size() != file_->page_size()) {
    ++stats_.io_errors;
    return Status::Internal(
        "buffer pool: short read of page " + std::to_string(page_no) +
        " (" + std::to_string(frame.data.size()) + " of " +
        std::to_string(file_->page_size()) + " bytes)");
  }
  ++stats_.misses;
  ++stats_.pages_read;
  stats_.bytes_read += file_->page_size();
  if (io != nullptr) ++io->pages_read;
  if (!touched_[page_no]) {
    touched_[page_no] = true;
    ++stats_.pages_touched;
  }
  auto header = ParsePage(frame.data, file_->page_size(), page_no);
  if (!header.ok()) {
    ++stats_.checksum_failures;
    return header.status();
  }
  frame.header = *header;
  frame.page_no = page_no;
  frame.valid = true;
  frame.ref_bit = true;
  frame.pins = 1;
  page_to_frame_.emplace(page_no, f);
  return PageRef(this, f);
}

BufferPoolStats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  BufferPoolStats out = stats_;
  out.resident_pages = 0;
  out.pinned_frames = 0;
  for (const Frame& f : frames_) {
    if (f.valid) ++out.resident_pages;
    if (f.pins > 0) ++out.pinned_frames;
  }
  return out;
}

void BufferPool::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  uint32_t capacity = stats_.capacity_pages;
  stats_ = BufferPoolStats{};
  stats_.capacity_pages = capacity;
  touched_.assign(touched_.size(), false);
}

}  // namespace qof
