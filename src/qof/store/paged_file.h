#ifndef QOF_STORE_PAGED_FILE_H_
#define QOF_STORE_PAGED_FILE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "qof/store/page.h"
#include "qof/store/vfs.h"
#include "qof/util/result.h"
#include "qof/util/status.h"

namespace qof {

/// Read-only random access to a page file, routed through the process
/// DefaultVfs() so tests and the crash-sweep fuzzer can substitute a
/// FaultVfs. Thread-safe: reads are positional (pread), so concurrent
/// ReadPage calls need no seek lock.
class PagedFile {
 public:
  /// Opens `path` and validates that its size is a whole number of
  /// `page_size`-byte pages.
  static Result<PagedFile> Open(const std::string& path, uint32_t page_size);

  PagedFile() = default;
  PagedFile(PagedFile&&) noexcept = default;
  PagedFile& operator=(PagedFile&&) noexcept = default;
  PagedFile(const PagedFile&) = delete;
  PagedFile& operator=(const PagedFile&) = delete;

  uint32_t page_size() const { return page_size_; }
  uint32_t num_pages() const { return num_pages_; }
  uint64_t file_bytes() const {
    return static_cast<uint64_t>(num_pages_) * page_size_;
  }
  const std::string& path() const { return path_; }

  /// Reads the raw image of one page into `buf` (resized to page_size).
  /// Does not parse or verify the header — that is the buffer pool's job.
  Status ReadPage(uint32_t page_no, std::string* buf) const;

 private:
  std::string path_;
  std::shared_ptr<RandomAccessFile> file_;
  uint32_t page_size_ = 0;
  uint32_t num_pages_ = 0;
};

/// Writes `bytes` (an already page-aligned image) to `path` atomically:
/// temp file + fsync + rename + parent-directory fsync via the
/// DefaultVfs()'s AtomicWriteFile. A crash or short write (disk full)
/// never leaves a partial image visible at the final name.
Status WriteFileBytes(const std::string& path, const std::string& bytes);

/// Reads a whole file.
Result<std::string> ReadFileBytes(const std::string& path);

/// Reads the first `n` bytes of a file (fails if it is shorter) — the
/// store's meta page is bootstrapped this way before the true page size
/// is known.
Result<std::string> ReadFilePrefix(const std::string& path, size_t n);

}  // namespace qof

#endif  // QOF_STORE_PAGED_FILE_H_
