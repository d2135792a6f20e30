#ifndef QOF_STORE_PAGED_STORE_H_
#define QOF_STORE_PAGED_STORE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "qof/region/region_cursor.h"
#include "qof/store/buffer_pool.h"
#include "qof/store/paged_file.h"
#include "qof/store/posting_codec.h"
#include "qof/store/store_format.h"
#include "qof/util/result.h"
#include "qof/util/status.h"

namespace qof {

struct PagedStoreOptions {
  /// Buffer-pool frames (pool bytes = pool_pages * page_size).
  uint32_t pool_pages = 256;
};

/// Read access to a "QOFSTOR1" file: meta, fence-guided dictionary
/// lookups, and posting-stream reads, all through the pinning buffer
/// pool (only the meta page and the fence keys are loaded eagerly at
/// open, so a selective query touches only the pages its keys live on).
/// Thread-safe; immovable (cursors and the pool point into it), so Open
/// returns shared_ptr — index sources and open cursors share ownership.
class PagedStore {
 public:
  static Result<std::shared_ptr<const PagedStore>> Open(
      const std::string& path, PagedStoreOptions options = {});

  PagedStore(const PagedStore&) = delete;
  PagedStore& operator=(const PagedStore&) = delete;

  const StoreMeta& meta() const { return meta_; }
  const PagedFile& file() const { return file_; }
  uint32_t page_size() const { return file_.page_size(); }
  uint32_t num_pages() const { return file_.num_pages(); }

  BufferPoolStats pool_stats() const { return pool_.stats(); }
  void ResetPoolStats() const { pool_.ResetStats(); }

  /// One dictionary entry: where the key's posting stream lives inside
  /// the postings section.
  struct DictEntry {
    std::string key;
    uint64_t byte_off = 0;
    uint64_t byte_len = 0;
    uint64_t header_len = 0;
    uint64_t count = 0;
  };

  /// Whole-section reads (spec, doc table) — paged through the pool one
  /// page at a time.
  Result<std::string> ReadSection(StoreSection section) const;

  /// Dictionary probes: fence binary search picks the one dict page that
  /// can hold the key; nullopt when the key is not stored.
  Result<std::optional<DictEntry>> FindRegionEntry(
      std::string_view name) const;
  Result<std::optional<DictEntry>> FindWordEntry(std::string_view word) const;

  /// Full dictionary scans (conversion, EnsureResident, inspect).
  Result<std::vector<DictEntry>> AllRegionEntries() const;
  Result<std::vector<DictEntry>> AllWordEntries() const;

  /// Stored words beginning with `prefix`, sorted — reads only the dict
  /// pages the fence keys say can hold such words.
  Result<std::vector<std::string>> WordsWithPrefix(
      std::string_view prefix) const;

  /// Materializes a word's posting list from its entry.
  Result<std::vector<uint64_t>> LoadPostings(const DictEntry& entry) const;

  /// A block-skipping cursor over a region instance. The cursor pins
  /// pages only while decoding a block; `self` must be the shared_ptr
  /// this store was opened as (the cursor keeps the store alive).
  static Result<std::unique_ptr<RegionCursor>> OpenRegionCursor(
      std::shared_ptr<const PagedStore> self, const DictEntry& entry);

 private:
  PagedStore(PagedFile file, const StoreMeta& meta,
             const PagedStoreOptions& options)
      : file_(std::move(file)),
        meta_(meta),
        pool_(&file_, BufferPoolOptions{options.pool_pages}) {}

  friend class StoreRegionCursorImpl;

  /// Copies `len` stream bytes of `section` starting at stream offset
  /// `off`, pinning one page at a time.
  Status ReadStreamRange(StoreSection section, uint64_t off, uint64_t len,
                         std::string* out) const;

  /// Pins every page covering the range at once and assembles the bytes —
  /// the block-read path (simultaneous pins are what make the injected
  /// evict-pinned bug observable, and what a real DB would decode from).
  /// `io` (optional) accumulates the fetches' I/O attribution.
  Status ReadStreamRangePinned(StoreSection section, uint64_t off,
                               uint64_t len, std::vector<PageRef>* pins,
                               std::string* scratch, std::string_view* bytes,
                               FetchIo* io = nullptr) const;

  /// Parses the entries of one dict page.
  Status ReadDictPage(StoreSection section, uint32_t index,
                      std::vector<DictEntry>* out) const;

  Result<std::optional<DictEntry>> FindEntry(
      StoreSection fence_section, StoreSection dict_section,
      const std::vector<std::string>& fences, std::string_view key) const;

  Result<PostingStreamHeader> ReadStreamHeader(const DictEntry& entry) const;

  PagedFile file_;
  StoreMeta meta_;
  mutable BufferPool pool_;
  /// First key of every dict page, loaded eagerly at open.
  std::vector<std::string> region_fences_;
  std::vector<std::string> word_fences_;
};

}  // namespace qof

#endif  // QOF_STORE_PAGED_STORE_H_
