#include "qof/store/paged_store.h"

#include <algorithm>
#include <utility>

#include "qof/util/wire.h"

namespace qof {
namespace {

Result<std::vector<std::string>> DecodeFences(std::string_view bytes,
                                              const std::string& what) {
  WireReader reader(bytes, what);
  QOF_ASSIGN_OR_RETURN(uint32_t count, reader.U32());
  QOF_RETURN_IF_ERROR(reader.CheckCount(count, 4));
  std::vector<std::string> fences;
  fences.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    QOF_ASSIGN_OR_RETURN(std::string key, reader.String());
    fences.push_back(std::move(key));
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument(what + ": trailing bytes");
  }
  return fences;
}

}  // namespace

/// Disk-backed RegionCursor: skip bounds come from the eagerly decoded
/// stream header; ReadBlock pins exactly the pages the block's bytes span
/// (all at once), decodes, and unpins.
class StoreRegionCursorImpl : public RegionCursor {
 public:
  StoreRegionCursorImpl(std::shared_ptr<const PagedStore> store,
                        PagedStore::DictEntry entry,
                        PostingStreamHeader header)
      : store_(std::move(store)),
        entry_(std::move(entry)),
        header_(std::move(header)) {}

  uint64_t total_count() const override { return header_.total_count; }
  size_t num_blocks() const override { return header_.blocks.size(); }
  uint64_t block_first(size_t b) const override {
    return header_.blocks[b].first;
  }
  uint64_t block_last(size_t b) const override {
    return header_.blocks[b].last;
  }
  uint64_t block_max_end(size_t b) const override {
    return header_.blocks[b].max_end;
  }

  CursorIoStats io_stats() const override {
    CursorIoStats out;
    out.pages_read = io_.pages_read;
    out.read_calls = io_.read_calls;
    return out;
  }

  Status ReadBlock(size_t b, std::vector<Region>* out) override {
    // A long-lived cursor (repeated probes of one hot instance) keeps the
    // blocks it already decoded: a re-probe costs a copy, not a page pin
    // plus a varint decode. Bounded so a full materialization through a
    // cursor cannot hold the whole instance decoded twice.
    if (cache_.size() != header_.blocks.size()) {
      cache_.resize(header_.blocks.size());
    }
    if (!cache_[b].empty()) {
      *out = cache_[b];
      return Status::OK();
    }
    out->clear();
    const PostingBlockMeta& m = header_.blocks[b];
    std::string_view bytes;
    pins_.clear();
    QOF_RETURN_IF_ERROR(store_->ReadStreamRangePinned(
        StoreSection::kPostings,
        entry_.byte_off + entry_.header_len + m.byte_off, m.byte_len,
        &pins_, &scratch_, &bytes, &io_));
    QOF_RETURN_IF_ERROR(DecodeRegionBlock(m, bytes, entry_.key, out));
    pins_.clear();
    ++blocks_decoded_;
    if (cached_blocks_ < kMaxCachedBlocks) {
      cache_[b] = *out;
      ++cached_blocks_;
    }
    return Status::OK();
  }

 private:
  /// At 128 regions a block this caps the cache at ~2 MB per cursor.
  static constexpr size_t kMaxCachedBlocks = 1024;

  std::shared_ptr<const PagedStore> store_;
  PagedStore::DictEntry entry_;
  PostingStreamHeader header_;
  /// Indexed by block; an empty slot is "not cached" (stored blocks are
  /// never empty). Direct indexing keeps the warm-hit path at an array
  /// load plus a copy — no hashing on the kernels' hot path.
  std::vector<std::vector<Region>> cache_;
  size_t cached_blocks_ = 0;
  std::vector<PageRef> pins_;
  std::string scratch_;
  FetchIo io_;
};

Result<std::shared_ptr<const PagedStore>> PagedStore::Open(
    const std::string& path, PagedStoreOptions options) {
  QOF_ASSIGN_OR_RETURN(std::string prefix,
                       ReadFilePrefix(path, kMinStorePageSize));
  QOF_ASSIGN_OR_RETURN(StoreMeta meta, DecodeMetaPage(prefix));
  QOF_ASSIGN_OR_RETURN(PagedFile file, PagedFile::Open(path, meta.page_size));
  for (const SectionInfo& s : meta.sections) {
    if (uint64_t{s.first_page} + s.num_pages > file.num_pages()) {
      return Status::InvalidArgument(
          "paged store: meta page lists a section beyond the end of '" +
          path + "'");
    }
  }
  std::shared_ptr<PagedStore> store(
      new PagedStore(std::move(file), meta, options));
  QOF_ASSIGN_OR_RETURN(std::string region_fence_bytes,
                       store->ReadSection(StoreSection::kRegionFence));
  QOF_ASSIGN_OR_RETURN(
      store->region_fences_,
      DecodeFences(region_fence_bytes, "region fence section"));
  QOF_ASSIGN_OR_RETURN(std::string word_fence_bytes,
                       store->ReadSection(StoreSection::kWordFence));
  QOF_ASSIGN_OR_RETURN(store->word_fences_,
                       DecodeFences(word_fence_bytes, "word fence section"));
  return std::shared_ptr<const PagedStore>(std::move(store));
}

Result<std::string> PagedStore::ReadSection(StoreSection section) const {
  const SectionInfo& info = meta_.section(section);
  std::string out;
  out.reserve(info.byte_len);
  QOF_RETURN_IF_ERROR(ReadStreamRange(section, 0, info.byte_len, &out));
  return out;
}

Status PagedStore::ReadStreamRange(StoreSection section, uint64_t off,
                                   uint64_t len, std::string* out) const {
  const SectionInfo& info = meta_.section(section);
  if (off + len > info.byte_len) {
    return Status::InvalidArgument(
        "paged store: stream read past the end of the " +
        std::string(PageTypeName(SectionPageType(section))) + " section");
  }
  const uint32_t capacity = PagePayloadCapacity(page_size());
  while (len > 0) {
    uint32_t page_no = info.first_page + static_cast<uint32_t>(off / capacity);
    size_t in_page = off % capacity;
    QOF_ASSIGN_OR_RETURN(PageRef ref, pool_.Fetch(page_no));
    std::string_view payload = ref.payload();
    if (ref.type() != SectionPageType(section) ||
        payload.size() <= in_page) {
      return Status::InvalidArgument(
          "paged store: page " + std::to_string(page_no) +
          " does not belong to the expected section — the store file is "
          "damaged");
    }
    size_t take = std::min<uint64_t>(len, payload.size() - in_page);
    out->append(payload.substr(in_page, take));
    off += take;
    len -= take;
  }
  return Status::OK();
}

Status PagedStore::ReadStreamRangePinned(StoreSection section, uint64_t off,
                                         uint64_t len,
                                         std::vector<PageRef>* pins,
                                         std::string* scratch,
                                         std::string_view* bytes,
                                         FetchIo* io) const {
  const SectionInfo& info = meta_.section(section);
  if (off + len > info.byte_len) {
    return Status::InvalidArgument(
        "paged store: block read past the end of the postings section");
  }
  if (len == 0) {
    *bytes = std::string_view();
    return Status::OK();
  }
  const uint32_t capacity = PagePayloadCapacity(page_size());
  uint32_t first = static_cast<uint32_t>(off / capacity);
  uint32_t last = static_cast<uint32_t>((off + len - 1) / capacity);
  pins->clear();
  pins->reserve(last - first + 1);
  for (uint32_t p = first; p <= last; ++p) {
    QOF_ASSIGN_OR_RETURN(PageRef ref, pool_.Fetch(info.first_page + p, io));
    if (ref.type() != SectionPageType(section)) {
      return Status::InvalidArgument(
          "paged store: page " + std::to_string(info.first_page + p) +
          " does not belong to the expected section — the store file is "
          "damaged");
    }
    pins->push_back(std::move(ref));
  }
  // Assembled only after every pin is held: with the injected
  // evict-pinned bug, a later fetch can steal an earlier pinned frame,
  // and these reads then see the stolen frame's bytes — the corruption
  // the fuzzer's store rows exist to catch.
  size_t in_page = off % capacity;
  if (pins->size() == 1) {
    std::string_view payload = (*pins)[0].payload();
    if (payload.size() < in_page + len) {
      return Status::InvalidArgument(
          "paged store: short page in the postings section");
    }
    *bytes = payload.substr(in_page, len);
    return Status::OK();
  }
  scratch->clear();
  scratch->reserve(len);
  uint64_t remaining = len;
  for (const PageRef& ref : *pins) {
    std::string_view payload = ref.payload();
    if (payload.size() <= in_page) {
      return Status::InvalidArgument(
          "paged store: short page in the postings section");
    }
    size_t take = std::min<uint64_t>(remaining, payload.size() - in_page);
    scratch->append(payload.substr(in_page, take));
    remaining -= take;
    in_page = 0;
  }
  if (remaining != 0) {
    return Status::InvalidArgument(
        "paged store: short page in the postings section");
  }
  *bytes = *scratch;
  return Status::OK();
}

Status PagedStore::ReadDictPage(StoreSection section, uint32_t index,
                                std::vector<DictEntry>* out) const {
  const SectionInfo& info = meta_.section(section);
  if (index >= info.num_pages) {
    return Status::InvalidArgument("paged store: dict page out of range");
  }
  QOF_ASSIGN_OR_RETURN(PageRef ref, pool_.Fetch(info.first_page + index));
  if (ref.type() != SectionPageType(section)) {
    return Status::InvalidArgument(
        "paged store: expected a dictionary page — the store file is "
        "damaged");
  }
  WireReader reader(ref.payload(), "store dictionary page");
  QOF_ASSIGN_OR_RETURN(uint32_t count, reader.U32());
  QOF_RETURN_IF_ERROR(reader.CheckCount(count, 8));
  out->clear();
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    DictEntry e;
    QOF_ASSIGN_OR_RETURN(e.key, reader.String());
    QOF_ASSIGN_OR_RETURN(e.byte_off, reader.Varint());
    QOF_ASSIGN_OR_RETURN(e.byte_len, reader.Varint());
    QOF_ASSIGN_OR_RETURN(e.header_len, reader.Varint());
    QOF_ASSIGN_OR_RETURN(e.count, reader.Varint());
    const SectionInfo& postings = meta_.section(StoreSection::kPostings);
    if (e.byte_off + e.byte_len > postings.byte_len ||
        e.header_len > e.byte_len) {
      return Status::InvalidArgument(
          "paged store: dictionary entry '" + e.key +
          "' points outside the postings section");
    }
    out->push_back(std::move(e));
  }
  return Status::OK();
}

Result<std::optional<PagedStore::DictEntry>> PagedStore::FindEntry(
    StoreSection fence_section, StoreSection dict_section,
    const std::vector<std::string>& fences, std::string_view key) const {
  (void)fence_section;
  if (fences.empty() || key < fences.front()) return std::optional<DictEntry>();
  // The last dict page whose first key is <= key is the only page that
  // can hold it.
  auto it = std::upper_bound(fences.begin(), fences.end(), key,
                             [](std::string_view k, const std::string& f) {
                               return k < f;
                             });
  uint32_t page = static_cast<uint32_t>(it - fences.begin() - 1);
  std::vector<DictEntry> entries;
  QOF_RETURN_IF_ERROR(ReadDictPage(dict_section, page, &entries));
  auto pos = std::lower_bound(entries.begin(), entries.end(), key,
                              [](const DictEntry& e, std::string_view k) {
                                return e.key < k;
                              });
  if (pos == entries.end() || pos->key != key) return std::optional<DictEntry>();
  return std::optional<DictEntry>(std::move(*pos));
}

Result<std::optional<PagedStore::DictEntry>> PagedStore::FindRegionEntry(
    std::string_view name) const {
  return FindEntry(StoreSection::kRegionFence, StoreSection::kRegionDict,
                   region_fences_, name);
}

Result<std::optional<PagedStore::DictEntry>> PagedStore::FindWordEntry(
    std::string_view word) const {
  return FindEntry(StoreSection::kWordFence, StoreSection::kWordDict,
                   word_fences_, word);
}

Result<std::vector<PagedStore::DictEntry>> PagedStore::AllRegionEntries()
    const {
  std::vector<DictEntry> all, page;
  for (uint32_t i = 0; i < meta_.section(StoreSection::kRegionDict).num_pages;
       ++i) {
    QOF_RETURN_IF_ERROR(ReadDictPage(StoreSection::kRegionDict, i, &page));
    for (DictEntry& e : page) all.push_back(std::move(e));
  }
  return all;
}

Result<std::vector<PagedStore::DictEntry>> PagedStore::AllWordEntries()
    const {
  std::vector<DictEntry> all, page;
  for (uint32_t i = 0; i < meta_.section(StoreSection::kWordDict).num_pages;
       ++i) {
    QOF_RETURN_IF_ERROR(ReadDictPage(StoreSection::kWordDict, i, &page));
    for (DictEntry& e : page) all.push_back(std::move(e));
  }
  return all;
}

Result<std::vector<std::string>> PagedStore::WordsWithPrefix(
    std::string_view prefix) const {
  std::vector<std::string> out;
  if (word_fences_.empty()) return out;
  auto it = std::upper_bound(word_fences_.begin(), word_fences_.end(),
                             prefix,
                             [](std::string_view k, const std::string& f) {
                               return k < f;
                             });
  uint32_t page = it == word_fences_.begin()
                      ? 0
                      : static_cast<uint32_t>(it - word_fences_.begin() - 1);
  std::vector<DictEntry> entries;
  const uint32_t num_pages =
      meta_.section(StoreSection::kWordDict).num_pages;
  for (; page < num_pages; ++page) {
    QOF_RETURN_IF_ERROR(ReadDictPage(StoreSection::kWordDict, page,
                                     &entries));
    for (DictEntry& e : entries) {
      if (e.key < prefix) continue;
      if (e.key.compare(0, prefix.size(), prefix) == 0) {
        out.push_back(std::move(e.key));
      } else {
        return out;  // sorted: no later word can match
      }
    }
  }
  return out;
}

Result<PostingStreamHeader> PagedStore::ReadStreamHeader(
    const DictEntry& entry) const {
  std::string header_bytes;
  header_bytes.reserve(entry.header_len);
  QOF_RETURN_IF_ERROR(ReadStreamRange(StoreSection::kPostings,
                                      entry.byte_off, entry.header_len,
                                      &header_bytes));
  QOF_ASSIGN_OR_RETURN(PostingStreamHeader header,
                       DecodeStreamHeader(header_bytes, entry.key));
  uint64_t block_bytes = entry.byte_len - entry.header_len;
  if (header.header_bytes != entry.header_len ||
      header.total_count != entry.count ||
      (!header.blocks.empty() &&
       header.blocks.back().byte_off + header.blocks.back().byte_len !=
           block_bytes)) {
    return Status::InvalidArgument(
        "paged store: posting stream of '" + entry.key +
        "' disagrees with its dictionary entry — the store file is "
        "damaged");
  }
  return header;
}

Result<std::vector<uint64_t>> PagedStore::LoadPostings(
    const DictEntry& entry) const {
  QOF_ASSIGN_OR_RETURN(PostingStreamHeader header, ReadStreamHeader(entry));
  std::vector<uint64_t> out;
  out.reserve(header.total_count);
  std::vector<PageRef> pins;
  std::string scratch;
  for (const PostingBlockMeta& m : header.blocks) {
    std::string_view bytes;
    QOF_RETURN_IF_ERROR(ReadStreamRangePinned(
        StoreSection::kPostings,
        entry.byte_off + entry.header_len + m.byte_off, m.byte_len, &pins,
        &scratch, &bytes));
    QOF_RETURN_IF_ERROR(DecodePostingBlock(m, bytes, entry.key, &out));
  }
  return out;
}

Result<std::unique_ptr<RegionCursor>> PagedStore::OpenRegionCursor(
    std::shared_ptr<const PagedStore> self, const DictEntry& entry) {
  QOF_ASSIGN_OR_RETURN(PostingStreamHeader header,
                       self->ReadStreamHeader(entry));
  return std::unique_ptr<RegionCursor>(new StoreRegionCursorImpl(
      std::move(self), entry, std::move(header)));
}

}  // namespace qof
