#include "qof/store/store_writer.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "qof/store/posting_codec.h"
#include "qof/util/wire.h"

namespace qof {
namespace {

/// One dictionary entry, already stream-encoded into the postings
/// section.
struct DictRecord {
  const std::string* key;
  uint64_t byte_off = 0;
  uint64_t byte_len = 0;
  uint64_t header_len = 0;
  uint64_t count = 0;
};

void EncodeDictRecord(const DictRecord& r, std::string* out) {
  PutString(*r.key, out);
  PutVarint(r.byte_off, out);
  PutVarint(r.byte_len, out);
  PutVarint(r.header_len, out);
  PutVarint(r.count, out);
}

/// Packs sorted dict records into self-contained page payloads (u32 count
/// prefix, whole entries only) and collects each page's fence key.
Status PackDict(const std::vector<DictRecord>& records, uint32_t capacity,
                std::vector<std::string>* pages,
                std::vector<const std::string*>* fences) {
  std::string page;
  uint32_t in_page = 0;
  auto flush = [&](const std::string* first_key) {
    std::string payload;
    PutU32(in_page, &payload);
    payload += page;
    pages->push_back(std::move(payload));
    fences->push_back(first_key);
    page.clear();
    in_page = 0;
  };
  const std::string* page_first = nullptr;
  for (const DictRecord& r : records) {
    std::string encoded;
    EncodeDictRecord(r, &encoded);
    if (encoded.size() + 4 > capacity) {
      return Status::InvalidArgument(
          "paged store: dictionary key '" + *r.key +
          "' does not fit a single page; use a larger page size");
    }
    if (4 + page.size() + encoded.size() > capacity) flush(page_first);
    if (in_page == 0) page_first = r.key;
    page += encoded;
    ++in_page;
  }
  if (in_page > 0) flush(page_first);
  return Status::OK();
}

/// Appends a byte stream as a section: chopped at the payload capacity so
/// stream offset → page is plain arithmetic.
SectionInfo AppendStreamSection(PageType type, std::string_view bytes,
                                uint32_t page_size, std::string* image) {
  SectionInfo info;
  info.first_page =
      static_cast<uint32_t>(image->size() / page_size);
  info.byte_len = bytes.size();
  uint32_t capacity = PagePayloadCapacity(page_size);
  size_t off = 0;
  do {
    size_t n = std::min<size_t>(capacity, bytes.size() - off);
    AppendPage(type, bytes.substr(off, n), page_size, image);
    off += n;
    ++info.num_pages;
  } while (off < bytes.size());
  return info;
}

/// Appends pre-packed dictionary page payloads, one per page.
SectionInfo AppendDictSection(PageType type,
                              const std::vector<std::string>& pages,
                              uint32_t page_size, std::string* image) {
  SectionInfo info;
  info.first_page = static_cast<uint32_t>(image->size() / page_size);
  for (const std::string& payload : pages) {
    AppendPage(type, payload, page_size, image);
    info.byte_len += payload.size();
    ++info.num_pages;
  }
  return info;
}

std::string EncodeFences(const std::vector<const std::string*>& fences) {
  std::string out;
  PutU32(static_cast<uint32_t>(fences.size()), &out);
  for (const std::string* key : fences) PutString(*key, &out);
  return out;
}

/// The shared back half of both image builders: packs the dictionaries,
/// lays the sections out in StoreSection order, and stamps the meta page.
Result<std::string> AssembleImage(StoreMeta meta,
                                  std::string_view spec_bytes,
                                  std::string_view doc_table_bytes,
                                  const std::vector<DictRecord>& region_records,
                                  const std::vector<DictRecord>& word_records,
                                  std::string_view postings,
                                  uint32_t page_size) {
  const uint32_t capacity = PagePayloadCapacity(page_size);
  std::vector<std::string> region_dict_pages, word_dict_pages;
  std::vector<const std::string*> region_fences, word_fences;
  QOF_RETURN_IF_ERROR(PackDict(region_records, capacity, &region_dict_pages,
                               &region_fences));
  QOF_RETURN_IF_ERROR(
      PackDict(word_records, capacity, &word_dict_pages, &word_fences));

  // Assemble: meta placeholder first (rewritten once section extents are
  // known), then the sections in StoreSection order.
  std::string image;
  AppendPage(PageType::kMeta, "", page_size, &image);
  auto set_section = [&meta](StoreSection s, SectionInfo info) {
    meta.sections[static_cast<int>(s)] = info;
  };
  set_section(StoreSection::kSpec,
              AppendStreamSection(PageType::kSpec, spec_bytes, page_size,
                                  &image));
  set_section(StoreSection::kDocTable,
              AppendStreamSection(PageType::kDocTable, doc_table_bytes,
                                  page_size, &image));
  set_section(StoreSection::kRegionFence,
              AppendStreamSection(PageType::kFence,
                                  EncodeFences(region_fences), page_size,
                                  &image));
  set_section(StoreSection::kRegionDict,
              AppendDictSection(PageType::kRegionDict, region_dict_pages,
                                page_size, &image));
  set_section(StoreSection::kWordFence,
              AppendStreamSection(PageType::kFence, EncodeFences(word_fences),
                                  page_size, &image));
  set_section(StoreSection::kWordDict,
              AppendDictSection(PageType::kWordDict, word_dict_pages,
                                page_size, &image));
  set_section(StoreSection::kPostings,
              AppendStreamSection(PageType::kPostings, postings, page_size,
                                  &image));

  std::string meta_payload;
  EncodeStoreMeta(meta, &meta_payload);
  if (meta_payload.size() > PagePayloadCapacity(kMinStorePageSize)) {
    return Status::Internal("paged store: meta payload overflows the "
                            "minimum page size");
  }
  std::string meta_page;
  AppendPage(PageType::kMeta, meta_payload, page_size, &meta_page);
  image.replace(0, page_size, meta_page);
  return image;
}

Status CheckPageSize(uint32_t page_size) {
  if (page_size < kMinStorePageSize || page_size % kMinStorePageSize != 0) {
    return Status::InvalidArgument(
        "paged store: page size must be a multiple of " +
        std::to_string(kMinStorePageSize) + " bytes (got " +
        std::to_string(page_size) + ")");
  }
  return Status::OK();
}

}  // namespace

Result<std::string> BuildStoreImage(const StoreWriterInput& input,
                                    uint32_t page_size) {
  QOF_RETURN_IF_ERROR(CheckPageSize(page_size));

  StoreMeta meta;
  meta.page_size = page_size;
  meta.generation = input.generation;
  meta.doc_count = input.doc_count;

  // Region instances, sorted by name, streams concatenated into the
  // postings payload.
  std::string postings;
  std::vector<std::string> region_names = input.regions->Names();
  std::vector<DictRecord> region_records;
  region_records.reserve(region_names.size());
  std::vector<const RegionSet*> instances;
  instances.reserve(region_names.size());
  for (const std::string& name : region_names) {
    auto set = input.regions->Get(name);
    if (!set.ok()) return set.status();
    instances.push_back(*set);
    DictRecord r;
    r.key = &name;
    r.byte_off = postings.size();
    r.header_len = EncodeRegionStream((*set)->regions(), &postings);
    r.byte_len = postings.size() - r.byte_off;
    r.count = (*set)->size();
    region_records.push_back(r);
    meta.total_regions += r.count;
  }
  meta.region_names = region_names.size();
  // Counted, not materialized: the universe itself is never built here.
  meta.universe_size = UnionAllSize(instances);
  meta.body_bytes += meta.total_regions * 16;

  // Word postings, sorted: the posting map iterates in an unspecified
  // order, and a canonical image lets byte comparison stand in for index
  // equality.
  std::vector<std::pair<const std::string*, const std::vector<TextPos>*>>
      words;
  words.reserve(input.words->num_distinct_words());
  input.words->ForEachWord(
      [&words](const std::string& word, const std::vector<TextPos>& posts) {
        words.emplace_back(&word, &posts);
      });
  std::sort(words.begin(), words.end(),
            [](const auto& a, const auto& b) { return *a.first < *b.first; });
  std::vector<DictRecord> word_records;
  word_records.reserve(words.size());
  for (const auto& [word, posts] : words) {
    DictRecord r;
    r.key = word;
    r.byte_off = postings.size();
    r.header_len = EncodePostingStream(*posts, &postings);
    r.byte_len = postings.size() - r.byte_off;
    r.count = posts->size();
    word_records.push_back(r);
    meta.total_postings += r.count;
  }
  meta.distinct_words = words.size();
  meta.body_bytes += meta.total_postings * 8;

  return AssembleImage(std::move(meta), input.spec_bytes,
                       input.doc_table_bytes, region_records, word_records,
                       postings, page_size);
}

Result<std::string> BuildStoreImageFromRaw(
    const StoreMeta& meta_like, std::string_view spec_bytes,
    std::string_view doc_table_bytes,
    const std::vector<RawStreamEntry>& regions,
    const std::vector<RawStreamEntry>& words, uint32_t page_size) {
  QOF_RETURN_IF_ERROR(CheckPageSize(page_size));

  StoreMeta meta;
  meta.page_size = page_size;
  meta.generation = meta_like.generation;
  meta.doc_count = meta_like.doc_count;
  // Advisory planner statistic; the surviving streams cannot say which
  // universe regions the dropped ones contributed, so carry it over.
  meta.universe_size = meta_like.universe_size;

  std::string postings;
  std::vector<DictRecord> region_records, word_records;
  region_records.reserve(regions.size());
  for (const RawStreamEntry& e : regions) {
    DictRecord r;
    r.key = &e.key;
    r.byte_off = postings.size();
    r.byte_len = e.stream.size();
    r.header_len = e.header_len;
    r.count = e.count;
    postings += e.stream;
    region_records.push_back(r);
    meta.total_regions += e.count;
  }
  meta.region_names = regions.size();
  meta.body_bytes += meta.total_regions * 16;

  word_records.reserve(words.size());
  for (const RawStreamEntry& e : words) {
    DictRecord r;
    r.key = &e.key;
    r.byte_off = postings.size();
    r.byte_len = e.stream.size();
    r.header_len = e.header_len;
    r.count = e.count;
    postings += e.stream;
    word_records.push_back(r);
    meta.total_postings += e.count;
  }
  meta.distinct_words = words.size();
  meta.body_bytes += meta.total_postings * 8;

  return AssembleImage(std::move(meta), spec_bytes, doc_table_bytes,
                       region_records, word_records, postings, page_size);
}

}  // namespace qof
