#include "qof/store/store_format.h"

#include <algorithm>
#include <cstring>

#include "qof/util/wire.h"

namespace qof {

void EncodeStoreMeta(const StoreMeta& meta, std::string* out) {
  out->append(kStoreMagic, kStoreMagicLen);
  PutU32(meta.page_size, out);
  PutU64(meta.generation, out);
  PutU64(meta.doc_count, out);
  PutU64(meta.universe_size, out);
  PutU64(meta.region_names, out);
  PutU64(meta.total_regions, out);
  PutU64(meta.distinct_words, out);
  PutU64(meta.total_postings, out);
  PutU64(meta.body_bytes, out);
  PutU8(kNumStoreSections, out);
  for (int i = 0; i < kNumStoreSections; ++i) {
    PutU8(static_cast<uint8_t>(i), out);
    PutU32(meta.sections[i].first_page, out);
    PutU32(meta.sections[i].num_pages, out);
    PutU64(meta.sections[i].byte_len, out);
  }
}

Result<StoreMeta> DecodeStoreMeta(std::string_view payload) {
  if (payload.size() < kStoreMagicLen ||
      std::memcmp(payload.data(), kStoreMagic, kStoreMagicLen) != 0) {
    return Status::InvalidArgument(
        "not a qof paged store (bad magic on the meta page)");
  }
  WireReader reader(payload.substr(kStoreMagicLen), "store meta page");
  StoreMeta meta;
  QOF_ASSIGN_OR_RETURN(meta.page_size, reader.U32());
  if (meta.page_size < kMinStorePageSize ||
      meta.page_size % kMinStorePageSize != 0) {
    return Status::InvalidArgument(
        "paged store: meta page claims an invalid page size of " +
        std::to_string(meta.page_size) + " bytes");
  }
  QOF_ASSIGN_OR_RETURN(meta.generation, reader.U64());
  QOF_ASSIGN_OR_RETURN(meta.doc_count, reader.U64());
  QOF_ASSIGN_OR_RETURN(meta.universe_size, reader.U64());
  QOF_ASSIGN_OR_RETURN(meta.region_names, reader.U64());
  QOF_ASSIGN_OR_RETURN(meta.total_regions, reader.U64());
  QOF_ASSIGN_OR_RETURN(meta.distinct_words, reader.U64());
  QOF_ASSIGN_OR_RETURN(meta.total_postings, reader.U64());
  QOF_ASSIGN_OR_RETURN(meta.body_bytes, reader.U64());
  QOF_ASSIGN_OR_RETURN(uint8_t num_sections, reader.U8());
  if (num_sections != kNumStoreSections) {
    return Status::InvalidArgument(
        "paged store: meta page lists " + std::to_string(num_sections) +
        " sections, expected " + std::to_string(kNumStoreSections));
  }
  for (int i = 0; i < kNumStoreSections; ++i) {
    QOF_ASSIGN_OR_RETURN(uint8_t id, reader.U8());
    if (id != i) {
      return Status::InvalidArgument(
          "paged store: meta page sections out of order");
    }
    QOF_ASSIGN_OR_RETURN(meta.sections[i].first_page, reader.U32());
    QOF_ASSIGN_OR_RETURN(meta.sections[i].num_pages, reader.U32());
    QOF_ASSIGN_OR_RETURN(meta.sections[i].byte_len, reader.U64());
  }
  return meta;
}

Result<StoreMeta> DecodeMetaPage(std::string_view head) {
  head = head.substr(0, kMinStorePageSize);
  QOF_ASSIGN_OR_RETURN(PageHeader header,
                       ParsePage(head, kMinStorePageSize, 0));
  if (header.type != PageType::kMeta) {
    return Status::InvalidArgument(
        "not a qof paged store (page 0 is not a meta page)");
  }
  return DecodeStoreMeta(head.substr(kPageHeaderSize, header.payload_len));
}

bool SameStoreIgnoringGeneration(std::string_view a, std::string_view b) {
  auto meta_a = DecodeMetaPage(a);
  auto meta_b = DecodeMetaPage(b);
  if (!meta_a.ok() || !meta_b.ok()) return a == b;
  meta_a->generation = 0;
  meta_b->generation = 0;
  std::string encoded_a;
  std::string encoded_b;
  EncodeStoreMeta(*meta_a, &encoded_a);
  EncodeStoreMeta(*meta_b, &encoded_b);
  if (encoded_a != encoded_b || a.size() != b.size()) return false;
  // Equal metas carry equal page sizes, so both bodies start at the same
  // offset (clamped: a truncated image may end inside its meta page).
  const size_t body = std::min<size_t>(meta_a->page_size, a.size());
  return a.substr(body) == b.substr(body);
}

}  // namespace qof
