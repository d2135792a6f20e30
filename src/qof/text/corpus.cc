#include "qof/text/corpus.h"

#include <algorithm>
#include <cstring>

namespace qof {

thread_local std::atomic<uint64_t>* Corpus::tls_scan_counter_ = nullptr;

Result<DocId> Corpus::AddDocument(std::string name, std::string_view text) {
  for (const Doc& d : docs_) {
    if (d.live && d.name == name) {
      return Status::AlreadyExists("document already in corpus: " + name);
    }
  }
  if (size_ > 0) Append("\n");
  TextPos start = size_;
  Append(text);
  docs_.push_back(Doc{std::move(name), start, size_, /*live=*/true});
  return static_cast<DocId>(docs_.size() - 1);
}

void Corpus::Append(std::string_view bytes) {
  const size_t needed = size_ + bytes.size();
  if (buffer_ == nullptr || buffer_->used != size_ ||
      buffer_->capacity < needed) {
    // Room for as much again keeps appends amortized O(1) and leaves
    // headroom after a big first append; the pages past the end are not
    // touched until written, so the headroom costs no memory.
    auto grown = std::make_shared<TextBuffer>();
    grown->capacity = std::max<size_t>(2 * needed, 4096);
    grown->bytes.reset(new char[grown->capacity]);
    if (size_ > 0) std::memcpy(grown->bytes.get(), data_, size_);
    grown->used = size_;
    buffer_ = std::move(grown);
    data_ = buffer_->bytes.get();
  }
  std::memcpy(buffer_->bytes.get() + size_, bytes.data(), bytes.size());
  size_ = needed;
  buffer_->used = needed;
}

Corpus Corpus::LiveOnly() const {
  Corpus dense;
  uint64_t live_bytes = 0;
  for (const Doc& d : docs_) {
    if (d.live) live_bytes += d.end - d.start + 1;
  }
  dense.buffer_ = std::make_shared<TextBuffer>();
  dense.buffer_->capacity = std::max<size_t>(2 * live_bytes, 4096);
  dense.buffer_->bytes.reset(new char[dense.buffer_->capacity]);
  dense.data_ = dense.buffer_->bytes.get();
  for (const Doc& d : docs_) {
    if (!d.live) continue;
    if (dense.size_ > 0) dense.Append("\n");
    TextPos start = dense.size_;
    dense.Append(RawText(d.start, d.end));
    dense.docs_.push_back(Doc{d.name, start, dense.size_, /*live=*/true});
  }
  return dense;
}

Result<DocId> Corpus::FindDocument(std::string_view name) const {
  for (size_t i = 0; i < docs_.size(); ++i) {
    if (docs_[i].live && docs_[i].name == name) {
      return static_cast<DocId>(i);
    }
  }
  return Status::NotFound("no live document named '" + std::string(name) +
                          "'");
}

Result<DocId> Corpus::RemoveDocument(std::string_view name) {
  QOF_ASSIGN_OR_RETURN(DocId id, FindDocument(name));
  Doc& doc = docs_[id];
  doc.live = false;
  ++dead_docs_;
  dead_bytes_ += doc.end - doc.start;
  return id;
}

Result<DocId> Corpus::ReplaceDocument(std::string_view name,
                                      std::string_view text) {
  QOF_ASSIGN_OR_RETURN(DocId old_id, RemoveDocument(name));
  (void)old_id;
  return AddDocument(std::string(name), text);
}

Result<DocId> Corpus::DocumentAt(TextPos pos) const {
  // Binary search over document start offsets (tombstoned entries keep
  // their spans, so the table stays sorted by start).
  auto it = std::upper_bound(
      docs_.begin(), docs_.end(), pos,
      [](TextPos p, const Doc& d) { return p < d.start; });
  if (it == docs_.begin()) {
    return Status::OutOfRange("position before first document");
  }
  --it;
  if (pos >= it->end) {
    return Status::OutOfRange("position falls between documents");
  }
  return static_cast<DocId>(it - docs_.begin());
}

}  // namespace qof
