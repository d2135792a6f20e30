#include "qof/engine/index_io.h"

#include <utility>
#include <vector>

#include "qof/exec/fault_injector.h"
#include "qof/store/store_index_source.h"
#include "qof/store/store_writer.h"
#include "qof/util/wire.h"

namespace qof {
namespace {

/// The live corpus's document table, in physical order.
std::vector<DocFingerprint> LiveDocs(const Corpus& corpus) {
  std::vector<DocFingerprint> live;
  live.reserve(corpus.num_documents());
  for (DocId id = 0; id < corpus.num_documents(); ++id) {
    TextPos begin = corpus.document_start(id);
    std::string_view text = corpus.RawText(begin, corpus.document_end(id));
    live.push_back({corpus.document_name(id), text.size(), Fnv1a(text)});
  }
  return live;
}

}  // namespace

uint64_t CorpusFingerprint(std::string_view text) { return Fnv1a(text); }

Result<std::string> EncodeIndexStore(const BuiltIndexes& built,
                                     const IndexSpec& spec,
                                     const Corpus& corpus,
                                     uint64_t generation,
                                     uint32_t page_size) {
  QOF_RETURN_IF_ERROR(MaybeInjectFault(fault_site::kIndexIoSerialize));
  if (spec.word_options.token_filter) {
    return Status::InvalidArgument(
        "word-index token filters are code and cannot be serialized; "
        "rebuild instead of loading");
  }
  QOF_ASSIGN_OR_RETURN(std::string doc_table, EncodeDocTable(corpus));
  // The writer walks every instance and posting list directly.
  QOF_RETURN_IF_ERROR(built.regions.EnsureResident());
  QOF_RETURN_IF_ERROR(built.words.EnsureResident());
  std::string spec_bytes;
  EncodeIndexSpec(spec, &spec_bytes);
  StoreWriterInput input;
  input.regions = &built.regions;
  input.words = &built.words;
  input.spec_bytes = spec_bytes;
  input.doc_table_bytes = doc_table;
  input.generation = generation;
  input.doc_count = built.documents;
  return BuildStoreImage(input, page_size);
}

Result<LoadedIndexStore> LoadIndexStore(const std::string& path,
                                        PagedStoreOptions options) {
  QOF_RETURN_IF_ERROR(MaybeInjectFault(fault_site::kIndexIoDeserialize));
  LoadedIndexStore out;
  QOF_ASSIGN_OR_RETURN(out.store, PagedStore::Open(path, options));
  QOF_ASSIGN_OR_RETURN(std::string spec_bytes,
                       out.store->ReadSection(StoreSection::kSpec));
  QOF_ASSIGN_OR_RETURN(out.spec, DecodeIndexSpec(spec_bytes));
  QOF_ASSIGN_OR_RETURN(std::string doc_bytes,
                       out.store->ReadSection(StoreSection::kDocTable));
  QOF_ASSIGN_OR_RETURN(out.docs, DecodeDocTableBytes(doc_bytes));
  out.generation = out.store->meta().generation;
  // Register names/counts from the dictionaries; instances and posting
  // lists stay on disk until a query touches them.
  QOF_RETURN_IF_ERROR(out.indexes.regions.AttachSource(
      std::make_shared<StoreRegionSource>(out.store)));
  out.indexes.words =
      WordIndex::FromEntries({}, out.spec.word_options.fold_case);
  out.indexes.words.AttachSource(
      std::make_shared<StorePostingSource>(out.store));
  out.indexes.documents = out.store->meta().doc_count;
  return out;
}

void EncodeIndexSpec(const IndexSpec& spec, std::string* out) {
  out->push_back(spec.mode == IndexSpec::Mode::kFull ? 0 : 1);
  out->push_back(spec.word_options.fold_case ? 1 : 0);
  PutU32(static_cast<uint32_t>(spec.names.size()), out);
  for (const std::string& name : spec.names) PutString(name, out);
  PutU32(static_cast<uint32_t>(spec.within.size()), out);
  for (const auto& [name, ancestor] : spec.within) {
    PutString(name, out);
    PutString(ancestor, out);
  }
}

Result<IndexSpec> DecodeIndexSpec(std::string_view bytes) {
  WireReader reader(bytes, "index spec");
  IndexSpec spec;
  QOF_ASSIGN_OR_RETURN(uint8_t mode, reader.U8());
  spec.mode = mode == 0 ? IndexSpec::Mode::kFull : IndexSpec::Mode::kPartial;
  QOF_ASSIGN_OR_RETURN(uint8_t fold_case, reader.U8());
  spec.word_options.fold_case = fold_case != 0;
  QOF_ASSIGN_OR_RETURN(uint32_t num_spec_names, reader.U32());
  for (uint32_t i = 0; i < num_spec_names; ++i) {
    QOF_ASSIGN_OR_RETURN(std::string name, reader.String());
    spec.names.insert(std::move(name));
  }
  QOF_ASSIGN_OR_RETURN(uint32_t num_within, reader.U32());
  for (uint32_t i = 0; i < num_within; ++i) {
    QOF_ASSIGN_OR_RETURN(std::string name, reader.String());
    QOF_ASSIGN_OR_RETURN(std::string ancestor, reader.String());
    spec.within.emplace(std::move(name), std::move(ancestor));
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after index spec");
  }
  return spec;
}

Result<std::string> EncodeDocTable(const Corpus& corpus) {
  if (corpus.fragmented()) {
    return Status::InvalidArgument(
        "corpus has tombstoned spans — compact before serializing "
        "(store offsets must describe a dense layout)");
  }
  std::string out;
  PutU32(static_cast<uint32_t>(corpus.num_documents()), &out);
  for (const DocFingerprint& doc : LiveDocs(corpus)) {
    PutString(doc.name, &out);
    PutU64(doc.size, &out);
    PutU64(doc.fnv1a, &out);
  }
  return out;
}

Result<std::vector<DocFingerprint>> DecodeDocTableBytes(
    std::string_view bytes) {
  WireReader reader(bytes, "document table");
  QOF_ASSIGN_OR_RETURN(uint32_t count, reader.U32());
  // Smallest entry: empty name (4) + size (8) + fingerprint (8).
  QOF_RETURN_IF_ERROR(reader.CheckCount(count, 20));
  std::vector<DocFingerprint> docs;
  docs.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    DocFingerprint doc;
    QOF_ASSIGN_OR_RETURN(doc.name, reader.String());
    QOF_ASSIGN_OR_RETURN(doc.size, reader.U64());
    QOF_ASSIGN_OR_RETURN(doc.fnv1a, reader.U64());
    docs.push_back(std::move(doc));
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after document table");
  }
  return docs;
}

std::vector<std::string> DiagnoseStaleDocs(
    const std::vector<DocFingerprint>& docs, const Corpus& corpus) {
  // Per-document staleness, by name: modified / missing / new, plus
  // "moved" when the contents all match but the physical order differs
  // (offsets are order-dependent).
  std::vector<DocFingerprint> live = LiveDocs(corpus);
  std::vector<std::string> stale;
  auto find_by_name = [](const std::vector<DocFingerprint>& table,
                         const std::string& name) -> const DocFingerprint* {
    for (const DocFingerprint& d : table) {
      if (d.name == name) return &d;
    }
    return nullptr;
  };
  for (const DocFingerprint& d : docs) {
    const DocFingerprint* present = find_by_name(live, d.name);
    if (present == nullptr) {
      stale.push_back("missing: " + d.name);
    } else if (present->size != d.size || present->fnv1a != d.fnv1a) {
      stale.push_back("modified: " + d.name);
    }
  }
  for (const DocFingerprint& d : live) {
    if (find_by_name(docs, d.name) == nullptr) {
      stale.push_back("new: " + d.name);
    }
  }
  if (stale.empty() && docs.size() == live.size()) {
    for (size_t i = 0; i < docs.size(); ++i) {
      if (docs[i].name != live[i].name) {
        stale.push_back("moved: " + docs[i].name);
      }
    }
  }
  return stale;
}

std::string FormatStaleDocs(const std::vector<std::string>& stale) {
  constexpr size_t kMaxNamed = 8;
  std::string out;
  for (size_t i = 0; i < stale.size() && i < kMaxNamed; ++i) {
    if (i > 0) out += ", ";
    out += stale[i];
  }
  if (stale.size() > kMaxNamed) {
    out += ", … (" + std::to_string(stale.size()) + " total)";
  }
  return out;
}

}  // namespace qof
