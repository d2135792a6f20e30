#ifndef QOF_ENGINE_INDEX_IO_H_
#define QOF_ENGINE_INDEX_IO_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "qof/engine/index_spec.h"
#include "qof/engine/indexer.h"
#include "qof/store/paged_store.h"
#include "qof/text/corpus.h"
#include "qof/util/result.h"

namespace qof {

/// Persistence of built indexes (the paper treats index construction as
/// a pre-processing service; persisting its output lets a session reuse
/// it without re-parsing the corpus). Indexes persist in one format, the
/// paged "QOFSTOR1" store (src/qof/store/store_format.h): EncodeIndexStore
/// writes it, LoadIndexStore reads it back. Everything that persists
/// indexes goes through these two — FileQuerySystem::SaveStore /
/// ExportIndexes / OpenStore, the qof_index durable directories and the
/// crash-sweep fuzzer leg.
///
/// The store carries the spec and a per-document table of (name, size,
/// fingerprint) as opaque sections whose encodings live here. Staleness
/// is diagnosed per document ("which files changed"), and the table is
/// what the maintenance journal (src/qof/maintain/) replays against.
///
/// A WordIndexOptions::token_filter is code and cannot round-trip; specs
/// using one must rebuild instead of loading.

/// One document's identity in a persisted document table.
struct DocFingerprint {
  std::string name;
  uint64_t size = 0;
  uint64_t fnv1a = 0;

  friend bool operator==(const DocFingerprint& a, const DocFingerprint& b) {
    return a.name == b.name && a.size == b.size && a.fnv1a == b.fnv1a;
  }
};

/// Encodes `built` as a complete store image with per-document
/// fingerprints from `corpus` and the given maintenance generation.
/// Pages disk-backed indexes in first. Word postings are written in
/// sorted order, so two images of equal indexes are byte-identical (the
/// parallel-vs-serial determinism tests and the incremental-vs-rebuild
/// fuzz oracle rely on this). Fails if the corpus has tombstoned spans
/// (offsets would not describe a dense layout: compact first), the spec
/// has a token filter, or `page_size` is not a multiple of
/// kMinStorePageSize.
Result<std::string> EncodeIndexStore(const BuiltIndexes& built,
                                     const IndexSpec& spec,
                                     const Corpus& corpus,
                                     uint64_t generation,
                                     uint32_t page_size = kDefaultPageSize);

/// A store opened without a corpus to validate against. The indexes are
/// attached to the store, not loaded: region instances and posting lists
/// page in through the store's buffer pool on first touch (or all at
/// once on EnsureResident, which any mutation forces first).
struct LoadedIndexStore {
  std::shared_ptr<const PagedStore> store;
  IndexSpec spec;
  std::vector<DocFingerprint> docs;
  uint64_t generation = 0;
  BuiltIndexes indexes;
};

/// Opens the store at `path` (through the DefaultVfs()) and decodes its
/// spec and document table. Callers check the table against their corpus
/// (DiagnoseStaleDocs) before trusting the offsets.
Result<LoadedIndexStore> LoadIndexStore(const std::string& path,
                                        PagedStoreOptions options = {});

/// The document fingerprint of the document table (FNV-1a).
uint64_t CorpusFingerprint(std::string_view text);

// --- section codecs ----------------------------------------------------

/// Appends the spec encoding (mode, fold_case, names, within pairs).
void EncodeIndexSpec(const IndexSpec& spec, std::string* out);

/// Decodes a standalone spec section (must consume every byte).
Result<IndexSpec> DecodeIndexSpec(std::string_view bytes);

/// The document table (u32 count, then name/size/fingerprint rows).
/// Fails on a fragmented corpus: compact first.
Result<std::string> EncodeDocTable(const Corpus& corpus);

/// Decodes a standalone document-table section.
Result<std::vector<DocFingerprint>> DecodeDocTableBytes(
    std::string_view bytes);

/// Names each document that differs between a persisted table and the
/// live corpus ("modified: a", "missing: b", "new: c", "moved: d");
/// empty when they match.
std::vector<std::string> DiagnoseStaleDocs(
    const std::vector<DocFingerprint>& docs, const Corpus& corpus);

/// Joins a staleness report into one human-readable line (first few
/// entries plus a total).
std::string FormatStaleDocs(const std::vector<std::string>& stale);

}  // namespace qof

#endif  // QOF_ENGINE_INDEX_IO_H_
