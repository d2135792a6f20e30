#ifndef QOF_ENGINE_INDEX_IO_H_
#define QOF_ENGINE_INDEX_IO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "qof/engine/index_spec.h"
#include "qof/engine/indexer.h"
#include "qof/text/corpus.h"
#include "qof/util/result.h"

namespace qof {

/// Serialization of built indexes (the paper treats index construction as
/// a pre-processing service; persisting its output lets a session reuse
/// it without re-parsing the corpus).
///
/// The little-endian "QOFIDX3\n" format: a header (magic, maintenance
/// generation, FNV-1a checksum of the payload), then the payload — a
/// per-document table of (name, size, fingerprint) and the spec/region/
/// word body. Staleness is diagnosed per document ("which files
/// changed"), and the table is what the maintenance journal
/// (src/qof/maintain/) replays against. The checksum makes a blob damaged
/// at rest fail loudly at load instead of deserializing flipped postings.
/// The generation stays outside the checksum: zeroing bytes [8, 16)
/// still makes blobs from different maintenance histories
/// byte-comparable.
///
/// A WordIndexOptions::token_filter is code and cannot round-trip; specs
/// using one must rebuild instead of loading.

/// One document's identity in a blob.
struct DocFingerprint {
  std::string name;
  uint64_t size = 0;
  uint64_t fnv1a = 0;

  friend bool operator==(const DocFingerprint& a, const DocFingerprint& b) {
    return a.name == b.name && a.size == b.size && a.fnv1a == b.fnv1a;
  }
};

struct SerializedIndexes {
  BuiltIndexes indexes;
  IndexSpec spec;
  /// Maintenance generation persisted in the blob.
  uint64_t generation = 0;
  /// With DeserializeOptions::allow_stale: human-readable entries naming
  /// each stale document ("modified: a.bib", "missing: b.bib",
  /// "new: c.bib", "moved: d.bib"). Empty when the blob matches.
  std::vector<std::string> stale_documents;
};

struct DeserializeOptions {
  /// Load a blob even when its document table does not match the
  /// corpus, reporting the mismatches in `stale_documents` instead of
  /// failing. The loaded offsets describe the blob's layout, not the
  /// corpus's — callers must reconcile (see tools/qof_index).
  bool allow_stale = false;
};

/// Serializes `built` as a blob with per-document fingerprints from
/// `corpus` and the given maintenance generation. Fails if the corpus has
/// tombstoned spans (offsets would not describe a dense layout): compact
/// first.
Result<std::string> SerializeIndexes(const BuiltIndexes& built,
                                     const IndexSpec& spec,
                                     const Corpus& corpus,
                                     uint64_t generation = 0);

/// Deserializes a blob against a live Corpus (which must not be
/// fragmented). Staleness is diagnosed per document by name; with
/// `options.allow_stale` mismatches load anyway and are reported in
/// `stale_documents`.
Result<SerializedIndexes> DeserializeIndexes(std::string_view blob,
                                             const Corpus& corpus,
                                             DeserializeOptions options = {});

/// Peeks at a blob's header without decoding the indexes: generation
/// and document table (checksum-verified). Used by `qof_index inspect`
/// and by journal-replay state reconstruction.
struct BlobInfo {
  uint64_t generation = 0;
  std::vector<DocFingerprint> docs;
};
Result<BlobInfo> ReadBlobInfo(std::string_view blob);

/// The document fingerprint of the document table (FNV-1a).
uint64_t CorpusFingerprint(std::string_view text);

// --- section codecs shared with the paged store (src/qof/store/) -----------
//
// The disk-resident store persists the spec and the document table as
// opaque, checksummed sections; these are their encodings — identical to
// the corresponding chunks of a blob, so a converted store and a
// blob describe the same indexes byte-for-byte.

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

/// A blob decoded without a corpus to validate against — the
/// store-conversion path (`qof_store convert`).
struct UncheckedIndexes {
  SerializedIndexes indexes;
  std::vector<DocFingerprint> docs;
};
Result<UncheckedIndexes> DeserializeIndexesUnchecked(std::string_view blob);

}  // namespace qof

#endif  // QOF_ENGINE_INDEX_IO_H_
