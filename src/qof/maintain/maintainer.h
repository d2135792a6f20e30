#ifndef QOF_MAINTAIN_MAINTAINER_H_
#define QOF_MAINTAIN_MAINTAINER_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "qof/engine/index_spec.h"
#include "qof/engine/indexer.h"
#include "qof/exec/exec_context.h"
#include "qof/parse/region_extractor.h"
#include "qof/schema/structuring_schema.h"
#include "qof/text/corpus.h"
#include "qof/util/result.h"
#include "qof/util/status.h"
#include "qof/util/thread_pool.h"

namespace qof {

/// Knobs for incremental index maintenance.
struct MaintainOptions {
  /// Compact automatically once either threshold below trips. Mutations
  /// stay cheap (re-parse one document); compaction amortizes the rebuild
  /// of the corpus layout over many mutations.
  bool auto_compact = true;
  /// Compact when tombstoned bytes exceed this fraction of the address
  /// space.
  double max_dead_fraction = 0.5;
  /// Compact when more than this many documents are tombstoned.
  uint64_t max_tombstones = 64;
};

/// Counters describing the maintenance state. `generation` is the number
/// of mutations ever applied — it identifies a corpus state, and the
/// journal (journal.h) records one entry per generation so a crashed
/// session can replay forward from a persisted base.
struct MaintainStats {
  uint64_t generation = 0;
  uint64_t live_documents = 0;
  uint64_t tombstones = 0;       // dead document-table entries
  uint64_t delta_segments = 0;   // tail segments appended since compaction
  uint64_t dead_bytes = 0;       // reclaimable by Compact()
  uint64_t compactions = 0;
  uint64_t docs_reparsed = 0;    // total documents parsed by mutations
  uint64_t bytes_reparsed = 0;   // total bytes parsed by mutations
};

/// Keeps a Corpus and its BuiltIndexes live under document-level mutations
/// without full rebuilds (the paper builds indexes as a one-shot
/// pre-processing pass; this subsystem makes that pass incremental).
///
/// Mutation model: the corpus address space is append-only. A mutation
/// re-parses ONLY the touched document: its old contribution is spliced
/// out of every region instance and posting list (a document's regions and
/// tokens never cross its span, so the contribution is a contiguous run in
/// each sorted vector), and the new text is appended at the tail and its
/// freshly parsed contribution spliced in. Tombstoned spans linger until
/// Compact() folds live documents back into a dense layout — after which
/// the indexes are byte-identical (under SerializeIndexes) to a
/// from-scratch BuildIndexes of the same documents in the same order.
///
/// Failed mutations (parse errors, unknown names) leave corpus and indexes
/// untouched. The maintainer does not lock: callers serialize mutations
/// against queries the same way they already serialize BuildIndexes.
class IndexMaintainer {
 public:
  /// Maintains `built` (produced by BuildIndexes(schema, *corpus, spec))
  /// in place. All pointees must outlive the maintainer.
  IndexMaintainer(const StructuringSchema* schema, Corpus* corpus,
                  BuiltIndexes* built, IndexSpec spec,
                  MaintainOptions options = {});

  /// Parses `text` and splices it in as a new document. AlreadyExists if
  /// a live document has that name; parse failures leave state untouched.
  /// `ctx` (optional) bounds the re-parse: a governance interrupt aborts
  /// before any state changes, like every other mutation failure.
  Result<DocId> AddDocument(std::string name, std::string_view text,
                            ThreadPool* pool = nullptr,
                            const ExecContext* ctx = nullptr);

  /// Replaces the live document `name`: splices its old contribution out
  /// and the re-parsed new text in. NotFound when absent.
  Result<DocId> UpdateDocument(std::string_view name, std::string_view text,
                               ThreadPool* pool = nullptr,
                               const ExecContext* ctx = nullptr);

  /// Splices the live document `name` out of corpus and indexes.
  Status RemoveDocument(std::string_view name, ThreadPool* pool = nullptr,
                        const ExecContext* ctx = nullptr);

  /// Folds tombstoned spans away: re-lays the corpus out densely (live
  /// documents keep their physical order) and rebases every region and
  /// posting by its document's shift — no re-parsing or re-tokenizing.
  /// Fails without mutating if an indexed region points into a tombstoned
  /// span (a lost tombstone — the corruption the fuzzer injects) or if a
  /// live document's bytes are placeholders (MarkDocumentSynthetic).
  Status Compact(ThreadPool* pool = nullptr);

  /// True when the options' thresholds say Compact() is due (and legal).
  bool NeedsCompaction() const;

  /// Journal replay reconstructs corpus state from a base blob whose
  /// document *bytes* may be unavailable (only sizes and fingerprints are
  /// stored). Such zero-filled documents are marked synthetic: their
  /// contributions are erased by span rather than by re-tokenizing, and
  /// Compact() refuses while any is live (its bytes would be wrong).
  void MarkDocumentSynthetic(DocId id);
  bool HasLiveSyntheticDocuments() const;

  /// Resumes the generation counter (journal replay starts from the
  /// generation persisted in the base blob).
  void set_generation(uint64_t g) { stats_.generation = g; }
  uint64_t generation() const { return stats_.generation; }

  /// Repoints the maintainer at a copy-on-write clone of its corpus and
  /// indexes (see FileQuerySystem::AcquireSnapshot: when a snapshot pins
  /// the current state, the next mutation clones both and mutates the
  /// clone). All counters — generation, compactions, reparse totals —
  /// carry over: the clone *is* the same logical state, just at a new
  /// address.
  void Retarget(Corpus* corpus, BuiltIndexes* built) {
    corpus_ = corpus;
    built_ = built;
  }

  /// Point-in-time counters (corpus-derived fields refreshed on call).
  MaintainStats stats() const;

  MaintainOptions& options() { return options_; }

 private:
  /// One document's parse output, shifted to its corpus position.
  using Contribution = std::map<std::string, std::vector<Region>>;

  /// Parses `text` at base offset 0; the caller shifts. Does not touch
  /// any index state, so a parse failure aborts the mutation cleanly.
  Result<Contribution> ParseContribution(std::string_view text,
                                         const ExecContext* ctx);

  /// Splices a document appended at [start, start+size) into the indexes.
  void SpliceIn(const Contribution& at_zero, TextPos start,
                std::string_view text);

  /// Erases the live document's contribution from regions and postings
  /// (skipped once under the armed drop-tombstone planted bug).
  void SpliceOut(DocId id);

  /// Splicing mutates instances and posting runs in place — a
  /// disk-backed index must be fully paged in first, or the splice
  /// would edit a partial view. No-ops for in-memory indexes.
  Status EnsureIndexesResident();

  Status MaybeAutoCompact(ThreadPool* pool);

  const StructuringSchema* schema_;
  Corpus* corpus_;
  BuiltIndexes* built_;
  IndexSpec spec_;
  ExtractionFilter filter_;
  MaintainOptions options_;
  MaintainStats stats_;
  /// Documents whose corpus bytes are placeholders (see
  /// MarkDocumentSynthetic). Ids of dead documents are pruned lazily.
  std::set<DocId> synthetic_;
};

}  // namespace qof

#endif  // QOF_MAINTAIN_MAINTAINER_H_
