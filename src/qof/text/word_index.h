#ifndef QOF_TEXT_WORD_INDEX_H_
#define QOF_TEXT_WORD_INDEX_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "qof/text/compaction_map.h"
#include "qof/text/corpus.h"
#include "qof/text/posting_source.h"
#include "qof/text/tokenizer.h"
#include "qof/util/cow_ptr.h"
#include "qof/util/thread_pool.h"

namespace qof {

/// Options controlling word-index construction.
struct WordIndexOptions {
  /// Fold tokens to lower case before indexing and lookup.
  bool fold_case = false;
  /// When set, only tokens for which the filter returns true are indexed
  /// (the paper's "selective indexing can also be done for words", §2/§7).
  /// Parallel builds call the filter from several worker threads at once,
  /// so it must be thread-safe (pure predicates are).
  std::function<bool(const WordToken&)> token_filter;
};

/// The word index of the paper's PAT-like engine: for every word in the
/// corpus, the sorted list of its occurrence start positions ("match
/// points"). All postings for a word share the word's byte length, so a
/// posting `p` denotes the corpus span [p, p + word.size()).
class WordIndex {
 public:
  /// Builds the index over the live documents: each is tokenized on
  /// `pool` (inline when null) and the per-document postings are merged
  /// in document order, so the result is the same at any worker count
  /// (documents never share a token — the corpus separates them with
  /// '\n').
  static WordIndex Build(const Corpus& corpus, WordIndexOptions options = {},
                         ThreadPool* pool = nullptr);

  /// Sorted start positions of `word`'s occurrences (empty if absent).
  /// With a backing source attached (disk-resident mode) the first lookup
  /// of a word pages its postings in; an I/O failure answers empty here —
  /// fallible callers run EnsureLoaded() first to observe the error.
  const std::vector<TextPos>& Lookup(std::string_view word) const;

  // --- disk-resident backing (see src/qof/store/) -----------------------

  /// Attaches a backing source; posting lists materialize lazily from it
  /// on first Lookup. Words are never enumerated eagerly — presence is a
  /// dictionary probe against the source. Call on a freshly constructed
  /// index, before sharing it.
  void AttachSource(std::shared_ptr<const PostingSource> source) {
    source_ = std::move(source);
  }

  /// True while some posting list may still live only in the source.
  bool disk_resident() const {
    return source_ != nullptr &&
           !all_resident_.load(std::memory_order_acquire);
  }

  /// Pages `word`'s postings in (no-op when already resident or the word
  /// is absent) — the fallible face of Lookup().
  Status EnsureLoaded(std::string_view word) const;

  /// Materializes every stored posting list. Idempotent. Mutators and
  /// serialization (ForEachWord) require this first.
  Status EnsureResident() const;

  /// Merged, sorted start positions of every indexed word beginning with
  /// `prefix` — PAT's lexical/prefix search. Uses a lazily built sorted
  /// word directory; O(log W + hits). Safe to call from concurrent
  /// readers sharing an otherwise-immutable index (snapshot queries).
  std::vector<TextPos> LookupPrefix(std::string_view prefix) const;

  // Hand-written copy/move: the mutexes are per instance, and the sorted
  // directory holds pointers into this instance's shard keys, so it never
  // travels with the data — it is dropped and lazily rebuilt in the
  // destination. A copy shares every shard and posting list (see
  // CowPtr). A lazy load writes into a shard, and Mutable() keeps it
  // from writing into one a copy shares; copying a disk-resident index
  // that readers are paging in is still a race, so fork states only
  // after EnsureResident().
  WordIndex() = default;
  WordIndex(const WordIndex& other) { CopyFrom(other); }
  WordIndex& operator=(const WordIndex& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  WordIndex(WordIndex&& other) noexcept { MoveFrom(std::move(other)); }
  WordIndex& operator=(WordIndex&& other) noexcept {
    if (this != &other) MoveFrom(std::move(other));
    return *this;
  }

  /// True when the word occurs at least once.
  bool Contains(std::string_view word) const {
    return !Lookup(word).empty();
  }

  size_t num_distinct_words() const {
    // Disk-resident: the store's dictionary knows the count without any
    // list being materialized (loaded words are a subset of stored ones).
    if (disk_resident()) return source_->distinct_words();
    size_t n = 0;
    for (const CowPtr<Shard>& shard : shards_) {
      if (shard) n += shard->size();
    }
    return n;
  }
  uint64_t num_postings() const {
    if (disk_resident()) return source_->total_postings();
    return num_postings_;
  }

  /// Approximate memory footprint in bytes (keys + postings), used by the
  /// index-size/efficiency tradeoff experiments.
  uint64_t ApproxBytes() const;

  const WordIndexOptions& options() const { return options_; }

  /// Iterates (word, postings) pairs in unspecified order — serialization
  /// support. Disk-resident indexes require EnsureResident() first (only
  /// materialized lists are visible here).
  template <typename Fn>
  void ForEachWord(Fn&& fn) const {
    for (const CowPtr<Shard>& shard : shards_) {
      if (!shard) continue;
      for (const auto& [word, list] : *shard) fn(word, *list);
    }
  }

  /// Reassembles an index from serialized entries. Postings must be
  /// sorted; `fold_case` must match the original build options (a
  /// token_filter, being code, is not serializable and is dropped).
  static WordIndex FromEntries(
      std::vector<std::pair<std::string, std::vector<TextPos>>> entries,
      bool fold_case);

  // --- incremental maintenance (see src/qof/maintain/) ------------------
  //
  // Documents occupy disjoint spans of the corpus address space, so one
  // document's postings form a contiguous run inside each word's sorted
  // list: adding or removing a document is a per-word run insert/erase,
  // never a rebuild. A word whose last posting is erased loses its entry
  // entirely, so a maintained index stays indistinguishable from a fresh
  // build over the live documents. A list or shard shared with a copy is
  // never written: the splice copies the shard's handles and builds the
  // list as prefix + run + suffix in one pass.

  /// One document change, in one pass per touched list: erases the
  /// postings in [old_begin, old_end) of the words of `old_text` (the
  /// tombstoned document's text, tokenized with this index's options;
  /// empty when only adding) and splices in the postings of `new_text`
  /// tokenized at corpus offset `new_base` (empty when only removing).
  /// Exact: erases precisely the old document's postings.
  void SpliceDocPostings(std::string_view old_text, TextPos old_begin,
                         TextPos old_end, std::string_view new_text,
                         TextPos new_base);

  /// Erases every posting in [begin, end) without knowing the document's
  /// text — walks all words. Same result as SpliceDocPostings with the
  /// old text, used by journal replay when the tombstoned document's
  /// bytes are unknown.
  void EraseSpanPostings(TextPos begin, TextPos end);

  /// Compaction support: a fresh index whose postings are this one's
  /// shifted by the live segment holding them (documents shift as dead
  /// spans are squeezed out; see SegmentCursor — the map is monotone, so
  /// every list stays sorted). Writes new lists and shards only; this
  /// index, and every copy sharing its lists, is untouched. Fails when a
  /// posting lies outside every segment (a tombstone was lost). Shards
  /// are rebased on `pool` (inline when null). Requires a resident index.
  Result<WordIndex> Rebased(std::span<const LiveSegment> segs,
                            ThreadPool* pool = nullptr) const;

 private:
  using PostingList = std::vector<TextPos>;
  /// One hash shard of the dictionary.
  using Shard = std::unordered_map<std::string, CowPtr<PostingList>>;
  /// Fixed, so a copy costs the same few thousand handle copies at any
  /// vocabulary. A write touching a few hundred words lands in as many
  /// shards and copies only their handles: on a 31k-word BibTeX corpus,
  /// well under a tenth of the dictionary.
  static constexpr size_t kNumShards = 4096;

  static size_t ShardOf(std::string_view key) {
    return std::hash<std::string_view>{}(key) % kNumShards;
  }

  /// `key`'s resident list, or null. Caller holds lazy_mu_ or knows the
  /// index is resident.
  const PostingList* Find(const std::string& key) const;

  /// `key`'s shard for writing, copied first when a copy shares it.
  /// Const because lazy loads write through it too (shards_ is mutable).
  Shard& MutableShard(const std::string& key) const;

  /// Erases `key`'s postings in [begin, end) and inserts `run` (sorted,
  /// outside that window), dropping the word when its list empties.
  void SpliceList(const std::string& key, TextPos begin, TextPos end,
                  std::span<const TextPos> run);

  void CopyFrom(const WordIndex& other);
  void MoveFrom(WordIndex&& other);

  /// Pages `key` (already case-folded) in from the source; returns the
  /// resident list, or null when the word is absent. Caller holds
  /// lazy_mu_.
  Result<const std::vector<TextPos>*> LoadLocked(const std::string& key) const;

  /// kNumShards handles, or none while the index has no words (a
  /// moved-from index too). Mutable: Lookup materializes lazily under
  /// lazy_mu_ while a source is attached. Lists sit behind their own
  /// handles, so references handed out survive later insertions.
  mutable std::vector<CowPtr<Shard>> shards_;
  mutable uint64_t num_postings_ = 0;
  WordIndexOptions options_;
  /// Backing source; null for a fully in-memory index. Set once before
  /// the index is shared, never reassigned by const paths.
  std::shared_ptr<const PostingSource> source_;
  /// Serializes lazy materialization between concurrent readers. Taken by
  /// const paths only while a source is attached.
  mutable std::mutex lazy_mu_;
  /// Words probed and found absent in the source (negative cache, guarded
  /// by lazy_mu_).
  mutable std::unordered_set<std::string> absent_;
  /// Flipped (release) once every stored list is materialized; readers
  /// that observe it (acquire) may touch shards_ without the lock.
  mutable std::atomic<bool> all_resident_{false};
  // Lazily built sorted directory of the words in shards_, for prefix
  // lookups. The mutex serializes the build between concurrent readers of
  // a shared immutable index; maintenance mutators (which require
  // external exclusion anyway) clear the directory.
  mutable std::mutex sorted_words_mu_;
  mutable std::vector<const std::string*> sorted_words_;
};

}  // namespace qof

#endif  // QOF_TEXT_WORD_INDEX_H_
