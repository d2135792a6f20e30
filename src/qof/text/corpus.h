#ifndef QOF_TEXT_CORPUS_H_
#define QOF_TEXT_CORPUS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "qof/util/result.h"
#include "qof/util/status.h"

namespace qof {

/// Identifies a document within a Corpus.
using DocId = uint32_t;

/// A byte offset into the corpus-wide virtual address space (all documents
/// concatenated in insertion order, separated by a single '\n' so that word
/// tokens never straddle documents).
using TextPos = uint64_t;

/// Corpus owns the raw text of every file handed to the system and exposes a
/// single flat address space over it. Region and word indices store offsets
/// into this space; TextOf() maps a span back to bytes.
///
/// This stands in for "the file system" in the paper: the engine's goal is to
/// touch as few of these bytes as possible when answering a query, and the
/// Corpus keeps a counter of bytes actually read so experiments can report
/// scanned-byte savings.
///
/// Mutation model (index maintenance, see src/qof/maintain/): the address
/// space is append-only. Replacing or removing a document *tombstones* its
/// span — the entry stays in the table (so the space stays laid out and
/// DocumentAt stays a binary search) but is no longer live; a replacement
/// appends the new text at the tail as a fresh entry under the same name.
/// Dead bytes linger until the maintainer compacts the corpus. Everything
/// that iterates documents must skip non-live entries.
///
/// Copies are cheap and share the text: the bytes live in one append-only
/// buffer, and a copy owns only its document table and its end offset.
/// An append lands past the end of every copy sharing the buffer, so a
/// pinned copy's bytes never change under its readers; only growth, or an
/// append to a copy that another copy has already appended past, moves
/// the appender to a new buffer. Mutate copies from one thread at a time
/// (the buffer's high-water mark is writer state).
class Corpus {
 public:
  Corpus() = default;

  // Hand-written copies and moves: the scanned-byte counter is atomic
  // (parallel two-phase workers scan candidates concurrently), and
  // atomics are neither copyable nor movable by default. A copy's
  // counter starts at zero.
  Corpus(const Corpus& other)
      : buffer_(other.buffer_),
        data_(other.data_),
        size_(other.size_),
        docs_(other.docs_),
        dead_docs_(other.dead_docs_),
        dead_bytes_(other.dead_bytes_) {}
  Corpus& operator=(const Corpus& other) {
    if (this != &other) {
      buffer_ = other.buffer_;
      data_ = other.data_;
      size_ = other.size_;
      docs_ = other.docs_;
      dead_docs_ = other.dead_docs_;
      dead_bytes_ = other.dead_bytes_;
      bytes_read_.store(0, std::memory_order_relaxed);
    }
    return *this;
  }
  // A moved-from corpus is empty.
  Corpus(Corpus&& other) noexcept
      : buffer_(std::move(other.buffer_)),
        data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        docs_(std::move(other.docs_)),
        dead_docs_(std::exchange(other.dead_docs_, 0)),
        dead_bytes_(std::exchange(other.dead_bytes_, 0)),
        bytes_read_(other.bytes_read_.load(std::memory_order_relaxed)) {}
  Corpus& operator=(Corpus&& other) noexcept {
    buffer_ = std::move(other.buffer_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    docs_ = std::move(other.docs_);
    dead_docs_ = std::exchange(other.dead_docs_, 0);
    dead_bytes_ = std::exchange(other.dead_bytes_, 0);
    bytes_read_.store(other.bytes_read_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    return *this;
  }

  /// Appends a document; returns its id. Rejects names of *live*
  /// documents (a removed document's name may be reused).
  Result<DocId> AddDocument(std::string name, std::string_view text);

  /// Tombstones the live document `name` and appends `text` under the
  /// same name at the tail of the address space; returns the new id.
  /// NotFound when no live document has that name.
  Result<DocId> ReplaceDocument(std::string_view name,
                                std::string_view text);

  /// Tombstones the live document `name`. NotFound when absent.
  Result<DocId> RemoveDocument(std::string_view name);

  /// The live document named `name`, or NotFound.
  Result<DocId> FindDocument(std::string_view name) const;

  /// Entries in the table, dead ones included (iteration bound).
  size_t num_documents() const { return docs_.size(); }
  size_t num_live_documents() const { return docs_.size() - dead_docs_; }
  /// Tombstoned entries not yet compacted away.
  size_t num_dead_documents() const { return dead_docs_; }
  bool is_live(DocId id) const { return docs_[id].live; }
  /// True once any document was tombstoned: the address space has dead
  /// spans, full_text() is no longer equal to the live text, and whole-
  /// corpus shortcuts must fall back to per-document iteration.
  bool fragmented() const { return dead_docs_ > 0; }

  /// Total size of the virtual address space, separators included.
  TextPos size() const { return size_; }
  /// Bytes belonging to tombstoned documents (compaction would reclaim
  /// them, separators excluded).
  uint64_t dead_bytes() const { return dead_bytes_; }

  const std::string& document_name(DocId id) const { return docs_[id].name; }
  /// [start, end) span of a document in the corpus address space.
  TextPos document_start(DocId id) const { return docs_[id].start; }
  TextPos document_end(DocId id) const { return docs_[id].end; }

  /// The document containing `pos` (live or tombstoned), or an error for
  /// separator/out-of-range positions.
  Result<DocId> DocumentAt(TextPos pos) const;

  /// Raw bytes of [start, end). Does not count towards bytes_read().
  std::string_view RawText(TextPos start, TextPos end) const {
    return full_text().substr(start, end - start);
  }

  /// Bytes of [start, end), *accounted* as scanned: experiments use
  /// bytes_read() to compare how much text each query plan had to touch.
  /// When a ScanCounterScope is active on the calling thread, accounting
  /// goes to its counter instead of this corpus's — that is how
  /// concurrent snapshot queries sharing one corpus keep independent
  /// per-query byte totals (stats and byte budgets).
  std::string_view ScanText(TextPos start, TextPos end) const {
    std::atomic<uint64_t>* counter =
        tls_scan_counter_ != nullptr ? tls_scan_counter_ : &bytes_read_;
    counter->fetch_add(end - start, std::memory_order_relaxed);
    return RawText(start, end);
  }

  /// Charges `bytes` to the calling thread's active scan counter, if any
  /// (see ScanCounterScope). The disk-resident index tier accounts the
  /// *decompressed* bytes of the posting blocks it materializes this way,
  /// so a governed query's byte budget covers index I/O like it covers
  /// text scans. Outside a scope the charge is dropped — there is no
  /// corpus instance to attribute it to.
  static void ChargeScanBytes(uint64_t bytes) {
    if (tls_scan_counter_ != nullptr) {
      tls_scan_counter_->fetch_add(bytes, std::memory_order_relaxed);
    }
  }

  /// The calling thread's active scan counter, or null outside any scope.
  /// Parallel two-phase captures this on the query thread and installs
  /// it on its pool workers so their scans account like serial ones.
  static std::atomic<uint64_t>* CurrentThreadScanCounter() {
    return tls_scan_counter_;
  }

  /// RAII override routing this thread's ScanText accounting into
  /// `counter` (applies to every Corpus touched by the thread while the
  /// scope is active; a query only ever scans its own snapshot's corpus).
  /// Scopes nest; each restores the previous counter on destruction.
  class ScanCounterScope {
   public:
    explicit ScanCounterScope(std::atomic<uint64_t>* counter)
        : prev_(tls_scan_counter_) {
      tls_scan_counter_ = counter;
    }
    ~ScanCounterScope() { tls_scan_counter_ = prev_; }
    ScanCounterScope(const ScanCounterScope&) = delete;
    ScanCounterScope& operator=(const ScanCounterScope&) = delete;

   private:
    std::atomic<uint64_t>* prev_;
  };

  /// Full corpus view (used by index builders; indexing cost is reported
  /// separately from query-time scanning, so this is unaccounted). On a
  /// fragmented corpus this still includes dead spans — builders must
  /// iterate live documents instead.
  std::string_view full_text() const {
    return std::string_view(data_, size_);
  }

  /// A dense corpus of just the live documents, in physical order, under
  /// their names (compaction). Its text is a fresh buffer; this corpus and
  /// every copy sharing its buffer are untouched.
  Corpus LiveOnly() const;

  uint64_t bytes_read() const {
    return bytes_read_.load(std::memory_order_relaxed);
  }
  void ResetBytesRead() {
    bytes_read_.store(0, std::memory_order_relaxed);
  }
  /// The live counter itself, so a byte budget (ExecContext) can watch
  /// scanning progress without a dependency on this class.
  const std::atomic<uint64_t>& bytes_read_counter() const {
    return bytes_read_;
  }
  /// Writable view of the same counter, for a ScanCounterScope that
  /// routes a live (non-snapshot) execution's disk-tier charges here.
  /// Const: the counter is accounting state, not corpus content.
  std::atomic<uint64_t>& mutable_bytes_read_counter() const {
    return bytes_read_;
  }

 private:
  struct Doc {
    std::string name;
    TextPos start;
    TextPos end;
    bool live = true;
  };

  /// The bytes every copy of a corpus shares. Bytes below `used` are
  /// never rewritten while the buffer lives.
  struct TextBuffer {
    std::unique_ptr<char[]> bytes;
    size_t capacity = 0;
    /// High-water mark: the end of the longest copy; appends land here.
    size_t used = 0;
  };

  /// Appends `bytes` at size_, moving to a new buffer when this one is
  /// full or another copy has appended past size_.
  void Append(std::string_view bytes);

  std::shared_ptr<TextBuffer> buffer_;
  /// buffer_->bytes.get(), cached so RawText is one pointer add.
  const char* data_ = nullptr;
  TextPos size_ = 0;
  std::vector<Doc> docs_;
  size_t dead_docs_ = 0;
  uint64_t dead_bytes_ = 0;
  mutable std::atomic<uint64_t> bytes_read_{0};
  /// Per-thread scan-accounting override (see ScanCounterScope).
  static thread_local std::atomic<uint64_t>* tls_scan_counter_;
};

}  // namespace qof

#endif  // QOF_TEXT_CORPUS_H_
