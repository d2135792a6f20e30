#include "qof/text/word_index.h"

#include <algorithm>
#include <cctype>

#include "qof/util/splice.h"

namespace qof {
namespace {

std::string FoldCase(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

/// Per-document postings in first-occurrence key order, so that merging
/// documents in corpus order gives the same insertion sequence (and so
/// the same hash-map layout) at any worker count.
struct DocPostings {
  std::unordered_map<std::string, std::vector<TextPos>> map;
  std::vector<const std::string*> order;  // keys in first-occurrence order
};

void TokenizeInto(std::string_view text, TextPos base,
                  const WordIndexOptions& options, DocPostings* out) {
  Tokenizer::ForEachToken(text, base, [&](const WordToken& t) {
    if (options.token_filter && !options.token_filter(t)) return;
    std::string key =
        options.fold_case ? FoldCase(t.text) : std::string(t.text);
    auto [it, inserted] = out->map.try_emplace(std::move(key));
    if (inserted) out->order.push_back(&it->first);
    it->second.push_back(t.start);
  });
}

}  // namespace

void WordIndex::CopyFrom(const WordIndex& other) {
  std::lock_guard<std::mutex> lock(other.lazy_mu_);
  shards_ = other.shards_;
  num_postings_ = other.num_postings_;
  options_ = other.options_;
  source_ = other.source_;
  absent_ = other.absent_;
  all_resident_.store(other.all_resident_.load(std::memory_order_acquire),
                      std::memory_order_release);
  sorted_words_.clear();
}

void WordIndex::MoveFrom(WordIndex&& other) {
  shards_ = std::move(other.shards_);
  num_postings_ = other.num_postings_;
  options_ = std::move(other.options_);
  source_ = std::move(other.source_);
  absent_ = std::move(other.absent_);
  all_resident_.store(other.all_resident_.load(std::memory_order_acquire),
                      std::memory_order_release);
  sorted_words_.clear();
  other.shards_.clear();
  other.num_postings_ = 0;
  other.sorted_words_.clear();  // its pointers moved away with the shards
}

const WordIndex::PostingList* WordIndex::Find(const std::string& key) const {
  if (shards_.empty()) return nullptr;
  const CowPtr<Shard>& shard = shards_[ShardOf(key)];
  if (!shard) return nullptr;
  auto it = shard->find(key);
  return it == shard->end() ? nullptr : it->second.get();
}

WordIndex::Shard& WordIndex::MutableShard(const std::string& key) const {
  if (shards_.empty()) shards_.resize(kNumShards);
  return shards_[ShardOf(key)].Mutable();
}

void WordIndex::SpliceList(const std::string& key, TextPos begin,
                           TextPos end, std::span<const TextPos> run) {
  const PostingList* old = Find(key);
  if (old == nullptr) {
    if (run.empty()) return;
    num_postings_ += run.size();
    MutableShard(key).emplace(
        key, CowPtr<PostingList>(PostingList(run.begin(), run.end())));
    return;
  }
  Splice<TextPos> s;
  s.lo = std::lower_bound(old->begin(), old->end(), begin) - old->begin();
  s.hi = std::lower_bound(old->begin() + s.lo, old->end(), end) -
         old->begin();
  s.at = run.empty() ? s.hi
                     : std::lower_bound(old->begin(), old->end(),
                                        run.front()) -
                           old->begin();
  s.run = run;
  if (s.empty()) return;
  num_postings_ = num_postings_ + run.size() - (s.hi - s.lo);
  Shard& shard = MutableShard(key);
  auto it = shard.find(key);
  CowPtr<PostingList>& list = it->second;
  if (run.empty() && s.hi - s.lo == list->size()) {
    shard.erase(it);
  } else if (list.owned()) {
    s.Apply(&list.Mutable());
  } else {
    list.Reset(s.Applied(*list));
  }
}

WordIndex WordIndex::Build(const Corpus& corpus, WordIndexOptions options,
                           ThreadPool* pool) {
  // Tokenize each live document on the pool, then merge in document
  // order into one flat map (one hash per token) that is dealt out to the
  // shards. Documents are contiguous ascending spans, so appending a
  // document's postings after its predecessors' keeps every list sorted.
  std::unordered_map<std::string, PostingList> postings;
  {
    // Scoped so the per-document maps are freed before the shards fill.
    std::vector<DocPostings> docs(corpus.num_documents());
    ParallelFor(pool, corpus.num_documents(), [&](int, size_t d) {
      DocId doc = static_cast<DocId>(d);
      if (!corpus.is_live(doc)) return;
      TextPos begin = corpus.document_start(doc);
      TokenizeInto(corpus.RawText(begin, corpus.document_end(doc)), begin,
                   options, &docs[d]);
    });
    for (DocPostings& doc : docs) {
      for (const std::string* key : doc.order) {
        std::vector<TextPos>& shard = doc.map.at(*key);
        std::vector<TextPos>& list = postings[*key];
        if (list.empty()) {
          list = std::move(shard);
        } else {
          list.insert(list.end(), shard.begin(), shard.end());
        }
      }
    }
  }
  WordIndex index;
  index.options_ = options;
  for (auto& [word, list] : postings) {
    // Tokens are produced in text order, so postings are already
    // sorted; keep an assertion-friendly invariant anyway.
    if (!std::is_sorted(list.begin(), list.end())) {
      std::sort(list.begin(), list.end());
    }
    index.num_postings_ += list.size();
    index.MutableShard(word).emplace(word,
                                     CowPtr<PostingList>(std::move(list)));
  }
  return index;
}

Result<const std::vector<TextPos>*> WordIndex::LoadLocked(
    const std::string& key) const {
  if (const PostingList* list = Find(key)) return list;
  if (all_resident_.load(std::memory_order_acquire) ||
      absent_.count(key) > 0) {
    return static_cast<const std::vector<TextPos>*>(nullptr);
  }
  QOF_ASSIGN_OR_RETURN(std::optional<std::vector<TextPos>> loaded,
                       source_->Load(key));
  if (!loaded.has_value()) {
    absent_.insert(key);
    return static_cast<const std::vector<TextPos>*>(nullptr);
  }
  num_postings_ += loaded->size();
  auto [pos, inserted] =
      MutableShard(key).emplace(key, CowPtr<PostingList>(std::move(*loaded)));
  return pos->second.get();
}

const std::vector<TextPos>& WordIndex::Lookup(std::string_view word) const {
  static const std::vector<TextPos> kEmpty;
  std::string key = options_.fold_case ? FoldCase(word) : std::string(word);
  if (source_ != nullptr &&
      !all_resident_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(lazy_mu_);
    auto loaded = LoadLocked(key);
    // An I/O error answers empty; EnsureLoaded() is the fallible face.
    if (!loaded.ok() || *loaded == nullptr) return kEmpty;
    return **loaded;
  }
  const PostingList* list = Find(key);
  return list == nullptr ? kEmpty : *list;
}

Status WordIndex::EnsureLoaded(std::string_view word) const {
  if (source_ == nullptr || all_resident_.load(std::memory_order_acquire)) {
    return Status::OK();
  }
  std::string key = options_.fold_case ? FoldCase(word) : std::string(word);
  std::lock_guard<std::mutex> lock(lazy_mu_);
  return LoadLocked(key).status();
}

Status WordIndex::EnsureResident() const {
  if (source_ == nullptr || all_resident_.load(std::memory_order_acquire)) {
    return Status::OK();
  }
  std::lock_guard<std::mutex> lock(lazy_mu_);
  QOF_ASSIGN_OR_RETURN(std::vector<PostingSource::Entry> entries,
                       source_->Entries());
  for (const auto& e : entries) {
    QOF_ASSIGN_OR_RETURN(const std::vector<TextPos>* list, LoadLocked(e.word));
    if (list == nullptr || list->size() != e.count) {
      return Status::Internal(
          "word '" + e.word + "' materialized " +
          std::to_string(list == nullptr ? 0 : list->size()) +
          " postings, store dictionary promised " + std::to_string(e.count));
    }
  }
  absent_.clear();
  all_resident_.store(true, std::memory_order_release);
  return Status::OK();
}

std::vector<TextPos> WordIndex::LookupPrefix(
    std::string_view prefix) const {
  std::string key = options_.fold_case ? FoldCase(prefix)
                                       : std::string(prefix);
  if (source_ != nullptr &&
      !all_resident_.load(std::memory_order_acquire)) {
    // Ask the source's sorted dictionary which words qualify, then page
    // each one in. Errors degrade to the empty answer (prefix search has
    // no fallible signature); governed queries surface the underlying
    // failure through their byte/deadline checks instead.
    std::vector<TextPos> out;
    auto words = source_->WordsWithPrefix(key);
    if (!words.ok()) return out;
    std::lock_guard<std::mutex> lock(lazy_mu_);
    for (const std::string& word : *words) {
      auto loaded = LoadLocked(word);
      if (!loaded.ok() || *loaded == nullptr) continue;
      out.insert(out.end(), (*loaded)->begin(), (*loaded)->end());
    }
    std::sort(out.begin(), out.end());
    return out;
  }
  // Prefix search is cold; holding the lock across the whole walk keeps
  // the lazy directory build race-free under concurrent snapshot readers.
  std::lock_guard<std::mutex> lock(sorted_words_mu_);
  if (sorted_words_.empty()) {
    ForEachWord([this](const std::string& word, const PostingList&) {
      sorted_words_.push_back(&word);
    });
    std::sort(sorted_words_.begin(), sorted_words_.end(),
              [](const std::string* a, const std::string* b) {
                return *a < *b;
              });
  }
  auto lo = std::lower_bound(
      sorted_words_.begin(), sorted_words_.end(), key,
      [](const std::string* w, const std::string& k) { return *w < k; });
  std::vector<TextPos> out;
  for (auto it = lo; it != sorted_words_.end(); ++it) {
    if ((*it)->compare(0, key.size(), key) != 0) break;
    const PostingList* list = Find(**it);
    out.insert(out.end(), list->begin(), list->end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

WordIndex WordIndex::FromEntries(
    std::vector<std::pair<std::string, std::vector<TextPos>>> entries,
    bool fold_case) {
  WordIndex index;
  index.options_.fold_case = fold_case;
  for (auto& [word, postings] : entries) {
    index.num_postings_ += postings.size();
    index.MutableShard(word).emplace(
        std::move(word), CowPtr<PostingList>(std::move(postings)));
  }
  return index;
}

void WordIndex::SpliceDocPostings(std::string_view old_text,
                                  TextPos old_begin, TextPos old_end,
                                  std::string_view new_text,
                                  TextPos new_base) {
  DocPostings erased;
  DocPostings added;
  TokenizeInto(old_text, old_begin, options_, &erased);
  TokenizeInto(new_text, new_base, options_, &added);
  // Documents own disjoint spans, so each word's new run lands at a
  // single insertion point outside the erased window.
  for (const std::string* key : added.order) {
    SpliceList(*key, old_begin, old_end, added.map.at(*key));
  }
  for (const std::string* key : erased.order) {
    if (added.map.count(*key) == 0) SpliceList(*key, old_begin, old_end, {});
  }
  sorted_words_.clear();
}

void WordIndex::EraseSpanPostings(TextPos begin, TextPos end) {
  // Collect first: erasing may copy a shard out from under the walk.
  std::vector<std::string> touched;
  ForEachWord([&](const std::string& word, const PostingList& list) {
    auto lo = std::lower_bound(list.begin(), list.end(), begin);
    if (lo != list.end() && *lo < end) touched.push_back(word);
  });
  for (const std::string& word : touched) SpliceList(word, begin, end, {});
  sorted_words_.clear();
}

Result<WordIndex> WordIndex::Rebased(std::span<const LiveSegment> segs,
                                     ThreadPool* pool) const {
  WordIndex out;
  out.num_postings_ = num_postings_;
  out.options_ = options_;
  if (shards_.empty()) return out;
  out.shards_.resize(kNumShards);
  std::atomic<bool> stale{false};
  auto rebase_shard = [&](size_t i) {
    if (!shards_[i]) return;
    Shard fresh;
    fresh.reserve(shards_[i]->size());
    for (const auto& [word, list] : *shards_[i]) {
      PostingList moved;
      moved.reserve(list->size());
      SegmentCursor cursor(segs);
      for (TextPos p : *list) {
        std::optional<int64_t> delta = cursor.Delta(p, p + 1);
        if (!delta.has_value()) {
          stale.store(true, std::memory_order_relaxed);
          return;
        }
        moved.push_back(ShiftPos(p, *delta));
      }
      fresh.emplace(word, CowPtr<PostingList>(std::move(moved)));
    }
    out.shards_[i] = CowPtr<Shard>(std::move(fresh));
  };
  ParallelFor(pool, kNumShards, [&](int, size_t i) { rebase_shard(i); });
  if (stale.load(std::memory_order_relaxed)) {
    return Status::Internal(
        "word posting points into a tombstoned span — a tombstone was "
        "lost; rebuild the indexes");
  }
  return out;
}

uint64_t WordIndex::ApproxBytes() const {
  // Per word: key, string header, postings, list header — the formula
  // the footprint experiments were calibrated with.
  auto word_bytes = [](const std::string& word, const PostingList& list) {
    return word.size() + sizeof(std::string) +
           list.size() * sizeof(TextPos) + sizeof(PostingList);
  };
  uint64_t bytes = 0;
  if (source_ != nullptr &&
      !all_resident_.load(std::memory_order_acquire)) {
    // Disk-resident: report the store's encoded footprint plus whatever
    // has been materialized so far.
    std::lock_guard<std::mutex> lock(lazy_mu_);
    bytes = source_->approx_bytes();
    ForEachWord([&](const std::string& word, const PostingList& list) {
      bytes += word_bytes(word, list);
    });
    return bytes;
  }
  ForEachWord([&](const std::string& word, const PostingList& list) {
    bytes += word_bytes(word, list);
  });
  return bytes;
}

}  // namespace qof
