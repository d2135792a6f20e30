#include "qof/maintain/maintainer.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>

#include "qof/exec/fault_injector.h"
#include "qof/parse/parser.h"

namespace qof {
namespace {

/// One live document's shift under compaction: bytes in
/// [old_start, old_end) move by `delta` (signed — documents only ever
/// move toward the front).
struct Seg {
  TextPos old_start;
  TextPos old_end;
  int64_t delta;
};

TextPos Shift(TextPos p, int64_t delta) {
  return static_cast<TextPos>(static_cast<int64_t>(p) + delta);
}

}  // namespace

IndexMaintainer::IndexMaintainer(const StructuringSchema* schema,
                                 Corpus* corpus, BuiltIndexes* built,
                                 IndexSpec spec, MaintainOptions options)
    : schema_(schema),
      corpus_(corpus),
      built_(built),
      spec_(std::move(spec)),
      filter_(spec_.ToFilter()),
      options_(options) {}

Result<IndexMaintainer::Contribution> IndexMaintainer::ParseContribution(
    std::string_view text, const ExecContext* ctx) {
  SchemaParser parser(schema_, ctx);
  auto tree = parser.ParseDocument(text, /*base=*/0);
  if (!tree.ok()) return tree.status();
  Contribution collected;
  CollectRegions(*schema_, **tree, filter_, &collected);
  // Canonicalize each run the same way a fresh build does (FromUnsorted):
  // tree preorder is already canonical, but duplicate spans from chained
  // unary rules must collapse.
  for (auto& [name, run] : collected) {
    std::sort(run.begin(), run.end());
    run.erase(std::unique(run.begin(), run.end()), run.end());
  }
  return collected;
}

void IndexMaintainer::SpliceIn(const Contribution& at_zero, TextPos start,
                               std::string_view text) {
  Contribution shifted;
  for (const auto& [name, run] : at_zero) {
    std::vector<Region>& dst = shifted[name];
    dst.reserve(run.size());
    for (const Region& r : run) {
      dst.push_back({r.start + start, r.end + start});
    }
  }
  built_->regions.InsertDocRegions(shifted);
  built_->words.AddDocPostings(text, start);
}

void IndexMaintainer::SpliceOut(DocId id) {
  if (TakePlantedBug(planted_bug::kDropTombstone)) {
    // Planted bug: the document gets tombstoned in the corpus but its
    // contribution survives in the indexes — exactly the state a lost
    // tombstone write would leave behind. One-shot.
    return;
  }
  TextPos begin = corpus_->document_start(id);
  TextPos end = corpus_->document_end(id);
  built_->regions.EraseSpan(begin, end);
  if (synthetic_.count(id) > 0) {
    // Placeholder bytes would tokenize wrongly; erase by span instead
    // (identical effect: every posting in the span belongs to this
    // document).
    built_->words.EraseSpanPostings(begin, end);
    synthetic_.erase(id);
  } else {
    built_->words.EraseDocPostings(corpus_->RawText(begin, end), begin, end);
  }
}

Status IndexMaintainer::EnsureIndexesResident() {
  QOF_RETURN_IF_ERROR(built_->regions.EnsureResident());
  return built_->words.EnsureResident();
}

Result<DocId> IndexMaintainer::AddDocument(std::string name,
                                           std::string_view text,
                                           ThreadPool* pool,
                                           const ExecContext* ctx) {
  if (corpus_->FindDocument(name).ok()) {
    return Status::AlreadyExists("document already in corpus: " + name);
  }
  QOF_RETURN_IF_ERROR(EnsureIndexesResident());
  // The fault site sits before any state change: an injected failure (or
  // a governance interrupt inside the parse below) aborts with corpus and
  // indexes untouched — the atomicity the fuzz fault leg verifies.
  QOF_RETURN_IF_ERROR(MaybeInjectFault(fault_site::kMaintainAdd));
  if (ctx != nullptr) QOF_RETURN_IF_ERROR(ctx->Check());
  QOF_ASSIGN_OR_RETURN(Contribution fresh, ParseContribution(text, ctx));
  QOF_ASSIGN_OR_RETURN(DocId id, corpus_->AddDocument(std::move(name), text));
  TextPos start = corpus_->document_start(id);
  SpliceIn(fresh, start, corpus_->RawText(start, corpus_->document_end(id)));
  ++built_->documents;
  ++stats_.generation;
  ++stats_.delta_segments;
  ++stats_.docs_reparsed;
  stats_.bytes_reparsed += text.size();
  QOF_RETURN_IF_ERROR(MaybeAutoCompact(pool));
  return id;
}

Result<DocId> IndexMaintainer::UpdateDocument(std::string_view name,
                                              std::string_view text,
                                              ThreadPool* pool,
                                              const ExecContext* ctx) {
  QOF_ASSIGN_OR_RETURN(DocId old_id, corpus_->FindDocument(name));
  QOF_RETURN_IF_ERROR(EnsureIndexesResident());
  QOF_RETURN_IF_ERROR(MaybeInjectFault(fault_site::kMaintainUpdate));
  if (ctx != nullptr) QOF_RETURN_IF_ERROR(ctx->Check());
  QOF_ASSIGN_OR_RETURN(Contribution fresh, ParseContribution(text, ctx));
  SpliceOut(old_id);
  QOF_ASSIGN_OR_RETURN(DocId id, corpus_->ReplaceDocument(name, text));
  TextPos start = corpus_->document_start(id);
  SpliceIn(fresh, start, corpus_->RawText(start, corpus_->document_end(id)));
  ++stats_.generation;
  ++stats_.delta_segments;
  ++stats_.docs_reparsed;
  stats_.bytes_reparsed += text.size();
  QOF_RETURN_IF_ERROR(MaybeAutoCompact(pool));
  return id;
}

Status IndexMaintainer::RemoveDocument(std::string_view name,
                                       ThreadPool* pool,
                                       const ExecContext* ctx) {
  QOF_ASSIGN_OR_RETURN(DocId id, corpus_->FindDocument(name));
  QOF_RETURN_IF_ERROR(EnsureIndexesResident());
  QOF_RETURN_IF_ERROR(MaybeInjectFault(fault_site::kMaintainRemove));
  if (ctx != nullptr) QOF_RETURN_IF_ERROR(ctx->Check());
  SpliceOut(id);
  QOF_RETURN_IF_ERROR(corpus_->RemoveDocument(name).status());
  --built_->documents;
  ++stats_.generation;
  return MaybeAutoCompact(pool);
}

bool IndexMaintainer::HasLiveSyntheticDocuments() const {
  for (DocId id : synthetic_) {
    if (id < corpus_->num_documents() && corpus_->is_live(id)) return true;
  }
  return false;
}

void IndexMaintainer::MarkDocumentSynthetic(DocId id) {
  synthetic_.insert(id);
}

bool IndexMaintainer::NeedsCompaction() const {
  if (!corpus_->fragmented()) return false;
  if (HasLiveSyntheticDocuments()) return false;  // would bake bad bytes in
  if (corpus_->num_dead_documents() > options_.max_tombstones) return true;
  return static_cast<double>(corpus_->dead_bytes()) >
         options_.max_dead_fraction * static_cast<double>(corpus_->size());
}

Status IndexMaintainer::MaybeAutoCompact(ThreadPool* pool) {
  if (options_.auto_compact && NeedsCompaction()) return Compact(pool);
  return Status::OK();
}

Status IndexMaintainer::Compact(ThreadPool* pool) {
  // Before phase 1: an injected failure here proves callers survive a
  // compaction that refuses to start (state is untouched until commit).
  QOF_RETURN_IF_ERROR(EnsureIndexesResident());
  QOF_RETURN_IF_ERROR(MaybeInjectFault(fault_site::kMaintainCompact));
  if (HasLiveSyntheticDocuments()) {
    return Status::InvalidArgument(
        "cannot compact: live documents restored from a journal have "
        "placeholder bytes; update them with real text first");
  }
  if (!corpus_->fragmented()) {
    // Append-only history: the layout is already dense and identical to a
    // fresh build's, so there is nothing to fold.
    stats_.delta_segments = 0;
    return Status::OK();
  }

  // Dense re-layout: live documents keep their physical order, so the
  // position mapping is monotone and canonical orders survive shifting.
  std::vector<Seg> segs;
  Corpus fresh;
  for (DocId id = 0; id < corpus_->num_documents(); ++id) {
    if (!corpus_->is_live(id)) continue;
    TextPos begin = corpus_->document_start(id);
    TextPos end = corpus_->document_end(id);
    auto added = fresh.AddDocument(corpus_->document_name(id),
                                   corpus_->RawText(begin, end));
    if (!added.ok()) return added.status();  // unreachable: live names unique
    segs.push_back({begin, end,
                    static_cast<int64_t>(fresh.document_start(*added)) -
                        static_cast<int64_t>(begin)});
  }

  // Phase 1 (read-only): rebase every region instance into a new index.
  // Any region outside a live document means a tombstone was lost; fail
  // here and nothing has been mutated.
  std::vector<std::string> names = built_->regions.Names();
  std::vector<RegionSet> rebased(names.size());
  std::vector<Status> statuses(names.size(), Status::OK());
  auto rebase_name = [&](size_t i) {
    auto set = built_->regions.Get(names[i]);
    if (!set.ok()) {
      statuses[i] = set.status();
      return;
    }
    std::vector<Region> out;
    out.reserve((*set)->size());
    size_t s = 0;
    for (const Region& r : **set) {
      while (s < segs.size() && segs[s].old_end <= r.start) ++s;
      if (s == segs.size() || r.start < segs[s].old_start ||
          r.end > segs[s].old_end) {
        statuses[i] = Status::Internal(
            "region instance '" + names[i] + "' span [" +
            std::to_string(r.start) + ", " + std::to_string(r.end) +
            ") points into a tombstoned span — a tombstone was lost; "
            "rebuild the indexes");
        return;
      }
      out.push_back({Shift(r.start, segs[s].delta),
                     Shift(r.end, segs[s].delta)});
    }
    rebased[i] = RegionSet::FromSortedUnique(std::move(out));
  };
  if (pool != nullptr && pool->size() > 1 && names.size() > 1) {
    pool->ParallelFor(names.size(), [&](int, size_t i) { rebase_name(i); });
  } else {
    for (size_t i = 0; i < names.size(); ++i) rebase_name(i);
  }
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }

  // Phase 2: rebase postings in place. A stale posting here (possible
  // only with already-corrupt indexes) is detected but leaves the word
  // index partially rebased — the caller must rebuild.
  std::atomic<bool> stale{false};
  auto map_pos = [&segs, &stale](TextPos p) -> TextPos {
    auto it = std::upper_bound(
        segs.begin(), segs.end(), p,
        [](TextPos v, const Seg& s) { return v < s.old_start; });
    if (it == segs.begin()) {
      stale.store(true, std::memory_order_relaxed);
      return p;
    }
    --it;
    if (p >= it->old_end) {
      stale.store(true, std::memory_order_relaxed);
      return p;
    }
    return Shift(p, it->delta);
  };
  built_->words.RebasePostings(map_pos, pool);
  if (stale.load(std::memory_order_relaxed)) {
    return Status::Internal(
        "word posting points into a tombstoned span — a tombstone was "
        "lost; the word index is corrupt, rebuild the indexes");
  }

  // Commit.
  RegionIndex fresh_regions;
  for (size_t i = 0; i < names.size(); ++i) {
    fresh_regions.Add(std::move(names[i]), std::move(rebased[i]));
  }
  built_->regions = std::move(fresh_regions);
  *corpus_ = std::move(fresh);
  synthetic_.clear();
  ++stats_.compactions;
  stats_.delta_segments = 0;
  return Status::OK();
}

MaintainStats IndexMaintainer::stats() const {
  MaintainStats s = stats_;
  s.live_documents = corpus_->num_live_documents();
  s.tombstones = corpus_->num_dead_documents();
  s.dead_bytes = corpus_->dead_bytes();
  return s;
}

}  // namespace qof
