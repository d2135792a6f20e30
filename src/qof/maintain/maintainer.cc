#include "qof/maintain/maintainer.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <utility>

#include "qof/exec/fault_injector.h"
#include "qof/parse/parser.h"

namespace qof {
namespace {

/// Stands for "no document" in Splice().
constexpr DocId kNoDocument = std::numeric_limits<DocId>::max();

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
                                 IndexSpec spec, MaintainOptions options)
    : schema_(schema),
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

void IndexMaintainer::Splice(MaintainTarget target, DocId old_id,
                             DocId new_id, const Contribution& at_zero) {
  const Corpus& corpus = *target.corpus;
  TextPos old_begin = 0;
  TextPos old_end = 0;
  bool old_synthetic = false;
  // Planted bug: the document gets tombstoned in the corpus but its
  // contribution survives in the indexes — exactly the state a lost
  // tombstone write would leave behind. One-shot.
  if (old_id != kNoDocument && !TakePlantedBug(planted_bug::kDropTombstone)) {
    old_begin = corpus.document_start(old_id);
    old_end = corpus.document_end(old_id);
    old_synthetic = synthetic_.erase(old_id) > 0;
  }
  TextPos start = 0;
  std::string_view new_text;
  Contribution shifted;
  if (new_id != kNoDocument) {
    start = corpus.document_start(new_id);
    new_text = corpus.RawText(start, corpus.document_end(new_id));
    for (const auto& [name, run] : at_zero) {
      std::vector<Region>& dst = shifted[name];
      dst.reserve(run.size());
      for (const Region& r : run) {
        dst.push_back({r.start + start, r.end + start});
      }
    }
  }
  target.built->regions.SpliceDocument(old_begin, old_end, shifted);
  WordIndex& words = target.built->words;
  if (old_synthetic) {
    // Placeholder bytes would tokenize wrongly; erase by span instead
    // (identical effect: every posting in the span belongs to this
    // document).
    words.EraseSpanPostings(old_begin, old_end);
    words.SpliceDocPostings({}, 0, 0, new_text, start);
  } else {
    words.SpliceDocPostings(corpus.RawText(old_begin, old_end), old_begin,
                            old_end, new_text, start);
  }
}

Status IndexMaintainer::EnsureIndexesResident(const BuiltIndexes& built) {
  QOF_RETURN_IF_ERROR(built.regions.EnsureResident());
  return built.words.EnsureResident();
}

Result<DocId> IndexMaintainer::AddDocument(MaintainTarget target,
                                           std::string name,
                                           std::string_view text,
                                           ThreadPool* pool,
                                           const ExecContext* ctx) {
  Corpus& corpus = *target.corpus;
  if (corpus.FindDocument(name).ok()) {
    return Status::AlreadyExists("document already in corpus: " + name);
  }
  QOF_RETURN_IF_ERROR(EnsureIndexesResident(*target.built));
  // The fault site sits before any state change: an injected failure (or
  // a governance interrupt inside the parse below) aborts with corpus and
  // indexes untouched — the atomicity the fuzz fault leg verifies.
  QOF_RETURN_IF_ERROR(MaybeInjectFault(fault_site::kMaintainAdd));
  if (ctx != nullptr) QOF_RETURN_IF_ERROR(ctx->Check());
  QOF_ASSIGN_OR_RETURN(Contribution fresh, ParseContribution(text, ctx));
  QOF_ASSIGN_OR_RETURN(DocId id, corpus.AddDocument(std::move(name), text));
  Splice(target, kNoDocument, id, fresh);
  ++target.built->documents;
  ++stats_.generation;
  ++stats_.delta_segments;
  ++stats_.docs_reparsed;
  stats_.bytes_reparsed += text.size();
  QOF_RETURN_IF_ERROR(MaybeAutoCompact(target, pool));
  return id;
}

Result<DocId> IndexMaintainer::UpdateDocument(MaintainTarget target,
                                              std::string_view name,
                                              std::string_view text,
                                              ThreadPool* pool,
                                              const ExecContext* ctx) {
  Corpus& corpus = *target.corpus;
  QOF_ASSIGN_OR_RETURN(DocId old_id, corpus.FindDocument(name));
  QOF_RETURN_IF_ERROR(EnsureIndexesResident(*target.built));
  QOF_RETURN_IF_ERROR(MaybeInjectFault(fault_site::kMaintainUpdate));
  if (ctx != nullptr) QOF_RETURN_IF_ERROR(ctx->Check());
  QOF_ASSIGN_OR_RETURN(Contribution fresh, ParseContribution(text, ctx));
  QOF_ASSIGN_OR_RETURN(DocId id, corpus.ReplaceDocument(name, text));
  Splice(target, old_id, id, fresh);
  ++stats_.generation;
  ++stats_.delta_segments;
  ++stats_.docs_reparsed;
  stats_.bytes_reparsed += text.size();
  QOF_RETURN_IF_ERROR(MaybeAutoCompact(target, pool));
  return id;
}

Status IndexMaintainer::RemoveDocument(MaintainTarget target,
                                       std::string_view name,
                                       ThreadPool* pool,
                                       const ExecContext* ctx) {
  QOF_ASSIGN_OR_RETURN(DocId id, target.corpus->FindDocument(name));
  QOF_RETURN_IF_ERROR(EnsureIndexesResident(*target.built));
  QOF_RETURN_IF_ERROR(MaybeInjectFault(fault_site::kMaintainRemove));
  if (ctx != nullptr) QOF_RETURN_IF_ERROR(ctx->Check());
  QOF_RETURN_IF_ERROR(target.corpus->RemoveDocument(name).status());
  Splice(target, id, kNoDocument, {});
  --target.built->documents;
  ++stats_.generation;
  return MaybeAutoCompact(target, pool);
}

bool IndexMaintainer::HasLiveSyntheticDocuments(const Corpus& corpus) const {
  for (DocId id : synthetic_) {
    if (id < corpus.num_documents() && corpus.is_live(id)) return true;
  }
  return false;
}

void IndexMaintainer::MarkDocumentSynthetic(DocId id) {
  synthetic_.insert(id);
}

bool IndexMaintainer::NeedsCompaction(const Corpus& corpus) const {
  if (!corpus.fragmented()) return false;
  if (HasLiveSyntheticDocuments(corpus)) return false;  // bad bytes
  if (corpus.num_dead_documents() > options_.max_tombstones) return true;
  return static_cast<double>(corpus.dead_bytes()) >
         options_.max_dead_fraction * static_cast<double>(corpus.size());
}

Status IndexMaintainer::MaybeAutoCompact(MaintainTarget target,
                                         ThreadPool* pool) {
  if (options_.auto_compact && NeedsCompaction(*target.corpus)) {
    return Compact(target, pool);
  }
  return Status::OK();
}

Status IndexMaintainer::Compact(MaintainTarget target, ThreadPool* pool) {
  // Before phase 1: an injected failure here proves callers survive a
  // compaction that refuses to start (state is untouched until commit).
  const Corpus& corpus = *target.corpus;
  BuiltIndexes& built = *target.built;
  QOF_RETURN_IF_ERROR(EnsureIndexesResident(built));
  QOF_RETURN_IF_ERROR(MaybeInjectFault(fault_site::kMaintainCompact));
  if (HasLiveSyntheticDocuments(corpus)) {
    return Status::InvalidArgument(
        "cannot compact: live documents restored from a journal have "
        "placeholder bytes; update them with real text first");
  }
  if (!corpus.fragmented()) {
    // Append-only history: the layout is already dense and identical to a
    // fresh build's, so there is nothing to fold.
    stats_.delta_segments = 0;
    return Status::OK();
  }

  // Dense re-layout: live documents keep their physical order, so the
  // position mapping is monotone and canonical orders survive shifting.
  Corpus fresh = corpus.LiveOnly();
  std::vector<Seg> segs;
  segs.reserve(fresh.num_documents());
  for (DocId id = 0; id < corpus.num_documents(); ++id) {
    if (!corpus.is_live(id)) continue;
    TextPos begin = corpus.document_start(id);
    segs.push_back({begin, corpus.document_end(id),
                    static_cast<int64_t>(fresh.document_start(
                        static_cast<DocId>(segs.size()))) -
                        static_cast<int64_t>(begin)});
  }

  // Phase 1: rebase every region instance into fresh arrays. Any region
  // outside a live document means a tombstone was lost; fail here and
  // nothing has been mutated.
  std::vector<std::string> names = built.regions.Names();
  std::vector<RegionSet> rebased(names.size());
  std::vector<Status> statuses(names.size(), Status::OK());
  auto rebase_name = [&](size_t i) {
    auto set = built.regions.Get(names[i]);
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

  // Phase 2: rebase postings into a fresh word index. A stale posting
  // (possible only with already-corrupt indexes) fails the compaction
  // with nothing mutated.
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
  WordIndex words = built.words.Rebased(map_pos, pool);
  if (stale.load(std::memory_order_relaxed)) {
    return Status::Internal(
        "word posting points into a tombstoned span — a tombstone was "
        "lost; rebuild the indexes");
  }

  // Commit.
  RegionIndex fresh_regions;
  for (size_t i = 0; i < names.size(); ++i) {
    fresh_regions.Add(std::move(names[i]), std::move(rebased[i]));
  }
  built.regions = std::move(fresh_regions);
  built.words = std::move(words);
  *target.corpus = std::move(fresh);
  synthetic_.clear();
  ++stats_.compactions;
  stats_.delta_segments = 0;
  return Status::OK();
}

MaintainStats IndexMaintainer::stats(const Corpus& corpus) const {
  MaintainStats s = stats_;
  s.live_documents = corpus.num_live_documents();
  s.tombstones = corpus.num_dead_documents();
  s.dead_bytes = corpus.dead_bytes();
  return s;
}

}  // namespace qof
