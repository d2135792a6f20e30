#include "qof/fuzz/crash_leg.h"

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "qof/engine/index_io.h"
#include "qof/engine/index_spec.h"
#include "qof/engine/indexer.h"
#include "qof/maintain/durable_dir.h"
#include "qof/maintain/journal.h"
#include "qof/maintain/maintainer.h"
#include "qof/store/fault_vfs.h"
#include "qof/store/store_format.h"
#include "qof/store/vfs.h"
#include "qof/text/corpus.h"

namespace qof {
namespace {

constexpr uint64_t kNoCommit = ~uint64_t{0};

/// Everything the I/O trace writes, precomputed once: the replayed
/// traces differ only in where the power dies, so the in-memory side
/// (index builds, mutation application, the checkpoint store) is shared
/// across all crash points.
struct TraceArtifacts {
  std::string store0;                 // generation-0 store Create publishes
  std::vector<JournalRecord> records; // one per mutation, in order
  /// Index into `records` after whose append the trace checkpoints
  /// (compacted store + fresh journal), exercising the manifest swing.
  size_t checkpoint_after = 0;
  std::string checkpoint_store;
  uint64_t checkpoint_generation = 0;
};

/// One maintained system built from the base docs; mutations applied
/// through it. Compaction is explicit (the trace's checkpoint), like the
/// CLI.
struct Maintained {
  Corpus corpus;
  BuiltIndexes built;
  std::unique_ptr<IndexMaintainer> maintainer;
};

Result<std::unique_ptr<Maintained>> BuildBase(const StructuringSchema& schema,
                                              const CaseDocs& docs) {
  auto m = std::make_unique<Maintained>();
  for (const auto& [name, text] : docs) {
    QOF_RETURN_IF_ERROR(m->corpus.AddDocument(name, text).status());
  }
  QOF_ASSIGN_OR_RETURN(m->built,
                       BuildIndexes(schema, m->corpus, IndexSpec::Full()));
  MaintainOptions options;
  options.auto_compact = false;
  m->maintainer = std::make_unique<IndexMaintainer>(
      &schema, &m->corpus, &m->built, IndexSpec::Full(), options);
  return m;
}

/// The canonical store image for "base docs + the first `g` records":
/// replayed fault-free, compacted, encoded. Crash recovery at any point
/// must land on one of these — never in between.
Result<std::string> ReferenceStore(const StructuringSchema& schema,
                                   const CaseDocs& docs,
                                   const std::vector<JournalRecord>& records,
                                   uint64_t g) {
  QOF_ASSIGN_OR_RETURN(std::unique_ptr<Maintained> m,
                       BuildBase(schema, docs));
  QOF_RETURN_IF_ERROR(ReplayJournal(
      std::vector<JournalRecord>(records.begin(),
                                 records.begin() + static_cast<long>(g)),
      m->maintainer.get()));
  QOF_RETURN_IF_ERROR(m->maintainer->Compact());
  return EncodeIndexStore(m->built, IndexSpec::Full(), m->corpus,
                          m->maintainer->generation());
}

/// Replays the precomputed trace against `vfs` until it completes or the
/// armed crash point kills an I/O op. Returns the durability floor: the
/// highest generation whose append (or checkpoint) was acknowledged
/// before the cut, kNoCommit when not even Create() returned.
uint64_t RunIoTrace(Vfs* vfs, const std::string& dir,
                    const TraceArtifacts& artifacts) {
  // Append() routes through DefaultVfs (the journal module's path), so
  // the override must cover the whole trace.
  ScopedVfs scoped(vfs);
  uint64_t floor = kNoCommit;
  auto created = DurableIndexDir::Create(vfs, dir, artifacts.store0,
                                         /*generation=*/0);
  if (!created.ok()) return floor;
  floor = 0;
  for (size_t j = 0; j < artifacts.records.size(); ++j) {
    if (!created->Append(artifacts.records[j]).ok()) return floor;
    floor = artifacts.records[j].generation;
    if (j == artifacts.checkpoint_after) {
      if (!created
               ->Checkpoint(artifacts.checkpoint_store,
                            artifacts.checkpoint_generation)
               .ok()) {
        return floor;
      }
    }
  }
  return floor;
}

}  // namespace

Status CheckCrashConsistency(
    const StructuringSchema& schema, const CaseDocs& docs,
    const ConcreteCase& c, const OracleOptions& options, uint64_t seed,
    std::string* failure) {
  if (c.mutations.empty()) return Status::OK();

  const bool planted = options.bug == InjectedBug::kSkipDirSync;
  const std::string dir = "idx";

  // --- Precompute the trace (shared across every crash point) ----------
  // Each step becomes its journal record once; the trace appends them and
  // every in-memory application replays them through ReplayJournal.
  TraceArtifacts artifacts;
  std::vector<JournalRecord>& records = artifacts.records;
  for (size_t j = 0; j < c.mutations.size(); ++j) {
    records.push_back(JournalRecordFor(c.mutations[j], j + 1));
  }
  auto base = BuildBase(schema, docs);
  if (!base.ok()) return Status::OK();  // the matrix reports this
  {
    std::unique_ptr<Maintained>& m = *base;
    auto store0 = EncodeIndexStore(m->built, IndexSpec::Full(), m->corpus,
                                   m->maintainer->generation());
    if (!store0.ok()) return store0.status();
    artifacts.store0 = std::move(*store0);
    artifacts.checkpoint_after = c.mutations.size() / 2;
    for (size_t j = 0; j < records.size(); ++j) {
      Status applied = ReplayJournal({records[j]}, m->maintainer.get());
      if (!applied.ok()) {
        // A shrink artifact (a dropped add orphaned a later step), not a
        // finding — refuse the case, as the matrix does.
        return Status::Internal("crash leg: mutation " +
                                std::to_string(j) + " (" +
                                c.mutations[j].name +
                                ") failed: " + applied.ToString());
      }
      if (j == artifacts.checkpoint_after) {
        uint64_t before = m->maintainer->generation();
        QOF_RETURN_IF_ERROR(m->maintainer->Compact());
        if (m->maintainer->generation() != before) {
          return Status::Internal(
              "crash leg: Compact() moved the generation counter");
        }
        auto ckpt = EncodeIndexStore(m->built, IndexSpec::Full(),
                                     m->corpus, before);
        if (!ckpt.ok()) return ckpt.status();
        artifacts.checkpoint_store = std::move(*ckpt);
        artifacts.checkpoint_generation = before;
      }
    }
  }

  // --- Dry run: count the trace's I/O ops (the crash-point domain) -----
  uint64_t total_ops = 0;
  {
    FaultVfs dry;
    dry.set_skip_dir_sync(planted);
    uint64_t floor = RunIoTrace(&dry, dir, artifacts);
    if (floor != c.mutations.size()) {
      return Status::Internal(
          "crash leg: fault-free trace did not complete (floor " +
          std::to_string(floor) + " of " +
          std::to_string(c.mutations.size()) + ")");
    }
    total_ops = dry.op_count();
  }

  // Canonical per-generation stores, computed lazily: most crash points
  // recover to one of a handful of generations.
  std::map<uint64_t, std::string> reference;
  auto reference_store = [&](uint64_t g) -> Result<std::string> {
    auto it = reference.find(g);
    if (it != reference.end()) return it->second;
    QOF_ASSIGN_OR_RETURN(std::string image,
                         ReferenceStore(schema, docs, records, g));
    reference.emplace(g, image);
    return image;
  };

  // --- The sweep: die at every op, come back up, recover, check --------
  for (uint64_t crash_op = 0; crash_op < total_ops; ++crash_op) {
    auto fail = [&](const std::string& what) {
      *failure = "[crash-sweep op " + std::to_string(crash_op) + "/" +
                 std::to_string(total_ops) + "] " + what +
                 " (fql: " + c.fql + ")";
      return Status::OK();
    };

    FaultVfs vfs;
    vfs.set_skip_dir_sync(planted);
    vfs.set_crash_at_op(crash_op);
    uint64_t floor = RunIoTrace(&vfs, dir, artifacts);
    if (!vfs.crashed()) {
      return Status::Internal("crash leg: op " + std::to_string(crash_op) +
                              " of " + std::to_string(total_ops) +
                              " never fired");
    }
    vfs.CutPower(seed ^ (crash_op * 0x9e3779b97f4a7c15ull + 0xa11ceull));

    // Recovery, the CLI's path: manifest → store → journal replay.
    ScopedVfs scoped(&vfs);
    auto opened = DurableIndexDir::Open(&vfs, dir);
    if (!opened.ok()) {
      if (floor != kNoCommit) {
        return fail("recovery failed after generation " +
                    std::to_string(floor) + " was acknowledged durable: " +
                    opened.status().ToString());
      }
      continue;  // nothing was ever committed; an empty directory is fine
    }

    auto loaded = LoadIndexStore(opened->store_path());
    if (!loaded.ok()) {
      return fail("committed store failed to open: " +
                  loaded.status().ToString());
    }
    const uint64_t store_generation = opened->generation();
    if (loaded->generation != store_generation) {
      return fail("manifest generation " + std::to_string(store_generation) +
                  " but the store it names carries generation " +
                  std::to_string(loaded->generation));
    }
    if (store_generation > c.mutations.size()) {
      return fail("recovered store from the future (generation " +
                  std::to_string(store_generation) + " of " +
                  std::to_string(c.mutations.size()) + " mutations)");
    }

    // Rebuild the corpus at the store's generation from the known history
    // and check every fingerprint: a committed store may only describe
    // documents that actually existed at that generation.
    std::map<std::string, std::string> texts;
    for (const auto& [name, text] : docs) texts[name] = text;
    for (uint64_t i = 0; i < store_generation; ++i) {
      const MutationStep& m = c.mutations[i];
      if (m.op == MutationStep::Op::kRemove) {
        texts.erase(m.name);
      } else {
        texts[m.name] = m.text;
      }
    }
    Corpus corpus;
    for (const DocFingerprint& doc : loaded->docs) {
      auto it = texts.find(doc.name);
      if (it == texts.end() || it->second.size() != doc.size ||
          CorpusFingerprint(it->second) != doc.fnv1a) {
        return fail("recovered store names document '" + doc.name +
                    "' with a fingerprint no generation-" +
                    std::to_string(store_generation) + " state ever had");
      }
      QOF_RETURN_IF_ERROR(
          corpus.AddDocument(doc.name, it->second).status());
    }

    // The maintainer pages the store in on its first write.
    MaintainOptions maintain_options;
    maintain_options.auto_compact = false;
    IndexMaintainer maintainer(&schema, &corpus, &loaded->indexes,
                               loaded->spec, maintain_options);
    maintainer.set_generation(loaded->generation);

    auto surviving = opened->ReadJournal();
    if (!surviving.ok()) {
      return fail("committed journal unreadable: " +
                  surviving.status().ToString());
    }
    // Surviving frames must be real appended records, in order — the
    // frame checksums admit garbage never, prefixes only.
    for (size_t k = 0; k < surviving->size(); ++k) {
      const JournalRecord& r = (*surviving)[k];
      if (r.generation != store_generation + k + 1 ||
          r.generation > c.mutations.size() ||
          r != records[r.generation - 1]) {
        return fail("journal frame " + std::to_string(k) +
                    " (generation " + std::to_string(r.generation) +
                    ") is not the record that was appended");
      }
    }
    Status replayed = ReplayJournal(*surviving, &maintainer);
    if (!replayed.ok()) {
      return fail("journal replay failed: " + replayed.ToString());
    }

    const uint64_t recovered = maintainer.generation();
    if (floor != kNoCommit && recovered < floor) {
      return fail("acknowledged generation " + std::to_string(floor) +
                  " was lost: recovered only generation " +
                  std::to_string(recovered));
    }

    // The recovered state must be byte-identical (compacted, generation
    // aside) to a direct application of exactly `recovered` steps.
    Status compacted = maintainer.Compact();
    if (!compacted.ok()) {
      return fail("recovered state failed to compact: " +
                  compacted.ToString());
    }
    auto recovered_store =
        EncodeIndexStore(loaded->indexes, loaded->spec, corpus,
                         maintainer.generation());
    if (!recovered_store.ok()) return recovered_store.status();
    auto expect = reference_store(recovered);
    if (!expect.ok()) return expect.status();
    if (!SameStoreIgnoringGeneration(*recovered_store, *expect)) {
      return fail("recovered state at generation " +
                  std::to_string(recovered) +
                  " diverges from direct application of the same " +
                  "prefix (" + std::to_string(recovered_store->size()) +
                  " vs " + std::to_string(expect->size()) + " store bytes)");
    }
  }
  return Status::OK();
}

}  // namespace qof
