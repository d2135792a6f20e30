// On-disk index maintenance driver: builds full indexes over a set of
// files as a paged index store and keeps them current across mutations
// via the append-only maintenance journal (see src/qof/maintain/ and
// DESIGN.md, "Index maintenance" and "Durability & failure model").
// State on disk is a crash-consistent DurableIndexDir:
//
//   MANIFEST             checksummed superblock naming the committed
//                        (generation, store, journal) triple
//   store-<G>.qofstore   the base indexes as a QOFSTOR1 paged store
//                        (spec + indexes + per-doc fingerprints +
//                        generation G; see src/qof/engine/index_io.h)
//   journal-<G>.qofj     mutations applied since store generation G
//   schema               the canned schema kind the corpus parses under
//
// Mutations (`add`, `update`, `remove`) reconstruct the maintainer as
// base store + journal replay, apply the change incrementally — only the
// touched file is re-parsed — and append one journal frame; the store is
// rewritten only by `build` and `compact`, via the manifest checkpoint
// protocol (new store + empty journal durable first, manifest swing as
// the commit point, old pair reaped after). Every write is fsync'd and
// every rename is followed by a parent-directory fsync, so a crash or
// power cut at any instant leaves either the old committed state or the
// new one — never a torn mix. `--sync-policy batch|none` trades that
// per-append durability for throughput.
//
// Files whose bytes changed (or vanished) since the store was written
// load as synthetic placeholders: queries on their old content would be
// wrong, so `inspect` flags them and `compact` refuses until they are
// updated or removed.
//
// Exit codes: 0 = success, 1 = usage error, 2 = data error (unreadable
// state, parse failure, damaged store), 3 = deadline or resource limit
// exceeded (--timeout-ms / --max-bytes).

#include <cstdint>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "qof/datagen/schemas.h"
#include "qof/engine/index_io.h"
#include "qof/exec/exec_context.h"
#include "qof/engine/index_spec.h"
#include "qof/engine/indexer.h"
#include "qof/maintain/durable_dir.h"
#include "qof/maintain/journal.h"
#include "qof/maintain/maintainer.h"
#include "qof/store/vfs.h"
#include "qof/text/corpus.h"
#include "qof/util/result.h"
#include "qof/util/thread_pool.h"

namespace qof {
namespace {

void PrintUsage(std::ostream& out) {
  out << "usage: qof_index <command> --index DIR [args]\n"
         "  build --schema KIND --index DIR FILE...   parse FILEs, build "
         "full indexes,\n"
         "                                            write store + empty "
         "journal\n"
         "  add --index DIR FILE...      index new files incrementally\n"
         "  update --index DIR FILE...   re-index changed files "
         "incrementally\n"
         "  remove --index DIR NAME...   drop files from the indexes\n"
         "  compact --index DIR          fold tombstones, rewrite store, "
         "reset journal\n"
         "  inspect --index DIR          show store, journal and "
         "maintenance state\n"
         "KIND is a canned schema: bibtex | mail | log | outline\n"
         "options:\n"
         "  --timeout-ms N   wall-clock budget for parsing/indexing work\n"
         "  --max-bytes N    cap on corpus bytes scanned\n"
         "  --sync-policy P  journal durability: always (fsync every "
         "append,\n"
         "                   the default) | batch (fsync once per "
         "command) |\n"
         "                   none (leave syncing to the OS)\n"
         "exit codes: 0 ok, 1 usage, 2 data error, 3 deadline/limit "
         "exceeded\n";
}

Result<StructuringSchema> SchemaByKind(const std::string& kind) {
  if (kind == "bibtex") return BibtexSchema();
  if (kind == "mail") return MailSchema();
  if (kind == "log") return LogSchema();
  if (kind == "outline") return OutlineSchema();
  return Status::InvalidArgument("unknown schema kind '" + kind +
                                 "' (want bibtex | mail | log | outline)");
}

Result<std::string> ReadFile(const std::string& path) {
  return VfsReadFile(DefaultVfs(), path);
}

std::string SchemaPath(const std::string& dir) { return dir + "/schema"; }

ThreadPool* SharedPool() {
  static ThreadPool* pool = [] {
    int n = EffectiveParallelism(0);
    return n > 1 ? new ThreadPool(n) : nullptr;
  }();
  return pool;
}

/// The maintainer state reconstructed from disk: base store + journal
/// replay over a corpus re-read from the indexed files.
struct State {
  std::unique_ptr<DurableIndexDir> durable;
  std::unique_ptr<StructuringSchema> schema;
  std::string schema_kind;
  Corpus corpus;
  /// The base store, attached lazily; the maintainer pages it in on its
  /// first write.
  LoadedIndexStore loaded;
  std::unique_ptr<IndexMaintainer> maintainer;
  /// Documents loaded as placeholders (their bytes on disk no longer
  /// match the store); journal replay may since have replaced them.
  std::vector<DocId> synthetic;
  size_t journal_records = 0;
  bool journal_repaired = false;  // a torn tail was discarded

  MaintainTarget target() { return {&corpus, &loaded.indexes}; }
};

Result<std::unique_ptr<State>> LoadState(const std::string& dir,
                                         SyncPolicy policy) {
  auto state = std::make_unique<State>();

  DurableIndexDir::Options durable_options;
  durable_options.sync_policy = policy;
  QOF_ASSIGN_OR_RETURN(
      DurableIndexDir durable,
      DurableIndexDir::Open(DefaultVfs(), dir, durable_options));
  state->durable = std::make_unique<DurableIndexDir>(std::move(durable));

  QOF_ASSIGN_OR_RETURN(std::string kind, ReadFile(SchemaPath(dir)));
  while (!kind.empty() && (kind.back() == '\n' || kind.back() == ' ')) {
    kind.pop_back();
  }
  state->schema_kind = kind;
  QOF_ASSIGN_OR_RETURN(StructuringSchema schema, SchemaByKind(kind));
  state->schema = std::make_unique<StructuringSchema>(std::move(schema));

  QOF_ASSIGN_OR_RETURN(state->loaded,
                       LoadIndexStore(state->durable->store_path()));

  // Re-read each indexed file; bytes that no longer match the store's
  // fingerprint become zero-filled placeholders (synthetic documents).
  // The store's offsets describe its own document table, which the
  // corpus rebuilt here follows row for row.
  for (const DocFingerprint& doc : state->loaded.docs) {
    auto text = ReadFile(doc.name);
    bool matches = text.ok() && text->size() == doc.size &&
                   CorpusFingerprint(*text) == doc.fnv1a;
    QOF_ASSIGN_OR_RETURN(
        DocId id,
        state->corpus.AddDocument(
            doc.name, matches ? *text : std::string(doc.size, '\0')));
    if (!matches) state->synthetic.push_back(id);
  }

  MaintainOptions maintain_options;
  maintain_options.auto_compact = false;  // store rewrites are explicit
  state->maintainer = std::make_unique<IndexMaintainer>(
      state->schema.get(), state->loaded.spec, maintain_options);
  state->maintainer->set_generation(state->loaded.generation);
  for (DocId id : state->synthetic) {
    state->maintainer->MarkDocumentSynthetic(id);
  }

  QOF_ASSIGN_OR_RETURN(
      std::vector<JournalRecord> records,
      state->durable->ReadJournal(&state->journal_repaired));
  if (state->journal_repaired) {
    std::cerr << "warning: discarded a torn journal tail (crash "
                 "mid-append)\n";
  }
  QOF_RETURN_IF_ERROR(
      ReplayJournal(records, state->target(), state->maintainer.get()));
  state->journal_records = records.size();
  return state;
}

Status RunBuild(const std::string& dir, const std::string& kind,
                const std::vector<std::string>& files,
                const QueryOptions& limits, SyncPolicy policy) {
  QOF_ASSIGN_OR_RETURN(StructuringSchema schema, SchemaByKind(kind));
  ExecContext governed(limits);
  const ExecContext* ctx = governed.active() ? &governed : nullptr;
  Corpus corpus;
  if (ctx != nullptr) {
    governed.set_scanned_bytes_counter(&corpus.bytes_read_counter());
  }
  for (const std::string& path : files) {
    QOF_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
    QOF_RETURN_IF_ERROR(corpus.AddDocument(path, text).status());
  }
  QOF_ASSIGN_OR_RETURN(
      BuiltIndexes built,
      BuildIndexes(schema, corpus, IndexSpec::Full(), SharedPool(), ctx));
  QOF_ASSIGN_OR_RETURN(
      std::string store,
      EncodeIndexStore(built, IndexSpec::Full(), corpus, /*generation=*/0));
  DurableIndexDir::Options durable_options;
  durable_options.sync_policy = policy;
  QOF_RETURN_IF_ERROR(DurableIndexDir::Create(DefaultVfs(), dir, store,
                                              /*generation=*/0,
                                              durable_options)
                          .status());
  QOF_RETURN_IF_ERROR(
      AtomicWriteFile(DefaultVfs(), SchemaPath(dir), kind + "\n"));
  std::cout << "indexed " << files.size() << " file(s): "
            << built.regions.num_regions() << " regions, "
            << built.words.num_postings() << " postings, store "
            << store.size() << " bytes\n";
  return Status::OK();
}

Status RunMutate(const std::string& dir, const std::string& command,
                 const std::vector<std::string>& args,
                 const QueryOptions& limits, SyncPolicy policy) {
  QOF_ASSIGN_OR_RETURN(std::unique_ptr<State> state,
                       LoadState(dir, policy));
  ExecContext governed(limits);
  const ExecContext* ctx = governed.active() ? &governed : nullptr;
  if (ctx != nullptr) {
    governed.set_scanned_bytes_counter(&state->corpus.bytes_read_counter());
  }
  for (const std::string& arg : args) {
    JournalRecord record;
    record.name = arg;
    Status applied = Status::OK();
    if (command == "add" || command == "update") {
      QOF_ASSIGN_OR_RETURN(record.text, ReadFile(arg));
      record.op =
          command == "add" ? JournalOp::kAdd : JournalOp::kUpdate;
      applied =
          command == "add"
              ? state->maintainer
                    ->AddDocument(state->target(), arg, record.text,
                                  SharedPool(), ctx)
                    .status()
              : state->maintainer
                    ->UpdateDocument(state->target(), arg, record.text,
                                     SharedPool(), ctx)
                    .status();
    } else {
      record.op = JournalOp::kRemove;
      applied = state->maintainer->RemoveDocument(state->target(), arg,
                                                  SharedPool(), ctx);
    }
    if (!applied.ok()) {
      return Status(applied.code(),
                    command + " " + arg + ": " + applied.message());
    }
    record.generation = state->maintainer->generation();
    QOF_RETURN_IF_ERROR(state->durable->Append(record));
  }
  // The kBatch boundary: one fsync covers the whole command's appends (a
  // no-op under kAlways, already durable, and under kNone, opted out).
  QOF_RETURN_IF_ERROR(state->durable->SyncJournal());
  MaintainStats stats = state->maintainer->stats(state->corpus);
  std::cout << command << " applied to " << args.size()
            << " file(s); generation " << stats.generation << ", "
            << stats.tombstones << " tombstone(s), " << stats.dead_bytes
            << " dead byte(s)"
            << (state->maintainer->NeedsCompaction(state->corpus)
                    ? " — run 'qof_index compact'"
                    : "")
            << "\n";
  return Status::OK();
}

Status RunCompact(const std::string& dir, SyncPolicy policy) {
  QOF_ASSIGN_OR_RETURN(std::unique_ptr<State> state,
                       LoadState(dir, policy));
  uint64_t dead = state->maintainer->stats(state->corpus).dead_bytes;
  QOF_RETURN_IF_ERROR(
      state->maintainer->Compact(state->target(), SharedPool()));
  QOF_ASSIGN_OR_RETURN(
      std::string store,
      EncodeIndexStore(state->loaded.indexes, state->loaded.spec,
                       state->corpus, state->maintainer->generation()));
  QOF_RETURN_IF_ERROR(
      state->durable->Checkpoint(store, state->maintainer->generation()));
  std::cout << "compacted: reclaimed " << dead
            << " dead byte(s); store rewritten at generation "
            << state->maintainer->generation() << ", journal reset\n";
  return Status::OK();
}

Status RunInspect(const std::string& dir, SyncPolicy policy) {
  QOF_ASSIGN_OR_RETURN(DurableIndexDir durable,
                       DurableIndexDir::Open(DefaultVfs(), dir));
  QOF_ASSIGN_OR_RETURN(LoadedIndexStore loaded,
                       LoadIndexStore(durable.store_path()));
  std::cout << "manifest: generation " << durable.generation() << " ("
            << durable.manifest().store_name << " + "
            << durable.manifest().journal_name << ")\n";
  std::cout << "store: " << loaded.store->num_pages() << " pages of "
            << loaded.store->page_size() << " bytes, generation "
            << loaded.generation << ", " << loaded.docs.size()
            << " document(s)\n";
  for (const DocFingerprint& doc : loaded.docs) {
    std::cout << "  " << doc.name << "  " << doc.size << " bytes\n";
  }
  // Page every instance and posting list in: the buffer pool verifies
  // each page's checksum as it reads it, so damage anywhere in the store
  // fails here.
  QOF_RETURN_IF_ERROR(loaded.indexes.regions.EnsureResident());
  QOF_RETURN_IF_ERROR(loaded.indexes.words.EnsureResident());

  bool repaired = false;
  QOF_ASSIGN_OR_RETURN(std::vector<JournalRecord> records,
                       durable.ReadJournal(&repaired));
  std::cout << "journal: " << records.size() << " record(s)"
            << (repaired ? " + torn tail (repaired)" : "") << "\n";
  for (const JournalRecord& record : records) {
    const char* op = record.op == JournalOp::kAdd      ? "add"
                     : record.op == JournalOp::kUpdate ? "update"
                                                       : "remove";
    std::cout << "  gen " << record.generation << ": " << op << " "
              << record.name << " (" << record.text.size() << " bytes)\n";
  }

  auto state = LoadState(dir, policy);
  if (!state.ok()) {
    std::cout << "state: UNRECOVERABLE — " << state.status().ToString()
              << "\n";
    return Status::OK();
  }
  MaintainStats stats = (*state)->maintainer->stats((*state)->corpus);
  std::cout << "state: generation " << stats.generation << ", "
            << stats.live_documents << " live document(s), "
            << stats.tombstones << " tombstone(s), " << stats.dead_bytes
            << " dead byte(s)\n";
  // Only placeholders the journal did not replace or remove are stale.
  const Corpus& corpus = (*state)->corpus;
  for (DocId id : (*state)->synthetic) {
    if (!corpus.is_live(id)) continue;
    std::cout << "  stale on disk: " << corpus.document_name(id)
              << " (update or remove before compacting)\n";
  }
  if ((*state)->maintainer->NeedsCompaction(corpus)) {
    std::cout << "compaction due: run 'qof_index compact'\n";
  }
  return Status::OK();
}

}  // namespace
}  // namespace qof

int main(int argc, char** argv) {
  if (argc < 2) {
    qof::PrintUsage(std::cerr);
    return 1;
  }
  std::string command = argv[1];
  if (command == "--help" || command == "-h") {
    qof::PrintUsage(std::cout);
    return 0;
  }

  std::string dir;
  std::string schema_kind;
  qof::QueryOptions limits;
  qof::SyncPolicy policy = qof::SyncPolicy::kAlways;
  std::vector<std::string> args;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--index" && i + 1 < argc) {
      dir = argv[++i];
    } else if (arg == "--schema" && i + 1 < argc) {
      schema_kind = argv[++i];
    } else if (arg == "--timeout-ms" && i + 1 < argc) {
      limits.deadline_ms = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--max-bytes" && i + 1 < argc) {
      limits.max_bytes = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--sync-policy" && i + 1 < argc) {
      auto parsed = qof::SyncPolicyFromName(argv[++i]);
      if (!parsed.ok()) {
        std::cerr << parsed.status().ToString() << "\n";
        return 1;
      }
      policy = *parsed;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unrecognized option: " << arg << "\n";
      qof::PrintUsage(std::cerr);
      return 1;
    } else {
      args.push_back(arg);
    }
  }
  if (dir.empty()) {
    std::cerr << "missing --index DIR\n";
    qof::PrintUsage(std::cerr);
    return 1;
  }

  qof::Status status = qof::Status::OK();
  if (command == "build") {
    if (schema_kind.empty() || args.empty()) {
      std::cerr << "build wants --schema KIND and at least one file\n";
      return 1;
    }
    status = qof::RunBuild(dir, schema_kind, args, limits, policy);
  } else if (command == "add" || command == "update" ||
             command == "remove") {
    if (args.empty()) {
      std::cerr << command << " wants at least one file\n";
      return 1;
    }
    status = qof::RunMutate(dir, command, args, limits, policy);
  } else if (command == "compact") {
    status = qof::RunCompact(dir, policy);
  } else if (command == "inspect") {
    status = qof::RunInspect(dir, policy);
  } else {
    std::cerr << "unknown command: " << command << "\n";
    qof::PrintUsage(std::cerr);
    return 1;
  }

  if (!status.ok()) {
    std::cerr << "error: " << status.ToString() << "\n";
    // 3 = a governance limit tripped (deadline, byte budget); the state
    // on disk is untouched and the command can simply be retried with a
    // larger budget. 2 = the data itself is bad.
    if (status.IsDeadlineExceeded() || status.IsBudgetExhausted() ||
        status.IsCancelled()) {
      return 3;
    }
    return 2;
  }
  return 0;
}
