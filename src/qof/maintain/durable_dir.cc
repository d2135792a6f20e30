#include "qof/maintain/durable_dir.h"

#include <utility>

namespace qof {
namespace {

std::string StoreName(uint64_t generation) {
  return "store-" + std::to_string(generation) + ".qofstore";
}

std::string JournalName(uint64_t generation) {
  return "journal-" + std::to_string(generation) + ".qofj";
}

bool StartsWith(const std::string& s, std::string_view prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

bool EndsWith(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Creates an empty journal (just the magic) at `path`, fully durable.
/// Atomic-replace rather than truncate-in-place: re-checkpointing a
/// generation reuses the journal name, and a crash between an in-place
/// truncate and the rewrite would leave a magicless journal behind a
/// manifest that references it.
Status CreateEmptyJournal(Vfs* vfs, const std::string& path) {
  return AtomicWriteFile(vfs, path, JournalHeader());
}

}  // namespace

Result<DurableIndexDir> DurableIndexDir::Create(Vfs* vfs,
                                                const std::string& dir,
                                                const std::string& store,
                                                uint64_t generation,
                                                const Options& options) {
  QOF_RETURN_IF_ERROR(vfs->CreateDir(dir));
  DurableIndexDir out(vfs, dir, options);
  QOF_RETURN_IF_ERROR(out.Checkpoint(store, generation));
  return out;
}

Result<DurableIndexDir> DurableIndexDir::Create(Vfs* vfs,
                                                const std::string& dir,
                                                const std::string& store,
                                                uint64_t generation) {
  return Create(vfs, dir, store, generation, Options());
}

Result<DurableIndexDir> DurableIndexDir::Open(Vfs* vfs,
                                              const std::string& dir) {
  return Open(vfs, dir, Options());
}

Result<DurableIndexDir> DurableIndexDir::Open(Vfs* vfs,
                                              const std::string& dir,
                                              const Options& options) {
  DurableIndexDir out(vfs, dir, options);
  QOF_ASSIGN_OR_RETURN(out.manifest_,
                       ReadManifest(vfs, out.manifest_path()));
  if (!vfs->Exists(out.store_path())) {
    return Status::DataLoss(out.manifest_path() + " names store '" +
                            out.manifest_.store_name +
                            "' which does not exist");
  }
  QOF_RETURN_IF_ERROR(out.RemoveStraysLocked());
  return out;
}

Status DurableIndexDir::RemoveStraysLocked() {
  auto entries = vfs_->ListDir(dir_);
  if (!entries.ok()) return entries.status();
  bool removed = false;
  for (const std::string& name : *entries) {
    if (name == "MANIFEST" || name == "schema" ||
        name == manifest_.store_name || name == manifest_.journal_name) {
      continue;
    }
    // Only artifacts of an interrupted checkpoint are ours to reap;
    // anything else in the directory is left alone.
    if (StartsWith(name, "store-") || StartsWith(name, "journal-") ||
        EndsWith(name, ".tmp")) {
      Status status = vfs_->Remove(dir_ + "/" + name);
      if (!status.ok() && !status.IsNotFound()) return status;
      removed = true;
    }
  }
  if (removed) QOF_RETURN_IF_ERROR(vfs_->SyncDir(dir_));
  return Status::OK();
}

Result<std::vector<JournalRecord>> DurableIndexDir::ReadJournal(
    bool* repaired) const {
  if (repaired != nullptr) *repaired = false;
  const std::string path = journal_path();
  if (manifest_.journal_name.empty() || !vfs_->Exists(path)) {
    return Status::DataLoss("journal '" + path +
                            "' named by the manifest does not exist");
  }
  QOF_ASSIGN_OR_RETURN(std::string bytes, VfsReadFile(vfs_, path));
  QOF_ASSIGN_OR_RETURN(ParsedJournal parsed, ParseJournal(bytes));
  if (parsed.truncated_tail) {
    // Crash mid-append: repair in place so the next append continues
    // from an intact frame boundary instead of extending garbage.
    QOF_RETURN_IF_ERROR(vfs_->Truncate(path, parsed.valid_bytes));
    if (repaired != nullptr) *repaired = true;
  }
  return parsed.records;
}

Status DurableIndexDir::Append(const JournalRecord& record) {
  return AppendJournalRecordToFile(journal_path(), record,
                                   options_.sync_policy);
}

Status DurableIndexDir::SyncJournal() {
  if (options_.sync_policy != SyncPolicy::kBatch) return Status::OK();
  auto out = vfs_->OpenWrite(journal_path(), /*truncate=*/false);
  if (!out.ok()) return out.status();
  Status status = (*out)->Sync();
  Status closed = (*out)->Close();
  return status.ok() ? closed : status;
}

Status DurableIndexDir::Checkpoint(const std::string& store,
                                   uint64_t generation) {
  Manifest next;
  next.generation = generation;
  next.store_name = StoreName(generation);
  next.journal_name = JournalName(generation);
  next.journal_offset = kJournalMagic.size();

  // 1 + 2: make the new pair durable under names the current manifest
  // does not reference — a crash here leaves strays, never damage.
  QOF_RETURN_IF_ERROR(
      AtomicWriteFile(vfs_, dir_ + "/" + next.store_name, store));
  QOF_RETURN_IF_ERROR(
      CreateEmptyJournal(vfs_, dir_ + "/" + next.journal_name));

  // 3: the commit point.
  QOF_RETURN_IF_ERROR(WriteManifest(vfs_, manifest_path(), next));

  // 4: reap the superseded pair (absent on first create; same-name when
  // re-checkpointing a generation in place).
  Manifest old = std::exchange(manifest_, next);
  bool removed = false;
  for (const std::string& name : {old.store_name, old.journal_name}) {
    if (name.empty() || name == next.store_name ||
        name == next.journal_name) {
      continue;
    }
    Status status = vfs_->Remove(dir_ + "/" + name);
    if (!status.ok() && !status.IsNotFound()) return status;
    removed = true;
  }
  if (removed) QOF_RETURN_IF_ERROR(vfs_->SyncDir(dir_));
  return Status::OK();
}

}  // namespace qof
