#ifndef QOF_MAINTAIN_DURABLE_DIR_H_
#define QOF_MAINTAIN_DURABLE_DIR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "qof/maintain/journal.h"
#include "qof/store/manifest.h"
#include "qof/store/vfs.h"
#include "qof/util/result.h"
#include "qof/util/status.h"

namespace qof {

/// A crash-consistent index directory: the layout the qof_index CLI
/// keeps, factored here so tests and the crash-sweep fuzzer leg can
/// drive it against a FaultVfs.
///
///   <dir>/MANIFEST            checksummed superblock (store/manifest.h)
///   <dir>/store-<G>.qofstore  the indexes at generation G, as a paged
///                             QOFSTOR1 store (engine/index_io.h)
///   <dir>/journal-<G>.qofj    mutations applied after store generation G
///   <dir>/schema              schema text (written once at create)
///
/// The directory treats the store as opaque bytes. Invariant: the
/// MANIFEST is only ever replaced atomically, and only after the store
/// and journal it names are durable. Recovery therefore trusts the
/// manifest unconditionally: open store-G, replay journal-G's intact
/// frames (the torn tail a crash can leave is discarded), done. Files
/// the manifest does not name are strays from an interrupted checkpoint
/// and are garbage-collected.
///
/// The checkpoint protocol (Checkpoint()):
///   1. write store-<G'> atomically (tmp+fsync+rename+dirsync)
///   2. create an empty journal-<G'> (synced, dirsync'd)
///   3. publish MANIFEST{G', store-<G'>, journal-<G'>} atomically
///   4. remove the old store/journal, dirsync
/// A crash before 3 leaves the old manifest pointing at intact old
/// files; a crash after 3 leaves the new pair committed and at worst
/// stray old files. Skipping any directory sync (the planted
/// skip-dir-sync bug) breaks exactly this old-or-new guarantee.
class DurableIndexDir {
 public:
  struct Options {
    SyncPolicy sync_policy = SyncPolicy::kAlways;
  };

  /// Creates `dir` (if needed) and publishes generation `generation`
  /// with `store` as its starting store image and a fresh empty journal.
  /// (Overloads rather than a default argument: a nested class with
  /// member initializers cannot be default-constructed in a default
  /// argument before the enclosing class is complete.)
  static Result<DurableIndexDir> Create(Vfs* vfs, const std::string& dir,
                                        const std::string& store,
                                        uint64_t generation,
                                        const Options& options);
  static Result<DurableIndexDir> Create(Vfs* vfs, const std::string& dir,
                                        const std::string& store,
                                        uint64_t generation);

  /// Opens an existing directory: reads + verifies the MANIFEST and
  /// garbage-collects strays from interrupted checkpoints. Fails with
  /// kDataLoss when the manifest is damaged or missing, or the store it
  /// names is missing (a damaged store fails LoadIndexStore).
  static Result<DurableIndexDir> Open(Vfs* vfs, const std::string& dir,
                                      const Options& options);
  static Result<DurableIndexDir> Open(Vfs* vfs, const std::string& dir);

  /// Journal records that continue the store: the intact frames of
  /// journal-<G>, with any torn tail repaired in place (truncated back
  /// to the last intact frame). `repaired`, when non-null, reports
  /// whether a torn tail was discarded.
  Result<std::vector<JournalRecord>> ReadJournal(
      bool* repaired = nullptr) const;

  /// Appends one mutation record per the sync policy. With kAlways the
  /// record is durable when the call returns.
  Status Append(const JournalRecord& record);

  /// Fsyncs the journal — the kBatch boundary. No-op under kAlways
  /// (already synced) and kNone (caller opted out of durability).
  Status SyncJournal();

  /// Runs the checkpoint protocol: publishes the `store` image as
  /// generation `generation` with a fresh empty journal, then removes
  /// the old pair.
  Status Checkpoint(const std::string& store, uint64_t generation);

  uint64_t generation() const { return manifest_.generation; }
  const Manifest& manifest() const { return manifest_; }
  /// The store the manifest names (open it with LoadIndexStore).
  std::string store_path() const {
    return dir_ + "/" + manifest_.store_name;
  }
  std::string journal_path() const {
    return dir_ + "/" + manifest_.journal_name;
  }
  std::string manifest_path() const { return dir_ + "/MANIFEST"; }

 private:
  DurableIndexDir(Vfs* vfs, std::string dir, Options options)
      : vfs_(vfs), dir_(std::move(dir)), options_(options) {}

  Status RemoveStraysLocked();

  Vfs* vfs_ = nullptr;
  std::string dir_;
  Options options_;
  Manifest manifest_;
};

}  // namespace qof

#endif  // QOF_MAINTAIN_DURABLE_DIR_H_
