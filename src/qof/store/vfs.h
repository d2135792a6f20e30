#ifndef QOF_STORE_VFS_H_
#define QOF_STORE_VFS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "qof/util/result.h"
#include "qof/util/status.h"

namespace qof {

/// When journal appends reach the platter (see DurableIndexDir and the
/// qof_index CLI's --sync-policy flag):
///   kAlways — fsync after every appended frame; an acknowledged mutation
///             survives power loss (the durability the manifest protocol
///             assumes).
///   kBatch  — fsync once per batch boundary (explicit Sync calls);
///             a crash can lose the unsynced suffix but never tears
///             frames that were already acknowledged durable.
///   kNone   — never fsync; fastest, survives process crashes (the OS
///             flushes eventually) but not power loss.
enum class SyncPolicy {
  kAlways = 0,
  kBatch = 1,
  kNone = 2,
};

/// "always" / "batch" / "none".
std::string_view SyncPolicyName(SyncPolicy policy);
Result<SyncPolicy> SyncPolicyFromName(std::string_view name);

/// Read-only random access to one file. Implementations must be safe for
/// concurrent ReadAt calls (the buffer pool fetches under its own lock,
/// but tools read the same PagedFile directly).
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;

  virtual uint64_t size() const = 0;

  /// Reads exactly `n` bytes at `offset` into `buf` (resized to `n`).
  /// Reading past EOF or hitting an I/O error is an error, never a short
  /// read.
  virtual Status ReadAt(uint64_t offset, size_t n, std::string* buf) const = 0;
};

/// Sequential append-only writer. Append buffers into the OS (or the
/// fault VFS's volatile image); Sync makes everything appended so far
/// durable. Close without Sync leaves the data at the OS's mercy — the
/// distinction FaultVfs's power cut makes observable.
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  virtual Status Append(std::string_view data) = 0;
  /// fsync: everything appended so far survives power loss.
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
};

/// The storage substrate every on-disk artifact goes through: the paged
/// store, journals, manifests, and the CLIs all do their
/// I/O via a Vfs so tests and the crash-sweep fuzzer leg can substitute
/// FaultVfs (fault_vfs.h) and make every failure injectable.
class Vfs {
 public:
  virtual ~Vfs() = default;

  virtual Result<std::unique_ptr<RandomAccessFile>> OpenRead(
      const std::string& path) = 0;

  /// Opens `path` for writing. `truncate` replaces any existing content;
  /// otherwise the file is created if absent and appended to. Creation
  /// makes the directory entry *volatile* until SyncDir on the parent —
  /// the gap the planted skip-dir-sync bug widens into data loss.
  virtual Result<std::unique_ptr<WritableFile>> OpenWrite(
      const std::string& path, bool truncate) = 0;

  virtual bool Exists(const std::string& path) = 0;

  /// Atomically replaces `to` with `from` (POSIX rename semantics). The
  /// rename itself is durable only after SyncDir on the parent.
  virtual Status Rename(const std::string& from, const std::string& to) = 0;

  virtual Status Remove(const std::string& path) = 0;

  /// Truncates `path` to `size` bytes — journal torn-tail repair.
  virtual Status Truncate(const std::string& path, uint64_t size) = 0;

  /// fsync on the directory: creations, renames, and removals inside it
  /// become durable.
  virtual Status SyncDir(const std::string& dir) = 0;

  /// Entry names (not full paths) in `dir`, sorted.
  virtual Result<std::vector<std::string>> ListDir(const std::string& dir) = 0;

  /// Creates `dir` (OK if it already exists).
  virtual Status CreateDir(const std::string& dir) = 0;
};

/// POSIX-backed Vfs: pread for reads, write+fsync for durability, rename
/// for atomic replace, fsync-of-directory-fd for entry durability.
class RealVfs : public Vfs {
 public:
  Result<std::unique_ptr<RandomAccessFile>> OpenRead(
      const std::string& path) override;
  Result<std::unique_ptr<WritableFile>> OpenWrite(const std::string& path,
                                                  bool truncate) override;
  bool Exists(const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Remove(const std::string& path) override;
  Status Truncate(const std::string& path, uint64_t size) override;
  Status SyncDir(const std::string& dir) override;
  Result<std::vector<std::string>> ListDir(const std::string& dir) override;
  Status CreateDir(const std::string& dir) override;
};

/// The process-wide Vfs all storage code routes through: RealVfs unless a
/// ScopedVfs override is installed. Lock-free read, like
/// FaultInjector::Current().
Vfs* DefaultVfs();

/// Installs `vfs` as the DefaultVfs for the current scope and restores
/// the previous one on destruction. Not reentrant across threads: tests
/// and the fuzzer install one override per case.
class ScopedVfs {
 public:
  explicit ScopedVfs(Vfs* vfs);
  ~ScopedVfs();
  ScopedVfs(const ScopedVfs&) = delete;
  ScopedVfs& operator=(const ScopedVfs&) = delete;

 private:
  Vfs* previous_;
};

/// The directory part of `path` ("." when there is no slash) — the
/// parent that must be SyncDir'd for `path`'s entry to be durable.
std::string ParentDir(const std::string& path);

/// Reads the whole of `path` through `vfs`.
Result<std::string> VfsReadFile(Vfs* vfs, const std::string& path);

/// The durable-write protocol every published artifact uses: write
/// `bytes` to `path`.tmp, fsync, rename over `path`, fsync the parent
/// directory. A crash at any step leaves either the old file or the new
/// one at `path` — never a partial image. The temp file is removed on
/// failure (best effort).
Status AtomicWriteFile(Vfs* vfs, const std::string& path,
                       std::string_view bytes);

}  // namespace qof

#endif  // QOF_STORE_VFS_H_
