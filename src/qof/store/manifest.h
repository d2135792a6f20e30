#ifndef QOF_STORE_MANIFEST_H_
#define QOF_STORE_MANIFEST_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "qof/store/vfs.h"
#include "qof/util/result.h"
#include "qof/util/status.h"

namespace qof {

/// The durability superblock: one tiny checksummed record naming the
/// (store generation, journal) pair recovery should trust. Written
/// atomically (tmp+fsync+rename+dirsync) *after* the artifacts it points
/// at are durable, so a reader that finds manifest generation G knows
/// store-G and journal-G both exist and verify — the commit point of the
/// DurableIndexDir checkpoint protocol (see qof/maintain/durable_dir.h).
///
/// On-disk layout: 8-byte magic "QOFMANI1", then
///   u64 generation | string store_name | string journal_name |
///   u64 journal_offset
/// followed by u64 fnv1a over that payload. A manifest that fails its
/// checksum is kDataLoss, never a silent fallback.

inline constexpr std::string_view kManifestMagic = "QOFMANI1";

struct Manifest {
  /// Generation of the index store the manifest points at.
  uint64_t generation = 0;
  /// File name (relative to the manifest's directory) of the index store.
  std::string store_name;
  /// File name of the journal that continues the store, empty if none.
  std::string journal_name;
  /// Bytes of the journal known durable at the last sync acknowledgment
  /// (recovery may find more — unsynced appends that survived — or less
  /// after a torn tail; both are within the contract).
  uint64_t journal_offset = 0;

  friend bool operator==(const Manifest& a, const Manifest& b) {
    return a.generation == b.generation && a.store_name == b.store_name &&
           a.journal_name == b.journal_name &&
           a.journal_offset == b.journal_offset;
  }
};

/// Serializes a manifest (magic + payload + checksum).
std::string EncodeManifest(const Manifest& manifest);

/// Parses manifest bytes. Bad magic is kInvalidArgument (wrong file);
/// a checksum mismatch or truncation is kDataLoss (right file, damaged).
Result<Manifest> DecodeManifest(std::string_view bytes);

/// Reads and verifies the manifest at `path` through `vfs`.
Result<Manifest> ReadManifest(Vfs* vfs, const std::string& path);

/// Atomically publishes `manifest` at `path` (tmp+fsync+rename+dirsync).
Status WriteManifest(Vfs* vfs, const std::string& path,
                     const Manifest& manifest);

}  // namespace qof

#endif  // QOF_STORE_MANIFEST_H_
