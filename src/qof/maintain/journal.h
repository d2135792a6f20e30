#ifndef QOF_MAINTAIN_JOURNAL_H_
#define QOF_MAINTAIN_JOURNAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "qof/maintain/maintainer.h"
#include "qof/store/vfs.h"
#include "qof/util/result.h"
#include "qof/util/status.h"

namespace qof {

/// The maintenance journal: an append-only log of document mutations.
/// Persisted next to an index store, it lets a session recover the
/// current corpus state as  base store + replay  instead of requiring a
/// full re-serialize after every mutation.
///
/// On-disk layout: an 8-byte magic, then one frame per record —
///   u32 payload_size | u64 fnv1a(payload) | payload
/// where the payload is  u64 generation | u8 op | name | text  (strings
/// as u32 length + bytes). Appends are a single write of a frame; a crash
/// mid-append leaves a torn tail that ParseJournal detects (by size or
/// checksum) and discards rather than failing — everything before the
/// tear replays normally.

inline constexpr std::string_view kJournalMagic = "QOFJRNL1";

enum class JournalOp : uint8_t {
  kAdd = 1,
  kUpdate = 2,
  kRemove = 3,
};

struct JournalRecord {
  /// The generation the mutation produced (maintainer generation *after*
  /// applying it). Records must be consecutive.
  uint64_t generation = 0;
  JournalOp op = JournalOp::kAdd;
  std::string name;
  std::string text;  // empty for kRemove

  friend bool operator==(const JournalRecord& a, const JournalRecord& b) {
    return a.generation == b.generation && a.op == b.op &&
           a.name == b.name && a.text == b.text;
  }
};

/// The magic bytes a fresh journal file starts with.
std::string JournalHeader();

/// Encodes one record as a self-checking frame (appendable to a journal).
std::string EncodeJournalRecord(const JournalRecord& record);

struct ParsedJournal {
  std::vector<JournalRecord> records;
  /// True when a torn/corrupt tail was discarded (crash mid-append).
  bool truncated_tail = false;
  /// Offset just past the last intact frame — the safe truncation point
  /// for repairing the file in place.
  size_t valid_bytes = 0;
};

/// Parses a journal byte buffer. A bad magic is an error (wrong file); a
/// torn or checksum-failing tail is NOT — the intact prefix is returned
/// with `truncated_tail` set.
Result<ParsedJournal> ParseJournal(std::string_view data);

/// Replays records through the maintainer in order. Each record's
/// generation must be exactly maintainer->generation() + 1 — a gap means
/// store and journal are from different histories. Callers replaying onto
/// a store-restored corpus should disable auto-compaction first (restored
/// document bytes are placeholders; see MarkDocumentSynthetic).
/// Mutations are atomic, so a replay aborted mid-way (error or injected
/// "journal.replay" fault) leaves the maintainer at the state of the last
/// successfully replayed record.
Status ReplayJournal(const std::vector<JournalRecord>& records,
                     IndexMaintainer* maintainer);

/// Appends one encoded frame to the journal file at `path` (creating it
/// with the magic header when absent), through the DefaultVfs(). With
/// SyncPolicy::kAlways (the default) the frame is fsync'd before the call
/// returns — an acknowledged append survives power loss; kBatch and kNone
/// leave syncing to the caller / the OS. I/O failures are surfaced as
/// typed errors and the file is truncated back to its previous size, so
/// the intact tail before a failed append always survives. The
/// "journal.append" fault site simulates a crash mid-frame: an injected
/// fault writes only a *prefix* of the frame and then fails — exactly the
/// torn tail ParseJournal is built to detect and discard.
Status AppendJournalRecordToFile(const std::string& path,
                                 const JournalRecord& record,
                                 SyncPolicy policy = SyncPolicy::kAlways);

}  // namespace qof

#endif  // QOF_MAINTAIN_JOURNAL_H_
