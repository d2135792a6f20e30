#include "qof/maintain/journal.h"

#include <cstring>

#include "qof/exec/fault_injector.h"
#include "qof/util/wire.h"

namespace qof {
namespace {

Result<JournalRecord> DecodeRecordPayload(std::string_view payload) {
  WireReader reader(payload, "journal record");
  JournalRecord record;
  QOF_ASSIGN_OR_RETURN(record.generation, reader.U64());
  QOF_ASSIGN_OR_RETURN(uint8_t op, reader.U8());
  if (op < static_cast<uint8_t>(JournalOp::kAdd) ||
      op > static_cast<uint8_t>(JournalOp::kRemove)) {
    return Status::InvalidArgument("journal record has unknown op " +
                                   std::to_string(op));
  }
  record.op = static_cast<JournalOp>(op);
  QOF_ASSIGN_OR_RETURN(record.name, reader.String());
  QOF_ASSIGN_OR_RETURN(record.text, reader.String());
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in journal record");
  }
  return record;
}

}  // namespace

std::string JournalHeader() { return std::string(kJournalMagic); }

std::string EncodeJournalRecord(const JournalRecord& record) {
  std::string payload;
  PutU64(record.generation, &payload);
  PutU8(static_cast<uint8_t>(record.op), &payload);
  PutString(record.name, &payload);
  PutString(record.text, &payload);

  std::string frame;
  PutU32(static_cast<uint32_t>(payload.size()), &frame);
  PutU64(Fnv1a(payload), &frame);
  frame.append(payload);
  return frame;
}

Result<ParsedJournal> ParseJournal(std::string_view data) {
  if (data.size() < kJournalMagic.size() ||
      std::memcmp(data.data(), kJournalMagic.data(),
                  kJournalMagic.size()) != 0) {
    return Status::InvalidArgument("not a qof journal (bad magic)");
  }
  ParsedJournal out;
  out.valid_bytes = kJournalMagic.size();
  size_t pos = kJournalMagic.size();
  while (pos < data.size()) {
    // Anything that fails from here on is a torn append: keep the intact
    // prefix, flag the tail.
    WireReader header(data.substr(pos), "journal frame");
    auto size = header.U32();
    auto checksum = header.U64();
    if (!size.ok() || !checksum.ok() ||
        header.Remaining() < static_cast<size_t>(*size)) {
      out.truncated_tail = true;
      return out;
    }
    std::string_view payload = data.substr(pos + 12, *size);
    if (Fnv1a(payload) != *checksum) {
      out.truncated_tail = true;
      return out;
    }
    auto record = DecodeRecordPayload(payload);
    if (!record.ok()) {
      out.truncated_tail = true;
      return out;
    }
    out.records.push_back(std::move(*record));
    pos += 12 + *size;
    out.valid_bytes = pos;
  }
  return out;
}

Status ReplayJournal(const std::vector<JournalRecord>& records,
                     IndexMaintainer* maintainer) {
  for (const JournalRecord& record : records) {
    QOF_RETURN_IF_ERROR(MaybeInjectFault(fault_site::kJournalReplay));
    if (record.generation != maintainer->generation() + 1) {
      return Status::InvalidArgument(
          "journal generation " + std::to_string(record.generation) +
          " does not continue from index generation " +
          std::to_string(maintainer->generation()) +
          " — store and journal are from different histories");
    }
    switch (record.op) {
      case JournalOp::kAdd: {
        auto id = maintainer->AddDocument(record.name, record.text);
        if (!id.ok()) return id.status();
        break;
      }
      case JournalOp::kUpdate: {
        auto id = maintainer->UpdateDocument(record.name, record.text);
        if (!id.ok()) return id.status();
        break;
      }
      case JournalOp::kRemove:
        QOF_RETURN_IF_ERROR(maintainer->RemoveDocument(record.name));
        break;
    }
  }
  return Status::OK();
}

Status AppendJournalRecordToFile(const std::string& path,
                                 const JournalRecord& record,
                                 SyncPolicy policy) {
  std::string frame = EncodeJournalRecord(record);
  Status fault = MaybeInjectFault(fault_site::kJournalAppend);
  Vfs* vfs = DefaultVfs();
  const bool fresh = !vfs->Exists(path);
  uint64_t old_size = 0;
  if (!fresh) {
    auto probe = vfs->OpenRead(path);
    if (!probe.ok()) {
      return Status::Internal("cannot open journal for append: " + path +
                              ": " + probe.status().message());
    }
    old_size = (*probe)->size();
  }
  auto out = vfs->OpenWrite(path, /*truncate=*/false);
  if (!out.ok()) {
    return Status::Internal("cannot open journal for append: " + path +
                            ": " + out.status().message());
  }
  if (!fault.ok()) {
    // Simulated crash mid-append: the magic (when fresh) and half the
    // frame reach the file, then the writer dies. ParseJournal must
    // treat the result as a torn tail.
    if (fresh) (*out)->Append(JournalHeader());
    (*out)->Append(frame.substr(0, frame.size() / 2));
    (*out)->Close();
    return fault;
  }
  // A failed write may leave a partial frame behind; truncating back to
  // the pre-append size keeps the intact tail readable without even
  // needing ParseJournal's torn-tail discard.
  auto FailAndRestore = [&](const char* what, const Status& cause) {
    (*out)->Close();
    if (fresh) {
      vfs->Remove(path);
    } else {
      vfs->Truncate(path, old_size);
    }
    return Status::Internal("journal append failed (" + std::string(what) +
                            ") on '" + path + "': " + cause.message());
  };
  if (fresh) {
    Status status = (*out)->Append(JournalHeader());
    if (!status.ok()) return FailAndRestore("header write", status);
  }
  Status status = (*out)->Append(frame);
  if (!status.ok()) return FailAndRestore("frame write", status);
  if (policy == SyncPolicy::kAlways) {
    status = (*out)->Sync();
    if (!status.ok()) return FailAndRestore("fsync", status);
  }
  status = (*out)->Close();
  if (!status.ok()) return FailAndRestore("close", status);
  // A freshly created journal's directory entry is volatile until the
  // parent is sync'd; kAlways promises the acknowledged record survives
  // power loss, so pay the dirsync once at creation.
  if (fresh && policy == SyncPolicy::kAlways) {
    status = vfs->SyncDir(ParentDir(path));
    if (!status.ok()) {
      return Status::Internal("journal append failed (dirsync) on '" +
                              path + "': " + status.message());
    }
  }
  return Status::OK();
}

}  // namespace qof
