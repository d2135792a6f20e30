#include "qof/store/manifest.h"

#include <cstring>

#include "qof/util/wire.h"

namespace qof {

std::string EncodeManifest(const Manifest& manifest) {
  std::string payload;
  PutU64(manifest.generation, &payload);
  PutString(manifest.store_name, &payload);
  PutString(manifest.journal_name, &payload);
  PutU64(manifest.journal_offset, &payload);

  std::string out(kManifestMagic);
  out.append(payload);
  PutU64(Fnv1a(payload), &out);
  return out;
}

Result<Manifest> DecodeManifest(std::string_view bytes) {
  if (bytes.size() < kManifestMagic.size() ||
      std::memcmp(bytes.data(), kManifestMagic.data(),
                  kManifestMagic.size()) != 0) {
    return Status::InvalidArgument("not a qof manifest (bad magic)");
  }
  std::string_view rest = bytes.substr(kManifestMagic.size());
  if (rest.size() < 8) {
    return Status::DataLoss("manifest is truncated");
  }
  std::string_view payload = rest.substr(0, rest.size() - 8);
  WireReader tail(rest.substr(rest.size() - 8), "manifest checksum");
  auto checksum = tail.U64();
  if (!checksum.ok() || Fnv1a(payload) != *checksum) {
    return Status::DataLoss("manifest failed its checksum");
  }
  WireReader reader(payload, "manifest");
  Manifest manifest;
  auto ReadInto = [&]() -> Status {
    QOF_ASSIGN_OR_RETURN(manifest.generation, reader.U64());
    QOF_ASSIGN_OR_RETURN(manifest.store_name, reader.String());
    QOF_ASSIGN_OR_RETURN(manifest.journal_name, reader.String());
    QOF_ASSIGN_OR_RETURN(manifest.journal_offset, reader.U64());
    if (!reader.AtEnd()) {
      return Status::InvalidArgument("trailing bytes in manifest");
    }
    return Status::OK();
  };
  Status status = ReadInto();
  if (!status.ok()) {
    // The checksum verified, so a malformed payload is a producer bug,
    // not disk damage — keep the original code.
    return status;
  }
  return manifest;
}

Result<Manifest> ReadManifest(Vfs* vfs, const std::string& path) {
  QOF_ASSIGN_OR_RETURN(std::string bytes, VfsReadFile(vfs, path));
  auto manifest = DecodeManifest(bytes);
  if (!manifest.ok()) {
    return Status(manifest.status().code(),
                  path + ": " + manifest.status().message());
  }
  return manifest;
}

Status WriteManifest(Vfs* vfs, const std::string& path,
                     const Manifest& manifest) {
  return AtomicWriteFile(vfs, path, EncodeManifest(manifest));
}

}  // namespace qof
