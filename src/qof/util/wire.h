#ifndef QOF_UTIL_WIRE_H_
#define QOF_UTIL_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "qof/util/result.h"
#include "qof/util/status.h"

namespace qof {

/// Little-endian wire primitives shared by every on-disk format in the
/// system (the paged index store, the maintenance journal, the manifest).
/// Strings are encoded as u32 length + raw bytes.

void PutU64(uint64_t v, std::string* out);
void PutU32(uint32_t v, std::string* out);
void PutU8(uint8_t v, std::string* out);
void PutString(std::string_view s, std::string* out);

/// LEB128 variable-length encoding: 7 value bits per byte, high bit set on
/// every byte but the last. Small values (delta-encoded postings, region
/// lengths) take 1–2 bytes instead of 8. Used by the paged store's
/// block-compressed posting format.
void PutVarint(uint64_t v, std::string* out);

/// FNV-1a over arbitrary bytes. Used as the document fingerprint in index
/// stores, as the store's per-page checksum and as the per-record
/// checksum in the journal.
uint64_t Fnv1a(std::string_view bytes);

/// Sequential decoder over a byte buffer. Every accessor fails with
/// InvalidArgument (mentioning `what` and the offset) instead of reading
/// past the end.
class WireReader {
 public:
  /// `what` names the container in error messages ("index spec",
  /// "journal record", ...).
  WireReader(std::string_view data, std::string what)
      : data_(data), what_(std::move(what)) {}

  Result<uint64_t> U64();
  Result<uint32_t> U32();
  Result<uint8_t> U8();
  Result<std::string> String();
  /// Decodes a PutVarint value. Rejects encodings longer than 10 bytes
  /// (the maximum for 64 bits) so corrupt continuation bits cannot loop.
  Result<uint64_t> Varint();

  bool AtEnd() const { return pos_ == data_.size(); }
  size_t Remaining() const { return data_.size() - pos_; }
  size_t Position() const { return pos_; }

  /// Rejects a claimed element count that the remaining bytes cannot
  /// possibly hold. Counts gate reserve() calls, so a corrupt count
  /// would otherwise turn into a multi-gigabyte allocation before the
  /// per-element reads ever notice the truncation.
  Status CheckCount(uint64_t count, size_t min_bytes_each);

 private:
  Status Truncated() const;

  std::string_view data_;
  std::string what_;
  size_t pos_ = 0;
};

}  // namespace qof

#endif  // QOF_UTIL_WIRE_H_
