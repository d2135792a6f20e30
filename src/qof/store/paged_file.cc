#include "qof/store/paged_file.h"

#include <utility>

namespace qof {

Result<PagedFile> PagedFile::Open(const std::string& path,
                                  uint32_t page_size) {
  if (page_size < kMinPageSize) {
    return Status::InvalidArgument("paged store: page size " +
                                   std::to_string(page_size) +
                                   " is below the minimum");
  }
  auto file = DefaultVfs()->OpenRead(path);
  if (!file.ok()) {
    return Status::NotFound("paged store: cannot open '" + path + "'");
  }
  uint64_t size = (*file)->size();
  if (size == 0 || size % page_size != 0) {
    return Status::InvalidArgument(
        "paged store: '" + path + "' is " + std::to_string(size) +
        " bytes, not a whole number of " + std::to_string(page_size) +
        "-byte pages");
  }
  PagedFile out;
  out.path_ = path;
  out.file_ = std::move(*file);
  out.page_size_ = page_size;
  out.num_pages_ = static_cast<uint32_t>(size / page_size);
  return out;
}

Status PagedFile::ReadPage(uint32_t page_no, std::string* buf) const {
  if (page_no >= num_pages_) {
    return Status::InvalidArgument(
        "paged store: page " + std::to_string(page_no) +
        " is out of range (file has " + std::to_string(num_pages_) +
        " pages)");
  }
  Status status = file_->ReadAt(
      static_cast<uint64_t>(page_no) * page_size_, page_size_, buf);
  if (!status.ok()) {
    return Status::Internal("paged store: I/O error reading page " +
                            std::to_string(page_no) + " of '" + path_ +
                            "': " + status.message());
  }
  return Status::OK();
}

Status WriteFileBytes(const std::string& path, const std::string& bytes) {
  return AtomicWriteFile(DefaultVfs(), path, bytes);
}

Result<std::string> ReadFileBytes(const std::string& path) {
  auto bytes = VfsReadFile(DefaultVfs(), path);
  if (!bytes.ok() && bytes.status().IsNotFound()) {
    return Status::NotFound("cannot open '" + path + "'");
  }
  return bytes;
}

Result<std::string> ReadFilePrefix(const std::string& path, size_t n) {
  Vfs* vfs = DefaultVfs();
  auto file = vfs->OpenRead(path);
  if (!file.ok()) {
    return Status::NotFound("cannot open '" + path + "'");
  }
  if ((*file)->size() < n) {
    return Status::InvalidArgument("'" + path + "' is shorter than " +
                                   std::to_string(n) + " bytes");
  }
  std::string out;
  QOF_RETURN_IF_ERROR((*file)->ReadAt(0, n, &out));
  return out;
}

}  // namespace qof
