// Paged-store utility: inspects "QOFSTOR1" files (page census, fill
// factors, compression ratio, full checksum verification), converts
// serialized index blobs (see src/qof/engine/index_io.h) into the paged
// format without needing the original files — the blob's document table
// rides along, so a store produced here is byte-identical to one the
// engine saves from the same indexes (SaveStore) — and audits/salvages
// damaged stores (`scrub` names the index instances and documents a
// damaged page touches; `repair` rebuilds the store from its surviving
// streams, quarantining the damaged original).
//
// Exit codes: 0 = success, 1 = usage error, 2 = data error (unreadable
// file, damaged pages, unconvertible blob).

#include <cstdint>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "qof/engine/index_io.h"
#include "qof/store/page.h"
#include "qof/store/paged_file.h"
#include "qof/store/scrub.h"
#include "qof/store/store_format.h"
#include "qof/store/store_writer.h"
#include "qof/util/result.h"
#include "qof/util/wire.h"

namespace qof {
namespace {

void PrintUsage(std::ostream& out) {
  out << "usage: qof_store <command> [args]\n"
         "  inspect STORE                 page census, section layout, "
         "fill\n"
         "                                factors, compression ratio, and "
         "a\n"
         "                                checksum pass over every page\n"
         "  convert BLOB STORE            rewrite a v2/v3 index blob "
         "(.qofidx)\n"
         "                                as a paged store file\n"
         "  scrub STORE                   audit every page; map damage "
         "to\n"
         "                                sections, index instances and "
         "the\n"
         "                                documents they cover\n"
         "  repair STORE                  rebuild a damaged store from "
         "its\n"
         "                                surviving streams (original "
         "kept\n"
         "                                as STORE.quarantined)\n"
         "options:\n"
         "  --page-size N    store page size for convert (default "
      << kDefaultPageSize
      << ",\n"
         "                   multiple of "
      << kMinStorePageSize
      << ")\n"
         "exit codes: 0 ok, 1 usage, 2 data error\n";
}

const char* SectionName(StoreSection s) {
  switch (s) {
    case StoreSection::kSpec: return "spec";
    case StoreSection::kDocTable: return "doc-table";
    case StoreSection::kRegionFence: return "region-fence";
    case StoreSection::kRegionDict: return "region-dict";
    case StoreSection::kWordFence: return "word-fence";
    case StoreSection::kWordDict: return "word-dict";
    case StoreSection::kPostings: return "postings";
  }
  return "unknown";
}

std::string Percent(double fraction) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(1) << fraction * 100.0 << "%";
  return out.str();
}

Status RunInspect(const std::string& path) {
  // Bootstrap the meta page from the file's first 256 bytes — the true
  // page size is inside it.
  QOF_ASSIGN_OR_RETURN(std::string head,
                       ReadFilePrefix(path, kMinStorePageSize));
  QOF_ASSIGN_OR_RETURN(PageHeader meta_header,
                       ParsePage(head, kMinStorePageSize, 0));
  if (meta_header.type != PageType::kMeta) {
    return Status::InvalidArgument(path + ": page 0 is not a meta page");
  }
  QOF_ASSIGN_OR_RETURN(
      StoreMeta meta,
      DecodeStoreMeta(std::string_view(head).substr(
          kPageHeaderSize, meta_header.payload_len)));

  QOF_ASSIGN_OR_RETURN(PagedFile file, PagedFile::Open(path, meta.page_size));
  std::cout << path << ": " << file.num_pages() << " pages of "
            << meta.page_size << " bytes (" << file.file_bytes()
            << " bytes), generation " << meta.generation << "\n"
            << "  " << meta.doc_count << " document(s), "
            << meta.region_names << " region name(s) / "
            << meta.total_regions << " region(s), " << meta.distinct_words
            << " word(s) / " << meta.total_postings << " posting(s)\n";

  // Section layout with per-section fill: stored stream bytes against
  // the payload capacity of the pages the section occupies.
  const uint32_t capacity = PagePayloadCapacity(meta.page_size);
  std::cout << "sections:\n";
  for (int i = 0; i < kNumStoreSections; ++i) {
    const SectionInfo& s = meta.sections[i];
    std::cout << "  " << std::left << std::setw(13)
              << SectionName(static_cast<StoreSection>(i)) << std::right
              << " pages " << std::setw(5) << s.first_page << " +"
              << std::setw(4) << s.num_pages << "  " << std::setw(9)
              << s.byte_len << " bytes";
    if (s.num_pages > 0) {
      std::cout << "  fill "
                << Percent(static_cast<double>(s.byte_len) /
                           (static_cast<double>(s.num_pages) * capacity));
    }
    std::cout << "\n";
  }
  const SectionInfo& postings = meta.section(StoreSection::kPostings);
  if (postings.byte_len > 0 && meta.body_bytes > 0) {
    std::ostringstream ratio;
    ratio << std::fixed << std::setprecision(2)
          << static_cast<double>(meta.body_bytes) / postings.byte_len;
    std::cout << "postings compression: " << meta.body_bytes
              << " uncompressed -> " << postings.byte_len << " stored ("
              << ratio.str() << "x)\n";
  }

  // Checksum pass: parse (and thereby verify) every page, tallying the
  // census by page type.
  size_t counts[8] = {};
  uint64_t payload_bytes = 0;
  std::vector<std::string> damaged;
  std::string raw;
  for (uint32_t page = 0; page < file.num_pages(); ++page) {
    QOF_RETURN_IF_ERROR(file.ReadPage(page, &raw));
    auto header = ParsePage(raw, meta.page_size, page);
    if (!header.ok()) {
      damaged.push_back(header.status().ToString());
      continue;
    }
    counts[static_cast<int>(header->type) & 7]++;
    payload_bytes += header->payload_len;
  }
  std::cout << "pages:";
  for (int t = 0; t < 8; ++t) {
    if (counts[t] == 0) continue;
    std::cout << " " << PageTypeName(static_cast<PageType>(t)) << "="
              << counts[t];
  }
  std::cout << "  overall fill "
            << Percent(static_cast<double>(payload_bytes) /
                       (static_cast<double>(file.num_pages()) * capacity))
            << "\n";
  if (damaged.empty()) {
    std::cout << "checksums: all " << file.num_pages()
              << " page(s) verify\n";
    return Status::OK();
  }
  for (const std::string& error : damaged) {
    std::cout << "checksums: FAILED — " << error << "\n";
  }
  return Status::InvalidArgument(path + ": " +
                                 std::to_string(damaged.size()) +
                                 " damaged page(s)");
}

Status RunConvert(const std::string& blob_path, const std::string& out_path,
                  uint32_t page_size) {
  QOF_ASSIGN_OR_RETURN(std::string blob, ReadFileBytes(blob_path));
  QOF_ASSIGN_OR_RETURN(UncheckedIndexes unchecked,
                       DeserializeIndexesUnchecked(blob));

  std::string spec_bytes;
  EncodeIndexSpec(unchecked.indexes.spec, &spec_bytes);
  // Re-encode the document table from the blob's fingerprints — same
  // wire rows EncodeDocTable emits from a live corpus, so the image
  // matches what the engine's SaveStore writes for these indexes.
  std::string doc_table;
  PutU32(static_cast<uint32_t>(unchecked.docs.size()), &doc_table);
  for (const DocFingerprint& doc : unchecked.docs) {
    PutString(doc.name, &doc_table);
    PutU64(doc.size, &doc_table);
    PutU64(doc.fnv1a, &doc_table);
  }

  StoreWriterInput input;
  input.regions = &unchecked.indexes.indexes.regions;
  input.words = &unchecked.indexes.indexes.words;
  input.spec_bytes = spec_bytes;
  input.doc_table_bytes = doc_table;
  input.generation = unchecked.indexes.generation;
  input.doc_count = unchecked.indexes.indexes.documents;
  QOF_ASSIGN_OR_RETURN(std::string image, BuildStoreImage(input, page_size));
  QOF_RETURN_IF_ERROR(WriteFileBytes(out_path, image));
  std::cout << "converted v3 blob (" << blob.size() << " bytes) -> " << out_path << " ("
            << image.size() << " bytes, " << image.size() / page_size
            << " pages of " << page_size << ")\n";
  return Status::OK();
}

Status RunScrub(const std::string& path) {
  QOF_ASSIGN_OR_RETURN(ScrubReport report, ScrubStore(path));
  std::cout << FormatScrubReport(report);
  if (!report.clean()) {
    return Status::DataLoss(path + ": " +
                            std::to_string(report.damaged_pages.size()) +
                            " damaged page(s)");
  }
  return Status::OK();
}

Status RunRepair(const std::string& path) {
  QOF_ASSIGN_OR_RETURN(RepairResult result, RepairStore(path));
  if (result.quarantine_path.empty()) {
    std::cout << path << ": clean, nothing to repair\n";
    return Status::OK();
  }
  std::cout << "rebuilt " << path << " from surviving streams; damaged "
            << "original kept as " << result.quarantine_path << "\n";
  if (result.dropped.empty()) {
    std::cout << "no index instances lost (damage was confined to "
                 "derived data)\n";
  } else {
    std::cout << result.dropped.size() << " instance(s) dropped:\n";
    for (const std::string& key : result.dropped) {
      std::cout << "  " << key << "\n";
    }
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

  uint32_t page_size = qof::kDefaultPageSize;
  std::vector<std::string> args;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--page-size" && i + 1 < argc) {
      page_size =
          static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unrecognized option: " << arg << "\n";
      qof::PrintUsage(std::cerr);
      return 1;
    } else {
      args.push_back(arg);
    }
  }

  qof::Status status = qof::Status::OK();
  if (command == "inspect") {
    if (args.size() != 1) {
      std::cerr << "inspect wants exactly one store file\n";
      return 1;
    }
    status = qof::RunInspect(args[0]);
  } else if (command == "convert") {
    if (args.size() != 2) {
      std::cerr << "convert wants a blob file and an output path\n";
      return 1;
    }
    status = qof::RunConvert(args[0], args[1], page_size);
  } else if (command == "scrub") {
    if (args.size() != 1) {
      std::cerr << "scrub wants exactly one store file\n";
      return 1;
    }
    status = qof::RunScrub(args[0]);
  } else if (command == "repair") {
    if (args.size() != 1) {
      std::cerr << "repair wants exactly one store file\n";
      return 1;
    }
    status = qof::RunRepair(args[0]);
  } else {
    std::cerr << "unknown command: " << command << "\n";
    qof::PrintUsage(std::cerr);
    return 1;
  }

  if (!status.ok()) {
    std::cerr << "error: " << status.ToString() << "\n";
    return 2;
  }
  return 0;
}
