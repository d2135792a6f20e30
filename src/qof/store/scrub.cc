#include "qof/store/scrub.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "qof/store/page.h"
#include "qof/store/paged_file.h"
#include "qof/store/posting_codec.h"
#include "qof/store/store_format.h"
#include "qof/store/store_writer.h"
#include "qof/store/vfs.h"
#include "qof/util/wire.h"

namespace qof {
namespace {

const char* SectionNameOf(const StoreMeta& meta, uint32_t page_no) {
  if (page_no == 0) return "meta";
  for (int i = 0; i < kNumStoreSections; ++i) {
    const SectionInfo& s = meta.sections[i];
    if (page_no >= s.first_page && page_no < s.first_page + s.num_pages) {
      switch (static_cast<StoreSection>(i)) {
        case StoreSection::kSpec: return "spec";
        case StoreSection::kDocTable: return "doc-table";
        case StoreSection::kRegionFence: return "region-fence";
        case StoreSection::kRegionDict: return "region-dict";
        case StoreSection::kWordFence: return "word-fence";
        case StoreSection::kWordDict: return "word-dict";
        case StoreSection::kPostings: return "postings";
      }
    }
  }
  return "unknown";
}

/// [begin, end) byte interval of a stream section.
struct Interval {
  uint64_t begin = 0;
  uint64_t end = 0;
};

bool Overlaps(const Interval& a, uint64_t begin, uint64_t end) {
  return a.begin < end && begin < a.end;
}

struct RawDictEntry {
  std::string key;
  uint64_t byte_off = 0;
  uint64_t byte_len = 0;
  uint64_t header_len = 0;
  uint64_t count = 0;
};

struct DocSpan {
  std::string name;
  uint64_t begin = 0;
  uint64_t end = 0;
};

/// Everything one pass over the pages learns; ScrubStore surfaces the
/// report, RepairStore reuses the assembled sections.
struct ScrubState {
  ScrubReport report;
  StoreMeta meta;
  /// Postings stream bytes, damaged pages zero-filled.
  std::string postings;
  /// Damaged byte intervals within the postings stream.
  std::vector<Interval> postings_damage;
  std::string spec_bytes;
  std::string doc_table_bytes;
  std::vector<RawDictEntry> region_entries;
  std::vector<RawDictEntry> word_entries;
  std::vector<DocSpan> doc_spans;
};

/// Decodes the doc table into per-document corpus spans (the implied
/// dense layout: a 1-byte separator before every document but the
/// first, as Corpus::AddDocument lays them out).
Status DecodeDocSpans(std::string_view bytes, std::vector<DocSpan>* out) {
  WireReader reader(bytes, "store doc table");
  QOF_ASSIGN_OR_RETURN(uint32_t count, reader.U32());
  QOF_RETURN_IF_ERROR(reader.CheckCount(count, 17));
  uint64_t off = 0;
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    DocSpan span;
    QOF_ASSIGN_OR_RETURN(span.name, reader.String());
    QOF_ASSIGN_OR_RETURN(uint64_t size, reader.U64());
    QOF_ASSIGN_OR_RETURN(uint64_t fnv, reader.U64());
    (void)fnv;
    span.begin = off > 0 ? off + 1 : off;
    span.end = span.begin + size;
    off = span.end;
    out->push_back(std::move(span));
  }
  return Status::OK();
}

Status DecodeDictPagePayload(std::string_view payload,
                             std::vector<RawDictEntry>* out) {
  WireReader reader(payload, "store dictionary page");
  QOF_ASSIGN_OR_RETURN(uint32_t count, reader.U32());
  QOF_RETURN_IF_ERROR(reader.CheckCount(count, 8));
  for (uint32_t i = 0; i < count; ++i) {
    RawDictEntry e;
    QOF_ASSIGN_OR_RETURN(e.key, reader.String());
    QOF_ASSIGN_OR_RETURN(e.byte_off, reader.Varint());
    QOF_ASSIGN_OR_RETURN(e.byte_len, reader.Varint());
    QOF_ASSIGN_OR_RETURN(e.header_len, reader.Varint());
    QOF_ASSIGN_OR_RETURN(e.count, reader.Varint());
    out->push_back(std::move(e));
  }
  return Status::OK();
}

/// Names the documents whose spans [first, max_end] of the damaged
/// blocks cover.
void DocsCovering(const std::vector<DocSpan>& spans, uint64_t first,
                  uint64_t last, std::set<std::string>* out) {
  for (const DocSpan& span : spans) {
    if (span.begin <= last && first < span.end) out->insert(span.name);
  }
}

/// Attributes one damaged entry: decode its skip table (if intact) and
/// name the documents the damaged blocks touch.
InstanceDamage AttributeDamage(const ScrubState& state,
                               const RawDictEntry& entry, bool is_word) {
  InstanceDamage damage;
  damage.key = entry.key;
  damage.is_word = is_word;
  // The skip table is the stream's first header_len bytes; if any damaged
  // interval touches it the block map is gone and attribution with it.
  for (const Interval& iv : state.postings_damage) {
    if (Overlaps(iv, entry.byte_off, entry.byte_off + entry.header_len)) {
      return damage;  // docs_known stays false
    }
  }
  std::string_view stream(state.postings);
  stream = stream.substr(entry.byte_off, entry.byte_len);
  auto header = DecodeStreamHeader(stream, entry.key);
  if (!header.ok()) return damage;
  std::set<std::string> docs;
  for (const PostingBlockMeta& block : header->blocks) {
    uint64_t begin = entry.byte_off + header->header_bytes + block.byte_off;
    uint64_t end = begin + block.byte_len;
    for (const Interval& iv : state.postings_damage) {
      if (Overlaps(iv, begin, end)) {
        DocsCovering(state.doc_spans, block.first,
                     std::max(block.last, block.max_end), &docs);
        break;
      }
    }
  }
  damage.docs.assign(docs.begin(), docs.end());
  damage.docs_known = true;
  return damage;
}

Result<ScrubState> AnalyzeStore(const std::string& path) {
  ScrubState state;
  state.report.path = path;

  // Bootstrap the meta page from the minimum-size prefix — the true page
  // size is inside it. A damaged meta page is reported, not thrown.
  QOF_ASSIGN_OR_RETURN(std::string head,
                       ReadFilePrefix(path, kMinStorePageSize));
  auto meta = DecodeMetaPage(head);
  if (!meta.ok()) {
    state.report.damaged_pages.push_back({0, "meta", meta.status().ToString()});
    return state;
  }
  state.meta = *meta;
  state.report.meta_ok = true;

  QOF_ASSIGN_OR_RETURN(PagedFile file,
                       PagedFile::Open(path, state.meta.page_size));
  state.report.pages_total = file.num_pages();
  const uint32_t capacity = PagePayloadCapacity(state.meta.page_size);

  // One pass over every page: verify, and assemble the byte-stream
  // sections with damaged pages zero-filled + their intervals recorded.
  std::map<StoreSection, std::string> streams;
  std::map<StoreSection, std::vector<Interval>> stream_damage;
  bool dicts_ok = true;
  std::string raw;
  for (uint32_t page = 1; page < file.num_pages(); ++page) {
    const char* section_name = SectionNameOf(state.meta, page);
    Status read = file.ReadPage(page, &raw);
    Result<PageHeader> header =
        read.ok() ? ParsePage(raw, state.meta.page_size, page)
                  : Result<PageHeader>(read);
    const bool damaged = !header.ok();
    if (damaged) {
      state.report.damaged_pages.push_back(
          {page, section_name, header.status().ToString()});
    }
    for (int i = 0; i < kNumStoreSections; ++i) {
      StoreSection section = static_cast<StoreSection>(i);
      const SectionInfo& info = state.meta.sections[i];
      if (page < info.first_page || page >= info.first_page + info.num_pages) {
        continue;
      }
      if (section == StoreSection::kRegionDict ||
          section == StoreSection::kWordDict) {
        // Dict pages are self-contained; parse entries page by page.
        if (damaged) {
          dicts_ok = false;
        } else {
          std::vector<RawDictEntry>* out =
              section == StoreSection::kRegionDict ? &state.region_entries
                                                   : &state.word_entries;
          std::string_view payload(raw.data() + kPageHeaderSize,
                                   header->payload_len);
          if (!DecodeDictPagePayload(payload, out).ok()) dicts_ok = false;
        }
        break;
      }
      // Stream sections: append this page's payload at its arithmetic
      // offset; a damaged page contributes zeros and a damage interval.
      std::string& stream = streams[section];
      uint64_t off = static_cast<uint64_t>(page - info.first_page) * capacity;
      uint64_t page_bytes =
          std::min<uint64_t>(capacity, info.byte_len > off
                                           ? info.byte_len - off
                                           : 0);
      if (damaged) {
        stream.append(page_bytes, '\0');
        stream_damage[section].push_back({off, off + page_bytes});
      } else {
        stream.append(raw.data() + kPageHeaderSize, header->payload_len);
      }
      break;
    }
  }

  state.spec_bytes = std::move(streams[StoreSection::kSpec]);
  state.doc_table_bytes = std::move(streams[StoreSection::kDocTable]);
  state.postings = std::move(streams[StoreSection::kPostings]);
  state.postings_damage = std::move(stream_damage[StoreSection::kPostings]);

  const bool spec_ok = stream_damage[StoreSection::kSpec].empty();
  const bool doc_table_ok = stream_damage[StoreSection::kDocTable].empty();
  state.report.structural_ok = spec_ok && doc_table_ok && dicts_ok;

  if (doc_table_ok) {
    if (!DecodeDocSpans(state.doc_table_bytes, &state.doc_spans).ok()) {
      state.report.structural_ok = false;
    }
  }

  // Attribute postings damage to the instances whose streams it touches.
  if (dicts_ok && !state.postings_damage.empty()) {
    for (int pass = 0; pass < 2; ++pass) {
      const bool is_word = pass == 1;
      const auto& entries =
          is_word ? state.word_entries : state.region_entries;
      for (const RawDictEntry& entry : entries) {
        bool hit = false;
        for (const Interval& iv : state.postings_damage) {
          if (Overlaps(iv, entry.byte_off, entry.byte_off + entry.byte_len)) {
            hit = true;
            break;
          }
        }
        if (hit) {
          state.report.damaged_instances.push_back(
              AttributeDamage(state, entry, is_word));
        }
      }
    }
  }
  return state;
}

}  // namespace

Result<ScrubReport> ScrubStore(const std::string& path) {
  QOF_ASSIGN_OR_RETURN(ScrubState state, AnalyzeStore(path));
  return std::move(state.report);
}

std::string FormatScrubReport(const ScrubReport& report) {
  std::ostringstream out;
  if (report.clean()) {
    out << report.path << ": scrub clean — all " << report.pages_total
        << " page(s) verify\n";
    return out.str();
  }
  out << report.path << ": " << report.damaged_pages.size()
      << " damaged page(s) of " << report.pages_total << "\n";
  for (const PageDamage& page : report.damaged_pages) {
    out << "  page " << page.page_no << " [" << page.section
        << "]: " << page.error << "\n";
  }
  for (const InstanceDamage& damage : report.damaged_instances) {
    out << "  " << (damage.is_word ? "word" : "region") << " '"
        << damage.key << "': stream damaged";
    if (!damage.docs_known) {
      out << " (skip table lost — affected documents unknown)";
    } else if (damage.docs.empty()) {
      out << " (no document spans covered)";
    } else {
      out << ", documents:";
      for (const std::string& doc : damage.docs) out << " " << doc;
    }
    out << "\n";
  }
  if (!report.meta_ok) {
    out << "  meta page damaged — store unrecoverable\n";
  } else if (report.structural_ok) {
    out << "  damage is confined to postings/fence pages — repairable "
           "(qof_store repair)\n";
  } else {
    out << "  structural sections damaged — not repairable\n";
  }
  return out.str();
}

Result<RepairResult> RepairStore(const std::string& path) {
  QOF_ASSIGN_OR_RETURN(ScrubState state, AnalyzeStore(path));
  RepairResult result;
  if (state.report.clean()) return result;
  if (!state.report.repairable()) {
    return Status::DataLoss(
        path + ": damage is structural (meta, spec, doc table, or "
               "dictionary pages) — cannot repair; re-index");
  }

  // Keep every entry whose stream bytes are fully intact; drop the rest.
  auto survivors = [&](const std::vector<RawDictEntry>& entries,
                       bool is_word) {
    std::vector<RawStreamEntry> out;
    for (const RawDictEntry& entry : entries) {
      bool hit = false;
      for (const Interval& iv : state.postings_damage) {
        if (Overlaps(iv, entry.byte_off, entry.byte_off + entry.byte_len)) {
          hit = true;
          break;
        }
      }
      if (hit) {
        result.dropped.push_back(std::string(is_word ? "word:" : "region:") +
                                 entry.key);
        continue;
      }
      RawStreamEntry raw;
      raw.key = entry.key;
      raw.stream = state.postings.substr(entry.byte_off, entry.byte_len);
      raw.header_len = entry.header_len;
      raw.count = entry.count;
      out.push_back(std::move(raw));
    }
    return out;
  };
  std::vector<RawStreamEntry> regions =
      survivors(state.region_entries, /*is_word=*/false);
  std::vector<RawStreamEntry> words =
      survivors(state.word_entries, /*is_word=*/true);

  QOF_ASSIGN_OR_RETURN(
      std::string image,
      BuildStoreImageFromRaw(state.meta, state.spec_bytes,
                             state.doc_table_bytes, regions, words,
                             state.meta.page_size));

  // Quarantine the damaged original, then publish the rebuilt image
  // atomically at the store's name.
  Vfs* vfs = DefaultVfs();
  result.quarantine_path = path + ".quarantined";
  QOF_RETURN_IF_ERROR(vfs->Rename(path, result.quarantine_path));
  QOF_RETURN_IF_ERROR(vfs->SyncDir(ParentDir(path)));
  QOF_RETURN_IF_ERROR(AtomicWriteFile(vfs, path, image));
  return result;
}

}  // namespace qof
