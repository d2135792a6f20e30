// Unit battery for the disk-resident index tier: posting codec
// roundtrips, buffer-pool pin/eviction semantics (including loud checksum
// failures), and writer→reader roundtrips through a real paged file.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qof/exec/fault_injector.h"
#include "qof/region/region_cursor.h"
#include "qof/region/region_index.h"
#include "qof/region/region_set.h"
#include "qof/store/buffer_pool.h"
#include "qof/store/page.h"
#include "qof/store/paged_file.h"
#include "qof/store/paged_store.h"
#include "qof/store/posting_codec.h"
#include "qof/store/store_format.h"
#include "qof/store/store_index_source.h"
#include "qof/store/store_writer.h"
#include "qof/text/word_index.h"
#include "temp_path.h"

namespace qof {
namespace {

// ---------------------------------------------------------------------------
// Posting codec

std::vector<uint64_t> MakePostings(size_t n, uint64_t stride) {
  std::vector<uint64_t> v;
  v.reserve(n);
  uint64_t x = 7;
  for (size_t i = 0; i < n; ++i) {
    v.push_back(x);
    x += 1 + (i * stride) % 997;
  }
  return v;
}

std::vector<uint64_t> DecodeWholePostingStream(const std::string& stream) {
  auto header = DecodeStreamHeader(stream, "test");
  EXPECT_TRUE(header.ok()) << header.status().message();
  std::vector<uint64_t> out;
  for (const auto& b : header->blocks) {
    std::string_view bytes =
        std::string_view(stream).substr(header->header_bytes + b.byte_off,
                                        b.byte_len);
    Status s = DecodePostingBlock(b, bytes, "test", &out);
    EXPECT_TRUE(s.ok()) << s.message();
  }
  return out;
}

TEST(PostingCodecTest, RoundTripsVariousSizes) {
  for (size_t n : {0u, 1u, 2u, 127u, 128u, 129u, 1000u}) {
    std::vector<uint64_t> values = MakePostings(n, 3);
    std::string stream;
    uint64_t header_len = EncodePostingStream(values, &stream);
    ASSERT_LE(header_len, stream.size());
    auto header = DecodeStreamHeader(stream, "t");
    ASSERT_TRUE(header.ok()) << header.status().message();
    EXPECT_EQ(header->total_count, n);
    EXPECT_EQ(header->header_bytes, header_len);
    EXPECT_EQ(header->blocks.size(),
              (n + kPostingBlockEntries - 1) / kPostingBlockEntries);
    EXPECT_EQ(DecodeWholePostingStream(stream), values);
  }
}

TEST(PostingCodecTest, SkipTableBoundsMatchBlockContents) {
  std::vector<uint64_t> values = MakePostings(500, 11);
  std::string stream;
  EncodePostingStream(values, &stream);
  auto header = DecodeStreamHeader(stream, "t");
  ASSERT_TRUE(header.ok());
  size_t off = 0;
  for (const auto& b : header->blocks) {
    EXPECT_EQ(b.first, values[off]);
    EXPECT_EQ(b.last, values[off + b.count - 1]);
    // Posting streams are point positions: the end bound degenerates to
    // the last key (and costs one zero byte in the skip table).
    EXPECT_EQ(b.max_end, b.last);
    off += b.count;
  }
  EXPECT_EQ(off, values.size());
}

std::vector<Region> MakeRegions(size_t n) {
  std::vector<Region> v;
  uint64_t start = 3;
  for (size_t i = 0; i < n; ++i) {
    v.push_back(Region{start, start + 5 + (i % 40)});
    start += 1 + (i % 13);
  }
  return RegionSet::FromUnsorted(std::move(v)).regions();
}

TEST(RegionCodecTest, RoundTripsIncludingEqualStarts) {
  // Equal starts with different ends exercise the canonical order
  // (start asc, end desc) across a block boundary.
  std::vector<Region> regions;
  for (uint64_t s = 0; s < 100; ++s) {
    for (uint64_t e = 4; e > 0; --e) regions.push_back(Region{s * 10, s * 10 + e});
  }
  regions = RegionSet::FromUnsorted(std::move(regions)).regions();
  std::string stream;
  uint64_t header_len = EncodeRegionStream(regions, &stream);
  auto header = DecodeStreamHeader(stream, "r");
  ASSERT_TRUE(header.ok()) << header.status().message();
  EXPECT_EQ(header->total_count, regions.size());
  std::vector<Region> out;
  for (const auto& b : header->blocks) {
    std::string_view bytes = std::string_view(stream).substr(
        header_len + b.byte_off, b.byte_len);
    ASSERT_TRUE(DecodeRegionBlock(b, bytes, "r", &out).ok());
  }
  EXPECT_EQ(out, regions);
}

TEST(RegionCodecTest, SkipTableMaxEndCoversNestedRegions) {
  // A giant enclosing region first, then many small ones: in canonical
  // order (start asc, end desc) the giant's end lands in block 0 while
  // every later block's max_end is its own local maximum — exactly what
  // the enclosure kernels consult to skip blocks.
  std::vector<Region> regions;
  regions.push_back(Region{0, 100000});
  for (uint64_t i = 0; i < 600; ++i) {
    regions.push_back(Region{10 + i * 7, 12 + i * 7 + (i % 5)});
  }
  regions = RegionSet::FromUnsorted(std::move(regions)).regions();
  std::string stream;
  EncodeRegionStream(regions, &stream);
  auto header = DecodeStreamHeader(stream, "m");
  ASSERT_TRUE(header.ok()) << header.status().message();
  size_t off = 0;
  for (const auto& b : header->blocks) {
    uint64_t want = 0;
    for (uint64_t j = 0; j < b.count; ++j) {
      if (regions[off + j].end > want) want = regions[off + j].end;
    }
    EXPECT_EQ(b.max_end, want);
    EXPECT_GE(b.max_end, b.last);
    off += b.count;
  }
  EXPECT_EQ(off, regions.size());
}

TEST(RegionCodecTest, TamperedMaxEndFailsLoudly) {
  std::vector<Region> regions = MakeRegions(300);
  std::string stream;
  EncodeRegionStream(regions, &stream);
  auto header = DecodeStreamHeader(stream, "tamper");
  ASSERT_TRUE(header.ok());
  // The kernels trust max_end to skip blocks without decoding them, so a
  // decoded block that contradicts its skip entry must be rejected.
  PostingBlockMeta meta = header->blocks.front();
  meta.max_end += 1;
  std::string_view bytes = std::string_view(stream).substr(
      header->header_bytes + meta.byte_off, meta.byte_len);
  std::vector<Region> out;
  EXPECT_FALSE(DecodeRegionBlock(meta, bytes, "tamper", &out).ok());
}

TEST(RegionCodecTest, EmptyStreamRoundTrips) {
  std::string stream;
  EncodeRegionStream({}, &stream);
  auto header = DecodeStreamHeader(stream, "empty");
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->total_count, 0u);
  EXPECT_TRUE(header->blocks.empty());
}

TEST(PostingCodecTest, TruncatedHeaderFailsLoudly) {
  std::vector<uint64_t> values = MakePostings(300, 5);
  std::string stream;
  uint64_t header_len = EncodePostingStream(values, &stream);
  ASSERT_GT(header_len, 2u);
  auto r = DecodeStreamHeader(stream.substr(0, header_len / 2), "trunc");
  EXPECT_FALSE(r.ok());
}

TEST(PostingCodecTest, CorruptBlockFailsLoudly) {
  std::vector<uint64_t> values = MakePostings(200, 5);
  std::string stream;
  EncodePostingStream(values, &stream);
  auto header = DecodeStreamHeader(stream, "c");
  ASSERT_TRUE(header.ok());
  const auto& b = header->blocks.back();
  // Truncating the block's bytes must fail (count or terminal mismatch).
  std::string_view bytes = std::string_view(stream).substr(
      header->header_bytes + b.byte_off, b.byte_len - 1);
  std::vector<uint64_t> out;
  EXPECT_FALSE(DecodePostingBlock(b, bytes, "c", &out).ok());
}

// ---------------------------------------------------------------------------
// Buffer pool

// Writes a little paged file of `n` payload pages (type kPostings), each
// holding a recognizable payload.
std::string WriteLittleFile(const std::string& name, uint32_t n,
                            uint32_t page_size) {
  std::string image;
  for (uint32_t i = 0; i < n; ++i) {
    std::string payload = "page-" + std::to_string(i);
    AppendPage(PageType::kPostings, payload, page_size, &image);
  }
  std::string path = TempPath(name);
  EXPECT_TRUE(WriteFileBytes(path, image).ok());
  return path;
}

TEST(BufferPoolTest, HitsAndMissesAndPinAccounting) {
  std::string path = WriteLittleFile("pool_basic.qofstore", 8, kMinStorePageSize);
  auto file = PagedFile::Open(path, kMinStorePageSize);
  ASSERT_TRUE(file.ok()) << file.status().message();
  EXPECT_EQ(file->num_pages(), 8u);
  EXPECT_EQ(file->file_bytes(), 8u * kMinStorePageSize);
  BufferPool pool(&*file, BufferPoolOptions{4});

  auto p0 = pool.Fetch(0);
  ASSERT_TRUE(p0.ok());
  EXPECT_EQ(p0->payload(), "page-0");
  EXPECT_EQ(p0->type(), PageType::kPostings);
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_EQ(pool.stats().pinned_frames, 1u);

  {
    auto again = pool.Fetch(0);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(pool.stats().hits, 1u);
    EXPECT_EQ(pool.stats().pinned_frames, 1u);  // same frame, two pins
  }
  EXPECT_EQ(pool.stats().pinned_frames, 1u);
  p0->Release();
  EXPECT_EQ(pool.stats().pinned_frames, 0u);
  EXPECT_EQ(pool.stats().resident_pages, 1u);
}

TEST(BufferPoolTest, EvictionNeverEvictsPinned) {
  std::string path = WriteLittleFile("pool_evict.qofstore", 8, kMinStorePageSize);
  auto file = PagedFile::Open(path, kMinStorePageSize);
  ASSERT_TRUE(file.ok());
  BufferPool pool(&*file, BufferPoolOptions{2});

  auto p0 = pool.Fetch(0);
  auto p1 = pool.Fetch(1);
  ASSERT_TRUE(p0.ok());
  ASSERT_TRUE(p1.ok());
  // Pool is full of pinned frames: a third fetch must fail, not steal.
  auto p2 = pool.Fetch(2);
  EXPECT_FALSE(p2.ok());
  // Pinned payloads are untouched.
  EXPECT_EQ(p0->payload(), "page-0");
  EXPECT_EQ(p1->payload(), "page-1");

  p1->Release();
  auto p3 = pool.Fetch(3);
  ASSERT_TRUE(p3.ok());  // evicted the unpinned frame
  EXPECT_EQ(p3->payload(), "page-3");
  EXPECT_EQ(pool.stats().evictions, 1u);
  EXPECT_EQ(p0->payload(), "page-0");  // survivor still intact
}

TEST(BufferPoolTest, InjectedEvictPinnedStealsFrames) {
  std::string path = WriteLittleFile("pool_inject.qofstore", 8, kMinStorePageSize);
  auto file = PagedFile::Open(path, kMinStorePageSize);
  ASSERT_TRUE(file.ok());
  BufferPool pool(&*file, BufferPoolOptions{2});
  ScopedFaultInjector planted({planted_bug::kEvictPinned, 1});

  auto p0 = pool.Fetch(0);
  auto p1 = pool.Fetch(1);
  ASSERT_TRUE(p0.ok());
  ASSERT_TRUE(p1.ok());
  auto p2 = pool.Fetch(2);
  ASSERT_TRUE(p2.ok());  // the bug: a pinned frame was stolen
  // One of the earlier pins now reads the new page's bytes — wrong but
  // well-defined (frame memory is reused in place).
  EXPECT_TRUE(p0->payload() == "page-2" || p1->payload() == "page-2");
}

TEST(BufferPoolTest, ChecksumFailureFailsLoudly) {
  std::string path = WriteLittleFile("pool_corrupt.qofstore", 4, kMinStorePageSize);
  // Flip one payload bit of page 2 on disk.
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  std::string damaged = *bytes;
  damaged[2 * kMinStorePageSize + kPageHeaderSize + 3] ^= 0x40;
  ASSERT_TRUE(WriteFileBytes(path, damaged).ok());

  auto file = PagedFile::Open(path, kMinStorePageSize);
  ASSERT_TRUE(file.ok());
  BufferPool pool(&*file, BufferPoolOptions{4});
  ASSERT_TRUE(pool.Fetch(1).ok());  // intact neighbors still readable
  auto bad = pool.Fetch(2);
  EXPECT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("checksum"), std::string::npos)
      << bad.status().message();
  EXPECT_EQ(pool.stats().checksum_failures, 1u);
  ASSERT_TRUE(pool.Fetch(3).ok());
}

TEST(BufferPoolTest, StatsTrackDistinctPagesAndReset) {
  std::string path = WriteLittleFile("pool_stats.qofstore", 6, kMinStorePageSize);
  auto file = PagedFile::Open(path, kMinStorePageSize);
  ASSERT_TRUE(file.ok());
  BufferPool pool(&*file, BufferPoolOptions{2});
  for (uint32_t round = 0; round < 3; ++round) {
    for (uint32_t p = 0; p < 4; ++p) ASSERT_TRUE(pool.Fetch(p).ok());
  }
  BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.pages_touched, 4u);
  EXPECT_EQ(s.fetches, 12u);
  EXPECT_EQ(s.bytes_read, s.misses * kMinStorePageSize);
  EXPECT_GT(s.misses, 4u);  // capacity 2 forces re-reads
  pool.ResetStats();
  s = pool.stats();
  EXPECT_EQ(s.fetches, 0u);
  EXPECT_EQ(s.pages_touched, 0u);
}

// ---------------------------------------------------------------------------
// Writer → reader roundtrip

struct Fixture {
  RegionIndex regions;
  WordIndex words;
  std::string spec = "spec-bytes:opaque\x01\x02";
  std::string doc_table = "doc-table-bytes\x03";
};

Fixture MakeFixture(size_t scale) {
  Fixture f;
  std::vector<Region> refs;
  std::vector<Region> titles;
  for (size_t i = 0; i < scale; ++i) {
    uint64_t base = i * 100;
    refs.push_back(Region{base, base + 90});
    titles.push_back(Region{base + 10, base + 40});
  }
  f.regions.Add("reference", RegionSet::FromUnsorted(std::move(refs)));
  f.regions.Add("title", RegionSet::FromUnsorted(std::move(titles)));
  f.regions.Add("empty", RegionSet());

  std::vector<std::pair<std::string, std::vector<TextPos>>> entries;
  for (size_t w = 0; w < 40; ++w) {
    std::string word = "word" + std::string(1, char('a' + w % 26)) +
                       std::to_string(w);
    entries.emplace_back(word, MakePostings(5 + w * scale / 4, w + 1));
  }
  entries.emplace_back("zzz-singleton", std::vector<TextPos>{12345});
  f.words = WordIndex::FromEntries(std::move(entries), /*fold_case=*/true);
  return f;
}

StoreWriterInput InputFor(const Fixture& f) {
  StoreWriterInput input;
  input.regions = &f.regions;
  input.words = &f.words;
  input.spec_bytes = f.spec;
  input.doc_table_bytes = f.doc_table;
  input.generation = 7;
  input.doc_count = 42;
  return input;
}

Result<std::shared_ptr<const PagedStore>> BuildAndOpen(
    const Fixture& f, const std::string& name, uint32_t page_size,
    PagedStoreOptions options = {}) {
  QOF_ASSIGN_OR_RETURN(std::string image,
                       BuildStoreImage(InputFor(f), page_size));
  std::string path = TempPath(name);
  QOF_RETURN_IF_ERROR(WriteFileBytes(path, image));
  return PagedStore::Open(path, options);
}

TEST(PagedStoreTest, MetaAndSectionsRoundTrip) {
  Fixture f = MakeFixture(50);
  for (uint32_t page_size : {kMinStorePageSize, 1024u, kDefaultPageSize}) {
    auto store = BuildAndOpen(f, "meta_rt_" + std::to_string(page_size), page_size);
    ASSERT_TRUE(store.ok()) << store.status().message();
    const StoreMeta& m = (*store)->meta();
    EXPECT_EQ(m.page_size, page_size);
    EXPECT_EQ(m.generation, 7u);
    EXPECT_EQ(m.doc_count, 42u);
    EXPECT_EQ(m.region_names, f.regions.num_names());
    EXPECT_EQ(m.total_regions, f.regions.num_regions());
    EXPECT_EQ(m.distinct_words, f.words.num_distinct_words());
    EXPECT_EQ(m.universe_size, f.regions.Universe().size());

    auto spec = (*store)->ReadSection(StoreSection::kSpec);
    ASSERT_TRUE(spec.ok());
    EXPECT_EQ(*spec, f.spec);
    auto dt = (*store)->ReadSection(StoreSection::kDocTable);
    ASSERT_TRUE(dt.ok());
    EXPECT_EQ(*dt, f.doc_table);
  }
}

TEST(PagedStoreTest, UniverseSizeIsCountedNotMaterialized) {
  // The writer counts the universe with a k-way merge of the instances;
  // the image is byte-identical to one written from an index whose
  // universe is materialized, and carries the same size.
  Fixture fresh = MakeFixture(50);
  Fixture warmed = MakeFixture(50);
  // A second name over the same spans: the count must not double them.
  for (Fixture* f : {&fresh, &warmed}) {
    f->regions.Add("alias", **f->regions.Get("title"));
  }
  const uint64_t universe = warmed.regions.Universe().size();
  auto counted = BuildStoreImage(InputFor(fresh), kMinStorePageSize);
  auto materialized = BuildStoreImage(InputFor(warmed), kMinStorePageSize);
  ASSERT_TRUE(counted.ok()) << counted.status().message();
  ASSERT_TRUE(materialized.ok()) << materialized.status().message();
  EXPECT_EQ(*counted, *materialized);
  auto store = BuildAndOpen(fresh, "universe_size.qofstore",
                            kMinStorePageSize);
  ASSERT_TRUE(store.ok()) << store.status().message();
  EXPECT_EQ((*store)->meta().universe_size, universe);
  EXPECT_EQ(universe, 100u);
}

TEST(PagedStoreTest, RejectsBadPageSize) {
  Fixture f = MakeFixture(4);
  StoreWriterInput input;
  input.regions = &f.regions;
  input.words = &f.words;
  EXPECT_FALSE(BuildStoreImage(input, 100).ok());
  EXPECT_FALSE(BuildStoreImage(input, 0).ok());
  EXPECT_FALSE(BuildStoreImage(input, 300).ok());  // not a multiple of 256
}

TEST(PagedStoreTest, DictionaryProbesAndScans) {
  Fixture f = MakeFixture(80);
  auto store = BuildAndOpen(f, "dict.qofstore", kMinStorePageSize);
  ASSERT_TRUE(store.ok()) << store.status().message();

  for (const std::string& name : f.regions.Names()) {
    auto e = (*store)->FindRegionEntry(name);
    ASSERT_TRUE(e.ok()) << e.status().message();
    ASSERT_TRUE(e->has_value()) << name;
    auto set = f.regions.Get(name);
    ASSERT_TRUE(set.ok());
    EXPECT_EQ((*e)->count, (*set)->size());
  }
  auto absent = (*store)->FindRegionEntry("no-such-name");
  ASSERT_TRUE(absent.ok());
  EXPECT_FALSE(absent->has_value());
  // Probes below the first fence and above the last key.
  ASSERT_TRUE((*store)->FindWordEntry("").ok());
  EXPECT_FALSE((*store)->FindWordEntry("")->has_value());
  EXPECT_FALSE((*store)->FindWordEntry("zzzz")->has_value());

  auto all_words = (*store)->AllWordEntries();
  ASSERT_TRUE(all_words.ok());
  EXPECT_EQ(all_words->size(), f.words.num_distinct_words());
  for (size_t i = 1; i < all_words->size(); ++i) {
    EXPECT_LT((*all_words)[i - 1].key, (*all_words)[i].key);
  }

  uint64_t loaded_words = 0;
  f.words.ForEachWord([&](const std::string& word,
                          const std::vector<TextPos>& postings) {
    auto e = (*store)->FindWordEntry(word);
    ASSERT_TRUE(e.ok());
    ASSERT_TRUE(e->has_value()) << word;
    auto got = (*store)->LoadPostings(**e);
    ASSERT_TRUE(got.ok()) << got.status().message();
    EXPECT_EQ(*got, postings) << word;
    ++loaded_words;
  });
  EXPECT_EQ(loaded_words, f.words.num_distinct_words());
}

TEST(PagedStoreTest, WordsWithPrefixMatchesInMemory) {
  Fixture f = MakeFixture(30);
  auto store = BuildAndOpen(f, "prefix.qofstore", kMinStorePageSize);
  ASSERT_TRUE(store.ok());
  for (std::string prefix : {"word", "worda", "zzz", "nope", ""}) {
    auto got = (*store)->WordsWithPrefix(prefix);
    ASSERT_TRUE(got.ok()) << got.status().message();
    std::vector<std::string> want;
    f.words.ForEachWord([&](const std::string& w, const auto&) {
      if (w.compare(0, prefix.size(), prefix) == 0) want.push_back(w);
    });
    std::sort(want.begin(), want.end());
    EXPECT_EQ(*got, want) << "prefix=" << prefix;
  }
}

TEST(PagedStoreTest, RegionCursorMaterializesIdentically) {
  Fixture f = MakeFixture(500);
  auto store = BuildAndOpen(f, "cursor.qofstore", kMinStorePageSize,
                            PagedStoreOptions{8});
  ASSERT_TRUE(store.ok());
  for (const std::string& name : f.regions.Names()) {
    auto entry = (*store)->FindRegionEntry(name);
    ASSERT_TRUE(entry.ok() && entry->has_value());
    auto cursor = PagedStore::OpenRegionCursor(*store, **entry);
    ASSERT_TRUE(cursor.ok()) << cursor.status().message();
    auto materialized = MaterializeCursor(**cursor);
    ASSERT_TRUE(materialized.ok()) << materialized.status().message();
    auto want = f.regions.Get(name);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(materialized->regions(), (*want)->regions()) << name;
  }
}

TEST(PagedStoreTest, IntersectCursorSkipsBlocks) {
  Fixture f = MakeFixture(2000);  // "reference" has 2000 regions → ~16 blocks
  auto store = BuildAndOpen(f, "skip.qofstore", kMinStorePageSize,
                            PagedStoreOptions{16});
  ASSERT_TRUE(store.ok());
  auto entry = (*store)->FindRegionEntry("reference");
  ASSERT_TRUE(entry.ok() && entry->has_value());

  // A sparse probe: every 400th reference region.
  auto want_all = f.regions.Get("reference");
  ASSERT_TRUE(want_all.ok());
  std::vector<Region> probe_v;
  for (size_t i = 0; i < (*want_all)->size(); i += 400) {
    probe_v.push_back((*want_all)->regions()[i]);
  }
  RegionSet probe = RegionSet::FromSortedUnique(std::move(probe_v));

  auto cursor = PagedStore::OpenRegionCursor(*store, **entry);
  ASSERT_TRUE(cursor.ok());
  auto got = IntersectCursor(probe, **cursor);
  ASSERT_TRUE(got.ok()) << got.status().message();
  RegionSet want = Intersect(probe, **want_all);
  EXPECT_EQ(got->regions(), want.regions());
  EXPECT_EQ(got->size(), probe.size());
  // The point of the tier: most blocks were never decoded.
  EXPECT_LT((*cursor)->blocks_decoded(), (*cursor)->num_blocks());
}

TEST(PagedStoreTest, SelectiveReadsTouchFewPages) {
  Fixture f = MakeFixture(3000);
  auto store = BuildAndOpen(f, "touch.qofstore", kMinStorePageSize,
                            PagedStoreOptions{64});
  ASSERT_TRUE(store.ok());
  (*store)->ResetPoolStats();
  auto entry = (*store)->FindWordEntry("zzz-singleton");
  ASSERT_TRUE(entry.ok() && entry->has_value());
  auto postings = (*store)->LoadPostings(**entry);
  ASSERT_TRUE(postings.ok());
  EXPECT_EQ(*postings, std::vector<uint64_t>{12345});
  BufferPoolStats s = (*store)->pool_stats();
  // A one-word probe touches a handful of pages, not the whole file.
  EXPECT_LT(s.pages_touched, uint64_t{8});
  EXPECT_LT(s.pages_touched, (*store)->num_pages() / 10);
}

TEST(PagedStoreTest, CorruptPostingPageFailsLoudly) {
  Fixture f = MakeFixture(200);
  StoreWriterInput input;
  input.regions = &f.regions;
  input.words = &f.words;
  input.spec_bytes = f.spec;
  input.doc_table_bytes = f.doc_table;
  auto image = BuildStoreImage(input, kMinStorePageSize);
  ASSERT_TRUE(image.ok());

  // Decode the meta to find the postings section and flip a payload bit
  // in its middle page.
  auto header = ParsePage(std::string_view(*image).substr(0, kMinStorePageSize),
                          kMinStorePageSize, 0);
  ASSERT_TRUE(header.ok());
  auto meta = DecodeStoreMeta(
      std::string_view(*image).substr(kPageHeaderSize, header->payload_len));
  ASSERT_TRUE(meta.ok()) << meta.status().message();
  const SectionInfo& postings = meta->section(StoreSection::kPostings);
  ASSERT_GT(postings.num_pages, 0u);
  std::string damaged = *image;
  size_t victim = postings.first_page + postings.num_pages / 2;
  damaged[victim * kMinStorePageSize + kPageHeaderSize + 1] ^= 0x10;
  std::string path = TempPath("corrupt.qofstore");
  ASSERT_TRUE(WriteFileBytes(path, damaged).ok());

  auto store = PagedStore::Open(path, PagedStoreOptions{16});
  ASSERT_TRUE(store.ok()) << store.status().message();  // lazy: open succeeds
  // Some load that crosses the damaged page must fail with a checksum
  // error; everything on intact pages still answers.
  auto all = (*store)->AllWordEntries();
  ASSERT_TRUE(all.ok());
  bool saw_checksum_error = false;
  bool saw_success = false;
  for (const auto& e : *all) {
    auto r = (*store)->LoadPostings(e);
    if (r.ok()) {
      saw_success = true;
    } else if (r.status().message().find("checksum") != std::string::npos) {
      saw_checksum_error = true;
    }
  }
  auto entries = (*store)->AllRegionEntries();
  if (entries.ok()) {
    for (const auto& e : *entries) {
      auto cursor = PagedStore::OpenRegionCursor(*store, e);
      if (!cursor.ok()) continue;
      auto m = MaterializeCursor(**cursor);
      if (m.ok()) saw_success = true;
      else if (m.status().message().find("checksum") != std::string::npos)
        saw_checksum_error = true;
    }
  }
  EXPECT_TRUE(saw_checksum_error);
  EXPECT_TRUE(saw_success);
  EXPECT_GT((*store)->pool_stats().checksum_failures, 0u);
}

TEST(PagedStoreTest, EmptyIndexesRoundTrip) {
  Fixture f;
  f.regions.Add("only-empty", RegionSet());
  auto store = BuildAndOpen(f, "empty.qofstore", kMinStorePageSize);
  ASSERT_TRUE(store.ok()) << store.status().message();
  auto e = (*store)->FindRegionEntry("only-empty");
  ASSERT_TRUE(e.ok() && e->has_value());
  EXPECT_EQ((*e)->count, 0u);
  auto cursor = PagedStore::OpenRegionCursor(*store, **e);
  ASSERT_TRUE(cursor.ok());
  auto m = MaterializeCursor(**cursor);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->size(), 0u);
  auto words = (*store)->AllWordEntries();
  ASSERT_TRUE(words.ok());
  EXPECT_TRUE(words->empty());
  EXPECT_TRUE((*store)->WordsWithPrefix("x").ok());
}

// ---------------------------------------------------------------------------
// Index sources

TEST(StoreSourceTest, SourcesMirrorTheStore) {
  Fixture f = MakeFixture(60);
  auto store = BuildAndOpen(f, "sources.qofstore", kMinStorePageSize);
  ASSERT_TRUE(store.ok());

  StoreRegionSource rsource(*store);
  EXPECT_EQ(rsource.universe_size(), f.regions.Universe().size());
  auto entries = rsource.Entries();
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), f.regions.num_names());
  auto cursor = rsource.OpenCursor("title");
  ASSERT_TRUE(cursor.ok());
  auto missing = rsource.OpenCursor("nope");
  EXPECT_FALSE(missing.ok());

  StorePostingSource wsource(*store);
  EXPECT_EQ(wsource.distinct_words(), f.words.num_distinct_words());
  EXPECT_EQ(wsource.total_postings(), f.words.num_postings());
  auto loaded = wsource.Load("zzz-singleton");
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded->has_value());
  EXPECT_EQ(**loaded, std::vector<TextPos>{12345});
  auto absent = wsource.Load("definitely-absent");
  ASSERT_TRUE(absent.ok());
  EXPECT_FALSE(absent->has_value());
  EXPECT_GT(rsource.approx_bytes() + wsource.approx_bytes(), 0u);
}

}  // namespace
}  // namespace qof
