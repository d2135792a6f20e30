#include "qof/engine/index_io.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "qof/datagen/bibtex_gen.h"
#include "qof/datagen/schemas.h"
#include "qof/engine/system.h"
#include "qof/store/paged_file.h"
#include "qof/store/store_format.h"
#include "qof/store/store_writer.h"
#include "qof/util/wire.h"
#include "temp_path.h"

namespace qof {
namespace {

constexpr const char* kFlagship =
    "SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "
    "\"Chang\"";

class IndexIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = BibtexSchema();
    ASSERT_TRUE(schema.ok());
    BibtexGenOptions gen;
    gen.num_references = 40;
    gen.probe_author_rate = 0.2;
    text_ = GenerateBibtex(gen);
    system_ = std::make_unique<FileQuerySystem>(*schema);
    ASSERT_TRUE(system_->AddFile("gen.bib", text_).ok());
  }

  /// Saves the built indexes under a per-test temp name.
  std::string Save(const std::string& name,
                   uint32_t page_size = kDefaultPageSize) {
    std::string path = TempPath(name);
    Status saved = system_->SaveStore(path, page_size);
    EXPECT_TRUE(saved.ok()) << saved.ToString();
    return path;
  }

  std::string text_;
  std::unique_ptr<FileQuerySystem> system_;
};

TEST_F(IndexIoTest, RoundTripPreservesAnswers) {
  ASSERT_TRUE(system_->BuildIndexes(IndexSpec::Full()).ok());
  auto before = system_->Execute(kFlagship);
  ASSERT_TRUE(before.ok());
  const std::string path = Save("roundtrip.qofstore");

  // A fresh system over the same corpus opens the store and answers
  // identically, without ever parsing for index construction.
  auto schema = BibtexSchema();
  FileQuerySystem fresh(*schema);
  ASSERT_TRUE(fresh.AddFile("gen.bib", text_).ok());
  ASSERT_TRUE(fresh.OpenStore(path).ok());
  EXPECT_TRUE(fresh.indexes_built());
  auto after = fresh.Execute(kFlagship);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->stats.strategy, "index-only");
  EXPECT_EQ(after->regions.size(), before->regions.size());
  for (size_t i = 0; i < after->regions.size(); ++i) {
    EXPECT_EQ(after->regions[i], before->regions[i]);
  }
}

TEST_F(IndexIoTest, RoundTripPreservesSpec) {
  IndexSpec spec = IndexSpec::Partial({"Reference", "Authors", "Name",
                                       "Last_Name"});
  spec.within["Name"] = "Authors";
  spec.within["Last_Name"] = "Authors";
  spec.word_options.fold_case = true;
  ASSERT_TRUE(system_->BuildIndexes(spec).ok());
  const std::string path = Save("spec.qofstore");

  auto loaded = LoadIndexStore(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->spec.mode, IndexSpec::Mode::kPartial);
  EXPECT_EQ(loaded->spec.names, spec.names);
  EXPECT_EQ(loaded->spec.within, spec.within);
  EXPECT_TRUE(loaded->spec.word_options.fold_case);
  EXPECT_EQ(loaded->generation, 0u);
  ASSERT_EQ(loaded->docs.size(), 1u);
  EXPECT_EQ(loaded->docs[0],
            (DocFingerprint{"gen.bib", text_.size(),
                            CorpusFingerprint(text_)}));
  EXPECT_TRUE(DiagnoseStaleDocs(loaded->docs, system_->corpus()).empty());
  ASSERT_TRUE(loaded->indexes.regions.EnsureResident().ok());
  ASSERT_TRUE(loaded->indexes.words.EnsureResident().ok());
  EXPECT_EQ(loaded->indexes.regions.num_names(),
            system_->region_index().num_names());
  EXPECT_EQ(loaded->indexes.regions.num_regions(),
            system_->region_index().num_regions());
  EXPECT_EQ(loaded->indexes.words.num_postings(),
            system_->word_index().num_postings());
}

TEST_F(IndexIoTest, RejectsChangedCorpus) {
  ASSERT_TRUE(system_->BuildIndexes().ok());
  const std::string path = Save("changed.qofstore");

  auto schema = BibtexSchema();
  FileQuerySystem other(*schema);
  ASSERT_TRUE(other.AddFile("gen.bib", text_ + " ").ok());
  auto s = other.OpenStore(path);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  // Stores carry per-document fingerprints: the error names the document
  // that changed.
  EXPECT_NE(s.message().find("modified"), std::string::npos) << s.message();
  EXPECT_NE(s.message().find("gen.bib"), std::string::npos) << s.message();
}

TEST_F(IndexIoTest, RejectsGarbage) {
  ASSERT_TRUE(system_->BuildIndexes().ok());
  const std::string garbage = TempPath("garbage.qofstore");
  ASSERT_TRUE(WriteFileBytes(garbage, "not an index").ok());
  EXPECT_FALSE(system_->OpenStore(garbage).ok());
  auto image = ReadFileBytes(Save("garbage-source.qofstore"));
  ASSERT_TRUE(image.ok());
  // Truncation at every eighth of the store fails cleanly.
  const std::string cut = TempPath("garbage-cut.qofstore");
  for (size_t frac = 1; frac < 8; ++frac) {
    ASSERT_TRUE(
        WriteFileBytes(cut, image->substr(0, image->size() * frac / 8)).ok());
    EXPECT_FALSE(system_->OpenStore(cut).ok()) << frac;
  }
  // Trailing junk is rejected too.
  ASSERT_TRUE(WriteFileBytes(cut, *image + "x").ok());
  EXPECT_FALSE(system_->OpenStore(cut).ok());
}

/// Recomputes page `page`'s payload checksum, so a deliberately
/// corrupted payload reaches the decoders instead of failing the page
/// check first.
void ResealPage(std::string* image, size_t page, size_t page_size) {
  const size_t at = page * page_size;
  WireReader reader(std::string_view(*image).substr(at + 4, 4), "header");
  auto payload_len = reader.U32();
  ASSERT_TRUE(payload_len.ok());
  std::string checksum;
  PutU64(Fnv1a(std::string_view(*image).substr(at + kPageHeaderSize,
                                               *payload_len)),
         &checksum);
  image->replace(at + 8, 8, checksum);
}

TEST_F(IndexIoTest, CorruptCountsAreRejectedBeforeAllocation) {
  ASSERT_TRUE(system_->BuildIndexes().ok());
  // Small pages: meta, fences, dictionaries and streams span many pages.
  auto image = ReadFileBytes(Save("counts.qofstore", kMinStorePageSize));
  ASSERT_TRUE(image.ok());
  // Overwrite 8-byte payload windows with absurd counts (re-sealing the
  // page checksum, which would otherwise reject the page first). Whatever
  // field the window lands on — a section extent, a dictionary entry
  // count, a stream's block count or posting count — loading and paging
  // in must fail by bounds-checking the count against the bytes
  // remaining, not by attempting a 2^60-element reserve.
  const std::string corrupt_path = TempPath("counts-corrupt.qofstore");
  for (size_t at = kPageHeaderSize; at + 8 <= image->size();
       at += std::max<size_t>(1, image->size() / 97)) {
    const size_t page = at / kMinStorePageSize;
    const size_t in_page = at % kMinStorePageSize;
    if (in_page < kPageHeaderSize || in_page + 8 > kMinStorePageSize) {
      continue;
    }
    std::string corrupt = *image;
    for (size_t i = 0; i < 8; ++i) corrupt[at + i] = '\x7f';
    ResealPage(&corrupt, page, kMinStorePageSize);
    ASSERT_TRUE(WriteFileBytes(corrupt_path, corrupt).ok());
    auto loaded = LoadIndexStore(corrupt_path);
    // Some windows only touch region coordinates, posting payloads or
    // zero padding; those may still load. The requirement is no crash and
    // no over-allocation, which running to completion shows.
    if (loaded.ok()) {
      (void)loaded->indexes.regions.EnsureResident();
      (void)loaded->indexes.words.EnsureResident();
    }
  }
  // The pristine store still loads.
  auto pristine = LoadIndexStore(TempPath("counts.qofstore"));
  ASSERT_TRUE(pristine.ok());
  EXPECT_TRUE(pristine->indexes.regions.EnsureResident().ok());
}

TEST_F(IndexIoTest, AbsurdRegionCountFailsWithCountDiagnostic) {
  // Hand-built store whose one region instance claims 2^62 regions: the
  // stream header's count check must reject it when the instance pages
  // in, against the (tiny) stream behind it.
  Corpus corpus;
  ASSERT_TRUE(corpus.AddDocument("x.txt", "x").ok());
  std::string spec;
  EncodeIndexSpec(IndexSpec::Full(), &spec);
  auto doc_table = EncodeDocTable(corpus);
  ASSERT_TRUE(doc_table.ok());
  const uint64_t absurd = uint64_t{1} << 62;
  RawStreamEntry entry;
  entry.key = "A";
  PutVarint(absurd, &entry.stream);  // stream total
  PutVarint(1, &entry.stream);       // one block:
  for (uint64_t field : {0, 0, 1, 1, 1}) {
    PutVarint(field, &entry.stream);  // first, span, end excess, count, bytes
  }
  entry.header_len = entry.stream.size();
  entry.stream.push_back('\0');  // the block's one byte
  entry.count = absurd;
  StoreMeta meta;
  meta.doc_count = 1;
  auto image = BuildStoreImageFromRaw(meta, spec, *doc_table, {entry}, {});
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  const std::string path = TempPath("absurd.qofstore");
  ASSERT_TRUE(WriteFileBytes(path, *image).ok());

  auto loaded = LoadIndexStore(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Status paged_in = loaded->indexes.regions.EnsureResident();
  ASSERT_FALSE(paged_in.ok());
  EXPECT_NE(paged_in.message().find("count"), std::string::npos)
      << paged_in.message();
}

TEST_F(IndexIoTest, SameStoreIgnoresOnlyTheGeneration) {
  ASSERT_TRUE(system_->BuildIndexes().ok());
  auto loaded = LoadIndexStore(Save("generation.qofstore"));
  ASSERT_TRUE(loaded.ok());
  auto at0 = EncodeIndexStore(loaded->indexes, loaded->spec,
                              system_->corpus(), 0);
  auto at5 = EncodeIndexStore(loaded->indexes, loaded->spec,
                              system_->corpus(), 5);
  ASSERT_TRUE(at0.ok());
  ASSERT_TRUE(at5.ok());
  EXPECT_NE(*at0, *at5);
  EXPECT_TRUE(SameStoreIgnoringGeneration(*at0, *at5));

  // Any other difference still counts: one more document...
  BibtexGenOptions more;
  more.num_references = 2;
  more.seed = 7;
  ASSERT_TRUE(system_->AddFile("more.bib", GenerateBibtex(more)).ok());
  auto grown = system_->ExportIndexes();
  ASSERT_TRUE(grown.ok());
  EXPECT_FALSE(SameStoreIgnoringGeneration(*at0, *grown));
  // ...or one flipped byte past the meta page.
  std::string flipped = *at0;
  flipped[flipped.size() - 1] ^= 0x01;
  EXPECT_FALSE(SameStoreIgnoringGeneration(*at0, flipped));
}

TEST_F(IndexIoTest, ExportRequiresBuiltIndexes) {
  EXPECT_FALSE(system_->ExportIndexes().ok());
}

TEST_F(IndexIoTest, TokenFilterIsNotSerializable) {
  IndexSpec spec;
  spec.word_options.token_filter = [](const WordToken&) { return true; };
  ASSERT_TRUE(system_->BuildIndexes(spec).ok());
  auto store = system_->ExportIndexes();
  ASSERT_FALSE(store.ok());
  EXPECT_TRUE(store.status().IsInvalidArgument());
}

TEST_F(IndexIoTest, FingerprintIsStable) {
  EXPECT_EQ(CorpusFingerprint("abc"), CorpusFingerprint("abc"));
  EXPECT_NE(CorpusFingerprint("abc"), CorpusFingerprint("abd"));
  EXPECT_NE(CorpusFingerprint(""), CorpusFingerprint(" "));
}

}  // namespace
}  // namespace qof
