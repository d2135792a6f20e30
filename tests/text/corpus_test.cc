#include "qof/text/corpus.h"

#include <gtest/gtest.h>

namespace qof {
namespace {

TEST(CorpusTest, EmptyCorpus) {
  Corpus c;
  EXPECT_EQ(c.num_documents(), 0u);
  EXPECT_EQ(c.size(), 0u);
}

TEST(CorpusTest, SingleDocumentSpansFromZero) {
  Corpus c;
  auto id = c.AddDocument("a.bib", "hello world");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 0u);
  EXPECT_EQ(c.document_start(0), 0u);
  EXPECT_EQ(c.document_end(0), 11u);
  EXPECT_EQ(c.RawText(0, 5), "hello");
}

TEST(CorpusTest, DocumentsSeparatedByNewline) {
  Corpus c;
  ASSERT_TRUE(c.AddDocument("a", "aaa").ok());
  ASSERT_TRUE(c.AddDocument("b", "bbb").ok());
  EXPECT_EQ(c.full_text(), "aaa\nbbb");
  EXPECT_EQ(c.document_start(1), 4u);
  EXPECT_EQ(c.document_end(1), 7u);
}

TEST(CorpusTest, DuplicateNameRejected) {
  Corpus c;
  ASSERT_TRUE(c.AddDocument("a", "x").ok());
  auto r = c.AddDocument("a", "y");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAlreadyExists);
}

TEST(CorpusTest, DocumentAtFindsOwner) {
  Corpus c;
  ASSERT_TRUE(c.AddDocument("a", "aaa").ok());
  ASSERT_TRUE(c.AddDocument("b", "bbb").ok());
  auto d0 = c.DocumentAt(2);
  ASSERT_TRUE(d0.ok());
  EXPECT_EQ(*d0, 0u);
  auto d1 = c.DocumentAt(5);
  ASSERT_TRUE(d1.ok());
  EXPECT_EQ(*d1, 1u);
  // Position 3 is the separator between the documents.
  EXPECT_FALSE(c.DocumentAt(3).ok());
  EXPECT_FALSE(c.DocumentAt(100).ok());
}

TEST(CorpusTest, ScanAccountsBytesRawDoesNot) {
  Corpus c;
  ASSERT_TRUE(c.AddDocument("a", "0123456789").ok());
  EXPECT_EQ(c.bytes_read(), 0u);
  (void)c.RawText(0, 10);
  EXPECT_EQ(c.bytes_read(), 0u);
  EXPECT_EQ(c.ScanText(2, 6), "2345");
  EXPECT_EQ(c.bytes_read(), 4u);
  (void)c.ScanText(0, 10);
  EXPECT_EQ(c.bytes_read(), 14u);
  c.ResetBytesRead();
  EXPECT_EQ(c.bytes_read(), 0u);
}

TEST(CorpusTest, CopiesShareBytesAndAppendsLandPastEveryEnd) {
  Corpus live;
  ASSERT_TRUE(live.AddDocument("a", "aaa").ok());
  Corpus pinned = live;
  EXPECT_EQ(pinned.full_text().data(), live.full_text().data());

  // The live copy appends past the pinned one's end, in the same buffer.
  ASSERT_TRUE(live.ReplaceDocument("a", "AAAA").ok());
  EXPECT_EQ(live.full_text().data(), pinned.full_text().data());
  EXPECT_EQ(pinned.full_text(), "aaa");
  EXPECT_EQ(pinned.num_live_documents(), 1u);
  EXPECT_TRUE(pinned.is_live(0));
  EXPECT_EQ(live.full_text(), "aaa\nAAAA");
  EXPECT_FALSE(live.is_live(0));

  // The pinned copy appending too would overwrite the live bytes past
  // its end, so it moves to a buffer of its own.
  ASSERT_TRUE(pinned.AddDocument("b", "bb").ok());
  EXPECT_NE(pinned.full_text().data(), live.full_text().data());
  EXPECT_EQ(pinned.full_text(), "aaa\nbb");
  EXPECT_EQ(live.full_text(), "aaa\nAAAA");

  // Compaction's dense copy: live documents only, in order, fresh bytes.
  Corpus dense = live.LiveOnly();
  EXPECT_EQ(dense.full_text(), "AAAA");
  EXPECT_EQ(dense.num_documents(), 1u);
  EXPECT_EQ(dense.document_name(0), "a");
  EXPECT_EQ(live.full_text(), "aaa\nAAAA");
}

}  // namespace
}  // namespace qof
