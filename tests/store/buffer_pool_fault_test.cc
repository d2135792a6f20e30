// Read-fault behavior of the buffer pool: transient I/O errors are
// absorbed by one retry, persistent errors and checksum failures surface
// loudly and never leave a bad frame cached, and the stats counters
// account for all of it — under concurrency too (this file runs in the
// store-tsan CI leg).

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "qof/store/buffer_pool.h"
#include "qof/store/fault_vfs.h"
#include "qof/store/page.h"
#include "qof/store/paged_file.h"
#include "qof/store/store_format.h"
#include "qof/store/vfs.h"

namespace qof {
namespace {

/// A little n-page image of kPostings pages ("page-<i>" payloads)
/// written into `vfs`, fully durable.
void WritePages(Vfs* vfs, const std::string& path, uint32_t n,
                uint32_t page_size) {
  std::string image;
  for (uint32_t i = 0; i < n; ++i) {
    AppendPage(PageType::kPostings, "page-" + std::to_string(i), page_size,
               &image);
  }
  ASSERT_TRUE(AtomicWriteFile(vfs, path, image).ok());
}

class BufferPoolFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scoped_ = std::make_unique<ScopedVfs>(&vfs_);
    WritePages(&vfs_, "store", 6, kMinStorePageSize);
    auto file = PagedFile::Open("store", kMinStorePageSize);
    ASSERT_TRUE(file.ok()) << file.status().message();
    file_ = std::make_unique<PagedFile>(std::move(*file));
  }

  FaultVfs vfs_;
  std::unique_ptr<ScopedVfs> scoped_;
  std::unique_ptr<PagedFile> file_;
};

TEST_F(BufferPoolFaultTest, TransientReadErrorIsRetriedOnce) {
  BufferPool pool(file_.get(), BufferPoolOptions{4});
  vfs_.set_fail_reads(1);
  auto page = pool.Fetch(0);
  ASSERT_TRUE(page.ok()) << page.status().message();
  EXPECT_EQ(page->payload(), "page-0");
  BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.read_retries, 1u);
  EXPECT_EQ(s.io_errors, 0u);
  EXPECT_EQ(s.misses, 1u);
}

TEST_F(BufferPoolFaultTest, PersistentReadErrorFailsAndIsNotCached) {
  BufferPool pool(file_.get(), BufferPoolOptions{4});
  vfs_.set_fail_reads(100);
  auto bad = pool.Fetch(1);
  EXPECT_FALSE(bad.ok());
  BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.io_errors, 1u);
  EXPECT_EQ(s.read_retries, 1u);  // the one retry was spent, then gave up
  EXPECT_EQ(s.pinned_frames, 0u);

  // The failed page must not linger in the pool: once the disk heals,
  // the same fetch goes back to disk (a miss, not a poisoned hit).
  vfs_.set_fail_reads(0);
  auto good = pool.Fetch(1);
  ASSERT_TRUE(good.ok()) << good.status().message();
  EXPECT_EQ(good->payload(), "page-1");
  EXPECT_EQ(pool.stats().hits, 0u);
}

TEST_F(BufferPoolFaultTest, RetryShortReadCannotCacheStaleFrame) {
  // The stale-frame hazard on the retry path: a one-frame pool evicts
  // page 0's image to read page 1; the first read attempt hits a
  // transient EIO and the retry "succeeds" without transferring a byte
  // (FaultVfs leaves the buffer untouched — the contract-violating
  // driver case). The page checksum covers content only, so if the
  // frame buffer were not cleared per attempt, page 0's leftover image
  // would verify and be cached *as page 1*. The pool must instead
  // surface a short-read error and cache nothing.
  BufferPool pool(file_.get(), BufferPoolOptions{1});
  {
    auto warm = pool.Fetch(0);
    ASSERT_TRUE(warm.ok()) << warm.status().message();
    EXPECT_EQ(warm->payload(), "page-0");
  }

  vfs_.set_fail_reads(1);   // attempt 1: transient EIO
  vfs_.set_short_reads(1);  // attempt 2 (the retry): OK but no bytes
  auto bad = pool.Fetch(1);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("short read of page"),
            std::string::npos)
      << bad.status().message();
  BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.read_retries, 1u);
  EXPECT_EQ(s.io_errors, 1u);
  EXPECT_EQ(s.resident_pages, 0u);  // neither page 0 nor a fake page 1

  // Disk healed: both pages come back with their own bytes — the fetch
  // below must miss (nothing stale was cached) and read real data.
  auto good = pool.Fetch(1);
  ASSERT_TRUE(good.ok()) << good.status().message();
  EXPECT_EQ(good->payload(), "page-1");
  EXPECT_EQ(pool.stats().hits, 0u);
}

TEST_F(BufferPoolFaultTest, ChecksumFailurePagesAreNotCached) {
  // Corrupt one payload byte of page 2 in the store image.
  auto image = vfs_.PeekFile("store");
  ASSERT_TRUE(image.ok());
  std::string damaged = *image;
  damaged[2 * kMinStorePageSize + kPageHeaderSize + 1] ^= 0x20;
  ASSERT_TRUE(AtomicWriteFile(&vfs_, "store", damaged).ok());
  auto file = PagedFile::Open("store", kMinStorePageSize);
  ASSERT_TRUE(file.ok());

  BufferPool pool(&*file, BufferPoolOptions{4});
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto bad = pool.Fetch(2);
    ASSERT_FALSE(bad.ok());
    EXPECT_NE(bad.status().message().find("checksum"), std::string::npos)
        << bad.status().message();
  }
  // Each attempt re-read and re-verified: the damaged page was never
  // admitted to the pool as either a frame or a hit.
  BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.checksum_failures, 2u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.resident_pages, 0u);
  // Healthy neighbors are unaffected.
  ASSERT_TRUE(pool.Fetch(1).ok());
  ASSERT_TRUE(pool.Fetch(3).ok());
}

TEST_F(BufferPoolFaultTest, ConcurrentFetchesUnderInjectedFaultsAreClean) {
  BufferPool pool(file_.get(), BufferPoolOptions{3});
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([this, &pool, t] {
      for (int i = 0; i < 200; ++i) {
        if (t == 0 && i % 17 == 0) vfs_.set_fail_reads(1);
        uint32_t page = static_cast<uint32_t>((i * 7 + t) % 6);
        auto ref = pool.Fetch(page);
        if (ref.ok()) {
          // A successful pin always reads verified, correct bytes, even
          // when other threads are absorbing injected I/O errors.
          EXPECT_EQ(ref->payload(), "page-" + std::to_string(page));
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.pinned_frames, 0u);
  EXPECT_EQ(s.fetches, 800u);
  EXPECT_GT(s.misses, 0u);
  // Every fetch resolves as a hit, a verified miss, a surfaced I/O
  // error, or an all-frames-pinned refusal — never double-counted.
  EXPECT_LE(s.hits + s.misses + s.io_errors, s.fetches);
}

}  // namespace
}  // namespace qof
