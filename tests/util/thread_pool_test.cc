#include "qof/util/thread_pool.h"

#include <atomic>
#include <future>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

namespace qof {
namespace {

TEST(EffectiveParallelismTest, PositiveIsLiteral) {
  EXPECT_EQ(EffectiveParallelism(1), 1);
  EXPECT_EQ(EffectiveParallelism(7), 7);
}

TEST(EffectiveParallelismTest, ZeroAndNegativeMeanHardware) {
  EXPECT_GE(EffectiveParallelism(0), 1);
  EXPECT_GE(EffectiveParallelism(-3), 1);
  EXPECT_EQ(EffectiveParallelism(0), EffectiveParallelism(-1));
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  constexpr size_t kItems = 10000;
  std::vector<std::atomic<int>> hits(kItems);
  pool.ParallelFor(kItems, [&](int, size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ZeroItemsIsANoOp) {
  ThreadPool pool(4);
  bool called = false;
  pool.ParallelFor(0, [&](int, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, SingleThreadRunsInlineInOrder) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  std::vector<size_t> order;
  pool.ParallelFor(5, [&](int worker, size_t i) {
    EXPECT_EQ(worker, 0);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, WorkerIdsAddressDistinctScratch) {
  ThreadPool pool(3);
  std::vector<uint64_t> per_worker(3, 0);
  constexpr size_t kItems = 5000;
  pool.ParallelFor(kItems, [&](int worker, size_t i) {
    ASSERT_GE(worker, 0);
    ASSERT_LT(worker, 3);
    per_worker[static_cast<size_t>(worker)] += i + 1;
  });
  uint64_t total =
      std::accumulate(per_worker.begin(), per_worker.end(), uint64_t{0});
  EXPECT_EQ(total, kItems * (kItems + 1) / 2);
}

TEST(ThreadPoolTest, ReusableAcrossManyJobs) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<uint64_t> sum{0};
    pool.ParallelFor(100, [&](int, size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    ASSERT_EQ(sum.load(), 100u * 99u / 2u) << "round " << round;
  }
}

TEST(ThreadPoolTest, MoreWorkersThanItems) {
  ThreadPool pool(8);
  std::atomic<int> calls{0};
  pool.ParallelFor(3, [&](int, size_t) {
    calls.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(calls.load(), 3);
}

TEST(NullPoolParallelForTest, RunsEachIndexOnceInOrderAsWorkerZero) {
  EXPECT_EQ(WorkerCount(nullptr), 1);
  std::vector<size_t> order;
  ParallelFor(nullptr, 5, [&](int worker, size_t i) {
    EXPECT_EQ(worker, 0);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(NullPoolParallelForTest, SetStopFlagEndsTheLoop) {
  std::atomic<bool> stop{false};
  std::vector<size_t> order;
  ParallelFor(
      nullptr, 10,
      [&](int, size_t i) {
        order.push_back(i);
        if (i == 2) stop.store(true, std::memory_order_relaxed);
      },
      &stop);
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2}));
  // A flag already set runs nothing.
  ParallelFor(nullptr, 10, [&](int, size_t i) { order.push_back(i); },
              &stop);
  EXPECT_EQ(order.size(), 3u);
}

TEST(NullPoolParallelForTest, PoolArgumentDelegatesToThePool) {
  ThreadPool pool(3);
  EXPECT_EQ(WorkerCount(&pool), 3);
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(&pool, hits.size(), [&](int worker, size_t i) {
    ASSERT_LT(worker, 3);
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(TaskQueueTest, RunsEveryAcceptedTask) {
  TaskQueue queue(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(queue.TrySubmit(
        [&] { ran.fetch_add(1, std::memory_order_relaxed); }));
  }
  queue.Shutdown();
  EXPECT_EQ(ran.load(), 100);
}

TEST(TaskQueueTest, BoundedQueueRefusesExcessWithoutRunningIt) {
  TaskQueue queue(1, /*max_queued=*/1);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::promise<void> running;
  // Occupy the single worker...
  ASSERT_TRUE(queue.TrySubmit([&, released] {
    running.set_value();
    released.wait();
  }));
  running.get_future().wait();
  // ...one slot queues, the next is refused at the door.
  std::atomic<int> ran{0};
  EXPECT_TRUE(queue.TrySubmit([&] { ++ran; }));
  std::atomic<bool> rejected_ran{false};
  EXPECT_FALSE(queue.TrySubmit([&] { rejected_ran.store(true); }));
  release.set_value();
  queue.Shutdown();
  EXPECT_EQ(ran.load(), 1);
  EXPECT_FALSE(rejected_ran.load());
}

TEST(TaskQueueTest, SubmitAfterShutdownIsRefused) {
  TaskQueue queue(2);
  queue.Shutdown();
  queue.Shutdown();  // idempotent
  EXPECT_FALSE(queue.TrySubmit([] {}));
}

TEST(TaskQueueTest, ShutdownDrainsQueuedTasks) {
  // Tasks accepted before Shutdown must run even if Shutdown races the
  // workers picking them up.
  TaskQueue queue(1);
  std::atomic<int> ran{0};
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(queue.TrySubmit(
        [&] { ran.fetch_add(1, std::memory_order_relaxed); }));
  }
  queue.Shutdown();
  EXPECT_EQ(ran.load(), 20);
}

TEST(TaskQueueTest, CountersAreConsistentWhenIdle) {
  TaskQueue queue(3);
  EXPECT_EQ(queue.size(), 3);
  queue.Shutdown();
  EXPECT_EQ(queue.queued(), 0u);
  EXPECT_EQ(queue.active(), 0);
}

}  // namespace
}  // namespace qof
