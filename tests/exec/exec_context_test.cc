// ExecContext unit coverage: arming, the checkpoint order, budgets, the
// stop flag, and fallback re-arming (see DESIGN.md, "Resource governance
// & failure model").

#include "qof/exec/exec_context.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include <gtest/gtest.h>

namespace qof {
namespace {

TEST(ExecContextTest, DefaultAndUnlimitedOptionsAreInactive) {
  ExecContext inactive;
  EXPECT_FALSE(inactive.active());
  EXPECT_TRUE(inactive.Check().ok());
  EXPECT_TRUE(inactive.ChargeRegions(1u << 30).ok());

  QueryOptions unlimited;
  EXPECT_TRUE(unlimited.unlimited());
  ExecContext from_options(unlimited);
  EXPECT_FALSE(from_options.active());
  EXPECT_TRUE(from_options.Check().ok());
}

TEST(ExecContextTest, AnyLimitActivates) {
  QueryOptions options;
  options.max_regions = 10;
  EXPECT_FALSE(options.unlimited());
  ExecContext ctx(options);
  EXPECT_TRUE(ctx.active());
  EXPECT_TRUE(ctx.Check().ok());
}

TEST(ExecContextTest, DeadlineTripsAndSetsStopFlag) {
  QueryOptions options;
  options.deadline_ms = 1;
  ExecContext ctx(options);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  Status s = ctx.Check();
  ASSERT_TRUE(s.IsDeadlineExceeded()) << s.ToString();
  EXPECT_FALSE(s.message().empty());
  EXPECT_TRUE(ctx.stopped());
}

TEST(ExecContextTest, CancellationFromAnotherThread) {
  QueryOptions options;
  options.cancel = std::make_shared<CancelToken>();
  ExecContext ctx(options);
  EXPECT_TRUE(ctx.Check().ok());
  std::thread canceller([&] { options.cancel->Cancel(); });
  canceller.join();
  Status s = ctx.Check();
  ASSERT_TRUE(s.IsCancelled()) << s.ToString();
  EXPECT_TRUE(ctx.stopped());
}

TEST(ExecContextTest, ByteBudgetWatchesTheCounter) {
  QueryOptions options;
  options.max_bytes = 100;
  ExecContext ctx(options);
  std::atomic<uint64_t> scanned{0};
  ctx.set_scanned_bytes_counter(&scanned);
  EXPECT_TRUE(ctx.Check().ok());
  scanned.store(101);
  Status s = ctx.Check();
  ASSERT_TRUE(s.IsBudgetExhausted()) << s.ToString();
  EXPECT_TRUE(ctx.stopped());
  // The byte budget is not the region budget: the fallback ladder must
  // not treat it as degradable.
  EXPECT_FALSE(ctx.regions_exhausted());
}

TEST(ExecContextTest, RegionBudgetAndFallbackReset) {
  QueryOptions options;
  options.max_regions = 10;
  ExecContext ctx(options);
  EXPECT_TRUE(ctx.ChargeRegions(10).ok());
  Status s = ctx.ChargeRegions(1);
  ASSERT_TRUE(s.IsBudgetExhausted()) << s.ToString();
  EXPECT_TRUE(ctx.regions_exhausted());
  EXPECT_TRUE(ctx.stopped());
  EXPECT_EQ(ctx.regions_charged(), 11u);

  // A fallback rung starts with a fresh intermediate-result budget and a
  // cleared stop flag; deadline/cancel/byte state would survive.
  ctx.ResetForFallback();
  EXPECT_FALSE(ctx.stopped());
  EXPECT_EQ(ctx.regions_charged(), 0u);
  EXPECT_TRUE(ctx.Check().ok());
  EXPECT_TRUE(ctx.ChargeRegions(5).ok());
}

TEST(ExecContextTest, CancellationWinsOverExhaustedBudget) {
  // Check() reports cancel > bytes > regions > deadline, so a cancelled
  // caller sees kCancelled even when budgets also tripped.
  QueryOptions options;
  options.cancel = std::make_shared<CancelToken>();
  options.max_bytes = 1;
  ExecContext ctx(options);
  std::atomic<uint64_t> scanned{999};
  ctx.set_scanned_bytes_counter(&scanned);
  options.cancel->Cancel();
  EXPECT_TRUE(ctx.Check().IsCancelled());
}

TEST(ExecContextTest, GovernanceErrorPredicate) {
  EXPECT_TRUE(IsGovernanceError(Status::DeadlineExceeded("d")));
  EXPECT_TRUE(IsGovernanceError(Status::Cancelled("c")));
  EXPECT_TRUE(IsGovernanceError(Status::BudgetExhausted("b")));
  EXPECT_FALSE(IsGovernanceError(Status::OK()));
  EXPECT_FALSE(IsGovernanceError(Status::Internal("i")));
  EXPECT_FALSE(IsGovernanceError(Status::NotFound("n")));
}

TEST(ExecContextTest, StopFlagSharedAcrossThreads) {
  // One thread tripping a budget must be visible to the others.
  QueryOptions options;
  options.max_regions = 1;
  ExecContext ctx(options);
  std::thread worker([&] { (void)ctx.ChargeRegions(2); });
  worker.join();
  EXPECT_TRUE(ctx.stopped());
  EXPECT_FALSE(ctx.Check().ok());
}

}  // namespace
}  // namespace qof
