#include "util/deadline.h"

#include <gtest/gtest.h>

#include <thread>

namespace hedra::util {
namespace {

TEST(DeadlineTest, DefaultNeverExpires) {
  const Deadline deadline;
  EXPECT_TRUE(deadline.unlimited());
  EXPECT_FALSE(deadline.expired());
  EXPECT_TRUE(Deadline::never().unlimited());
}

TEST(DeadlineTest, NonPositiveBudgetIsAlreadyExpired) {
  EXPECT_TRUE(Deadline::after(std::chrono::nanoseconds(0)).expired());
  EXPECT_TRUE(Deadline::after(std::chrono::nanoseconds(-5)).expired());
  EXPECT_TRUE(Deadline::after_seconds(0.0).expired());
  EXPECT_TRUE(Deadline::after_seconds(-1.0).expired());
}

TEST(DeadlineTest, FutureDeadlineExpiresAfterSleep) {
  const Deadline deadline = Deadline::after(std::chrono::milliseconds(5));
  EXPECT_FALSE(deadline.unlimited());
  EXPECT_FALSE(deadline.expired());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(deadline.expired());
}

TEST(BudgetTest, UnlimitedBudgetNeverExhausts) {
  Budget budget;
  for (int i = 0; i < 10'000; ++i) EXPECT_TRUE(budget.consume());
  EXPECT_FALSE(budget.exhausted());
  EXPECT_EQ(budget.outcome(), Outcome::kComplete);
  EXPECT_EQ(budget.used(), 10'000u);
}

TEST(BudgetTest, WorkCapExhaustsPermanently) {
  Budget budget{Deadline::never(), 100};
  std::uint64_t granted = 0;
  while (budget.consume()) ++granted;
  EXPECT_EQ(granted, 100u);
  EXPECT_TRUE(budget.exhausted());
  EXPECT_EQ(budget.outcome(), Outcome::kBudgetExhausted);
  // Sticky: no later consume succeeds.
  EXPECT_FALSE(budget.consume());
  EXPECT_FALSE(budget.consume(0));
}

TEST(BudgetTest, MultiUnitConsumeCountsUnits) {
  Budget budget{Deadline::never(), 100};
  EXPECT_TRUE(budget.consume(60));
  EXPECT_FALSE(budget.consume(60));  // 120 > 100
  EXPECT_TRUE(budget.exhausted());
}

TEST(BudgetTest, ExpiredDeadlineTripsWithinOneStride) {
  Budget budget{Deadline::after(std::chrono::nanoseconds(1))};
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  // The clock is only polled every kClockStride units, so exhaustion lands
  // within one stride of the expiry — never later.
  std::uint64_t granted = 0;
  while (budget.consume() && granted < 10 * Budget::kClockStride) ++granted;
  EXPECT_LE(granted, Budget::kClockStride);
  EXPECT_TRUE(budget.exhausted());
}

TEST(BudgetTest, ForceExhaustCancels) {
  Budget budget;
  budget.force_exhaust();
  EXPECT_TRUE(budget.exhausted());
  EXPECT_FALSE(budget.consume());
  EXPECT_EQ(budget.outcome(), Outcome::kBudgetExhausted);
}

}  // namespace
}  // namespace hedra::util
