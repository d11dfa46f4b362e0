#include "sim/trace.h"

#include <gtest/gtest.h>

#include <set>

#include "common/fixtures.h"
#include "util/error.h"

namespace hedra::sim {
namespace {

TEST(TraceTest, MakespanIsLatestFinish) {
  const auto dag = testing::chain(2, 5);
  ScheduleTrace trace(&dag, 1);
  trace.add(Interval{0, 0, 0, 5});
  trace.add(Interval{1, 0, 5, 10});
  EXPECT_EQ(trace.makespan(), 10);
}

TEST(TraceTest, EmptyTraceHasZeroMakespan) {
  const auto dag = testing::chain(1, 1);
  const ScheduleTrace trace(&dag, 1);
  EXPECT_EQ(trace.makespan(), 0);
}

TEST(TraceTest, IntervalOfThrowsForMissingNode) {
  const auto dag = testing::chain(2, 5);
  ScheduleTrace trace(&dag, 1);
  trace.add(Interval{0, 0, 0, 5});
  EXPECT_THROW((void)trace.interval_of(1), Error);
}

TEST(TraceTest, AddRejectsMalformedIntervals) {
  const auto dag = testing::chain(2, 5);
  ScheduleTrace trace(&dag, 2);
  EXPECT_THROW(trace.add(Interval{9, 0, 0, 5}), Error);   // bad node
  EXPECT_THROW(trace.add(Interval{0, 5, 0, 5}), Error);   // bad unit
  EXPECT_THROW(trace.add(Interval{0, 0, 5, 3}), Error);   // negative span
}

TEST(TraceTest, ValidateAcceptsCorrectSchedule) {
  const auto dag = testing::chain(2, 5);
  ScheduleTrace trace(&dag, 1);
  trace.add(Interval{0, 0, 0, 5});
  trace.add(Interval{1, 0, 5, 10});
  EXPECT_TRUE(trace.validate().empty());
}

TEST(TraceTest, ValidateCatchesPrecedenceViolation) {
  const auto dag = testing::chain(2, 5);
  ScheduleTrace trace(&dag, 2);
  trace.add(Interval{0, 0, 0, 5});
  trace.add(Interval{1, 1, 3, 8});  // starts before predecessor finishes
  const auto issues = trace.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues.front().find("before predecessor"), std::string::npos);
}

TEST(TraceTest, ValidateCatchesCapacityOverlap) {
  graph::Dag dag;
  dag.add_node(5);
  dag.add_node(5);
  ScheduleTrace trace(&dag, 1);
  trace.add(Interval{0, 0, 0, 5});
  trace.add(Interval{1, 0, 3, 8});  // same core, overlapping
  const auto issues = trace.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues.front().find("overlaps"), std::string::npos);
}

TEST(TraceTest, ValidateCatchesWrongDuration) {
  const auto dag = testing::chain(1, 5);
  ScheduleTrace trace(&dag, 1);
  trace.add(Interval{0, 0, 0, 3});
  const auto issues = trace.validate();
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues.front().find("expected 5"), std::string::npos);
}

TEST(TraceTest, ValidateWithDurationsAcceptsEarlyCompletion) {
  const auto dag = testing::chain(2, 5);
  ScheduleTrace trace(&dag, 1);
  trace.add(Interval{0, 0, 0, 3});
  trace.add(Interval{1, 0, 3, 8});
  EXPECT_FALSE(trace.validate().empty());
  EXPECT_TRUE(trace.validate_with_durations({3, 5}).empty());
  EXPECT_THROW((void)trace.validate_with_durations({3}), Error);
}

TEST(TraceTest, ValidateCatchesMissingAndDuplicateNodes) {
  const auto dag = testing::chain(2, 5);
  ScheduleTrace trace(&dag, 2);
  trace.add(Interval{0, 0, 0, 5});
  trace.add(Interval{0, 1, 0, 5});  // node 0 twice, node 1 missing
  const auto issues = trace.validate();
  EXPECT_GE(issues.size(), 2u);
}

TEST(TraceTest, ValidateCatchesMisplacedOffload) {
  const auto ex = testing::paper_example();
  ScheduleTrace trace(&ex.dag, 2);
  trace.add(Interval{ex.voff, 0, 0, 4});  // offload on a host core
  const auto issues = trace.validate();
  bool found = false;
  for (const auto& issue : issues) {
    if (issue.find("off its device") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(TraceTest, ValidateCatchesHostNodeOnAccelerator) {
  const auto dag = testing::chain(1, 5);
  ScheduleTrace trace(&dag, 1);
  trace.add(Interval{0, kAcceleratorUnit, 0, 5});
  const auto issues = trace.validate();
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues.front().find("off the host cores"), std::string::npos);
}

TEST(TraceTest, ConstructionRequiresDagAndCores) {
  const auto dag = testing::chain(1, 1);
  EXPECT_THROW(ScheduleTrace(nullptr, 2), Error);
  EXPECT_THROW(ScheduleTrace(&dag, 0), Error);
  EXPECT_THROW(ScheduleTrace(&dag, 2, {0}), Error);  // units must be >= 1
}

TEST(TraceTest, UnitEncodingRoundTripsAndStaysInjective) {
  // Unit 0 keeps the historical odd negatives; extra units live on the even
  // negatives below kInstantUnit.  The encoding must be injective across
  // every (device, unit) pair and invert exactly.
  std::set<int> seen;
  for (graph::DeviceId d = 1; d <= 12; ++d) {
    for (int u = 0; u < 8; ++u) {
      const int unit = accelerator_unit(d, u);
      EXPECT_LT(unit, 0);
      EXPECT_NE(unit, kInstantUnit);
      EXPECT_TRUE(is_accelerator_unit(unit));
      EXPECT_EQ(device_of_unit(unit), d) << "d=" << d << " u=" << u;
      EXPECT_EQ(unit_index_of(unit), u) << "d=" << d << " u=" << u;
      EXPECT_TRUE(seen.insert(unit).second)
          << "collision at d=" << d << " u=" << u;
    }
  }
  // The historical single-unit ids are unchanged.
  EXPECT_EQ(accelerator_unit(1), -1);
  EXPECT_EQ(accelerator_unit(1, 0), kAcceleratorUnit);
  EXPECT_EQ(accelerator_unit(2), -3);
  EXPECT_EQ(accelerator_unit(3), -5);
  EXPECT_FALSE(is_accelerator_unit(kInstantUnit));
  EXPECT_FALSE(is_accelerator_unit(0));
  EXPECT_FALSE(is_accelerator_unit(7));
}

TEST(TraceTest, ValidateChecksUnitIndexAgainstDeviceUnitCount) {
  const auto ex = testing::paper_example();
  // One unit on device 1: an interval on unit index 1 is out of range.
  ScheduleTrace narrow(&ex.dag, 2);
  narrow.add(Interval{ex.voff, accelerator_unit(1, 1), 0, 4});
  bool found = false;
  for (const auto& issue : narrow.validate()) {
    if (issue.find("off its device") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(narrow.units_of(1), 1);

  // Two units: the same interval is a legal placement.
  ScheduleTrace wide(&ex.dag, 2, {2});
  EXPECT_EQ(wide.units_of(1), 2);
  wide.add(Interval{ex.voff, accelerator_unit(1, 1), 0, 4});
  bool misplaced = false;
  for (const auto& issue : wide.validate()) {
    if (issue.find("off its device") != std::string::npos) misplaced = true;
  }
  EXPECT_FALSE(misplaced);

  // A unit of the WRONG device is still rejected even if its index fits.
  ScheduleTrace other(&ex.dag, 2, {2});
  other.add(Interval{ex.voff, accelerator_unit(2, 0), 0, 4});
  bool wrong_device = false;
  for (const auto& issue : other.validate()) {
    if (issue.find("off its device") != std::string::npos) wrong_device = true;
  }
  EXPECT_TRUE(wrong_device);
}

}  // namespace
}  // namespace hedra::sim
