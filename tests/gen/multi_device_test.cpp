#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "common/legacy_gen.h"
#include "graph/validate.h"
#include "util/rng.h"

namespace hedra {
namespace {

gen::HierarchicalParams test_params() {
  gen::HierarchicalParams params;
  params.min_nodes = 30;
  params.max_nodes = 120;
  return params;
}

TEST(MultiDeviceGenTest, SelectPlacesDistinctInternalNodesDeviceMajor) {
  Rng rng(1);
  graph::Dag dag = gen::generate_hierarchical(test_params(), rng);
  const auto chosen = gen::select_offload_nodes(dag, 3, 2, rng);
  ASSERT_EQ(chosen.size(), 6u);
  const std::set<graph::NodeId> unique(chosen.begin(), chosen.end());
  EXPECT_EQ(unique.size(), 6u);
  for (std::size_t i = 0; i < chosen.size(); ++i) {
    const auto expected_device = static_cast<graph::DeviceId>(1 + i / 2);
    EXPECT_EQ(dag.device(chosen[i]), expected_device);
    EXPECT_GT(dag.in_degree(chosen[i]), 0u);
    EXPECT_GT(dag.out_degree(chosen[i]), 0u);
  }
  EXPECT_EQ(dag.device_ids(), (std::vector<graph::DeviceId>{1, 2, 3}));
  EXPECT_EQ(dag.offload_nodes().size(), 6u);
}

TEST(MultiDeviceGenTest, SelectRejectsBadRequests) {
  Rng rng(2);
  graph::Dag dag = gen::generate_hierarchical(test_params(), rng);
  EXPECT_THROW((void)gen::select_offload_nodes(dag, 0, 1, rng), Error);
  EXPECT_THROW((void)gen::select_offload_nodes(dag, 1, 0, rng), Error);
  EXPECT_THROW(
      (void)gen::select_offload_nodes(dag, 1000, 1000, rng), Error);
  (void)gen::select_offload_nodes(dag, 1, 1, rng);
  EXPECT_THROW((void)gen::select_offload_nodes(dag, 1, 1, rng), Error);
}

TEST(MultiDeviceGenTest, EvenSplitHitsTheTargetTotalRatio) {
  Rng rng(3);
  graph::Dag dag = gen::generate_hierarchical(test_params(), rng);
  (void)gen::select_offload_nodes(dag, 2, 2, rng);
  for (const double ratio : {0.05, 0.2, 0.4, 0.6}) {
    const gen::OffloadSplit split = gen::set_offload_ratio_multi(dag, ratio);
    graph::Time device_sum = 0;
    for (const auto device : dag.device_ids()) {
      device_sum += dag.volume_on(device);
    }
    EXPECT_EQ(split.total, device_sum);
    const double realised =
        static_cast<double>(split.total) / static_cast<double>(dag.volume());
    EXPECT_NEAR(realised, ratio, 0.02) << "target " << ratio;
    // Even mix: device shares are balanced within rounding.
    EXPECT_NEAR(gen::device_ratio(dag, 1), gen::device_ratio(dag, 2), 0.02);
  }
}

/// SATELLITE REGRESSION: the returned per-device breakdown makes the
/// cumulative-rounding split verifiable — every entry matches the graph's
/// realised per-device volume and the budget invariant Σ_d vol_d == total
/// holds for even and skewed mixes alike.
TEST(MultiDeviceGenTest, BreakdownMatchesRealisedVolumesAndSumsToTotal) {
  for (const std::uint64_t seed : {8u, 9u, 10u}) {
    Rng rng(seed);
    graph::Dag dag = gen::generate_hierarchical(test_params(), rng);
    (void)gen::select_offload_nodes(dag, 3, 2, rng);
    const std::vector<double> mix{5.0, 1.0, 0.001};
    const gen::OffloadSplit split = gen::set_offload_ratio_multi(dag, 0.35, mix);
    ASSERT_EQ(split.per_device.size(), 3u);
    graph::Time sum = 0;
    for (const auto& [device, volume] : split.per_device) {
      EXPECT_EQ(volume, dag.volume_on(device)) << "device " << device;
      // The documented floor: every node keeps WCET >= 1, so a device with
      // k offload nodes realises at least k ticks even at near-zero weight.
      EXPECT_GE(volume, static_cast<graph::Time>(dag.nodes_on(device).size()))
          << "device " << device;
      sum += volume;
    }
    EXPECT_EQ(sum, split.total);
  }
}

/// SATELLITE REGRESSION: a zero-weight mix previously divided by zero
/// (weight_sum == 0 → llround(NaN), undefined behaviour) and silently
/// starved devices; degenerate weights are now rejected up front.
TEST(MultiDeviceGenTest, RejectsZeroNegativeAndNonFiniteMixWeights) {
  Rng rng(11);
  graph::Dag dag = gen::generate_hierarchical(test_params(), rng);
  (void)gen::select_offload_nodes(dag, 2, 1, rng);
  EXPECT_THROW((void)gen::set_offload_ratio_multi(dag, 0.3, {0.0, 0.0}), Error)
      << "all-zero weights divide by zero";
  EXPECT_THROW((void)gen::set_offload_ratio_multi(dag, 0.3, {0.0, 1.0}), Error)
      << "a zero weight starves its device";
  EXPECT_THROW((void)gen::set_offload_ratio_multi(dag, 0.3, {-1.0, 2.0}),
               Error);
  EXPECT_THROW((void)gen::set_offload_ratio_multi(
                   dag, 0.3,
                   {std::numeric_limits<double>::quiet_NaN(), 1.0}),
               Error);
  EXPECT_THROW((void)gen::set_offload_ratio_multi(
                   dag, 0.3,
                   {std::numeric_limits<double>::infinity(), 1.0}),
               Error);
  // Tiny but positive weights stay legal and keep the per-node floor.
  const gen::OffloadSplit split =
      gen::set_offload_ratio_multi(dag, 0.3, {1e-9, 1.0});
  EXPECT_GE(split.per_device[0].second, 1);
}

TEST(MultiDeviceGenTest, MixWeightsSkewTheDeviceShares) {
  Rng rng(4);
  graph::Dag dag = gen::generate_hierarchical(test_params(), rng);
  (void)gen::select_offload_nodes(dag, 2, 1, rng);
  (void)gen::set_offload_ratio_multi(dag, 0.4, {3.0, 1.0});
  const double r1 = gen::device_ratio(dag, 1);
  const double r2 = gen::device_ratio(dag, 2);
  EXPECT_NEAR(r1 / r2, 3.0, 0.5);
  EXPECT_NEAR(r1 + r2, 0.4, 0.02);
}

TEST(MultiDeviceGenTest, RatioRejectsBadInput) {
  Rng rng(5);
  graph::Dag dag = gen::generate_hierarchical(test_params(), rng);
  EXPECT_THROW((void)gen::set_offload_ratio_multi(dag, 0.3), Error)
      << "no offload nodes selected yet";
  (void)gen::select_offload_nodes(dag, 2, 1, rng);
  EXPECT_THROW((void)gen::set_offload_ratio_multi(dag, 0.0), Error);
  EXPECT_THROW((void)gen::set_offload_ratio_multi(dag, 1.0), Error);
  EXPECT_THROW((void)gen::set_offload_ratio_multi(dag, 0.3, {1.0}), Error)
      << "mix size must match the devices present";
}

TEST(MultiDeviceGenTest, GeneratorProducesValidDeviceAnnotatedDags) {
  gen::HierarchicalParams params = test_params();
  params.num_devices = 3;
  params.offloads_per_device = 2;
  Rng master(6);
  graph::ValidationRules rules = graph::heterogeneous_rules();
  rules.required_offload_count = -1;
  for (int i = 0; i < 20; ++i) {
    Rng rng = master.fork();
    const graph::Dag dag = gen::generate_multi_device(params, 0.3, rng);
    EXPECT_TRUE(graph::is_valid(dag, rules));
    EXPECT_EQ(dag.device_ids().size(), 3u);
    EXPECT_EQ(dag.offload_nodes().size(), 6u);
    EXPECT_EQ(dag.max_device(), 3);
    const double realised = static_cast<double>(dag.volume() -
                                                dag.host_volume()) /
                            static_cast<double>(dag.volume());
    EXPECT_NEAR(realised, 0.3, 0.05);
  }
}

TEST(MultiDeviceGenTest, SpeedupScalesPerDeviceBudgets) {
  // SATELLITE (PR 5): heterogeneous WCET scaling.  A 2x device realises
  // about half the device-time volume of its unit-speed twin generated
  // from the identical RNG stream; unscaled devices are untouched.
  gen::HierarchicalParams params = test_params();
  params.num_devices = 2;
  params.offloads_per_device = 2;
  Rng a(31);
  Rng b(31);
  graph::Dag plain = gen::generate_hierarchical(params, a);
  graph::Dag scaled = gen::generate_hierarchical(params, b);
  (void)gen::select_offload_nodes(plain, 2, 2, a);
  (void)gen::select_offload_nodes(scaled, 2, 2, b);
  const auto plain_split = gen::set_offload_ratio_multi(plain, 0.4);
  const auto scaled_split =
      gen::set_offload_ratio_multi(scaled, 0.4, {}, {2.0, 1.0});
  ASSERT_EQ(plain_split.per_device.size(), 2u);
  ASSERT_EQ(scaled_split.per_device.size(), 2u);
  EXPECT_NEAR(static_cast<double>(scaled_split.per_device[0].second),
              static_cast<double>(plain_split.per_device[0].second) / 2.0,
              2.0);
  EXPECT_EQ(scaled_split.per_device[1].second,
            plain_split.per_device[1].second);
  // The split invariant holds for the scaled graph too.
  graph::Time sum = 0;
  for (const auto& [device, volume] : scaled_split.per_device) sum += volume;
  EXPECT_EQ(sum, scaled_split.total);
}

TEST(MultiDeviceGenTest, SpeedupRejectsDegenerateFactors) {
  gen::HierarchicalParams params = test_params();
  params.num_devices = 2;
  Rng rng(32);
  graph::Dag dag = gen::generate_hierarchical(params, rng);
  (void)gen::select_offload_nodes(dag, 2, 1, rng);
  EXPECT_THROW((void)gen::set_offload_ratio_multi(dag, 0.3, {}, {1.0}),
               Error);  // one factor for two devices
  EXPECT_THROW((void)gen::set_offload_ratio_multi(dag, 0.3, {}, {0.0, 1.0}),
               Error);
  EXPECT_THROW((void)gen::set_offload_ratio_multi(dag, 0.3, {}, {-2.0, 1.0}),
               Error);
}

TEST(MultiDeviceGenTest, HierarchicalParamsValidateSpeedups) {
  gen::HierarchicalParams params = test_params();
  params.num_devices = 2;
  params.device_speedup = {2.0};  // one entry for two devices
  EXPECT_THROW(params.validate(), Error);
  params.device_speedup = {2.0, 0.0};
  EXPECT_THROW(params.validate(), Error);
  params.device_speedup = {2.0, 1.5};
  EXPECT_NO_THROW(params.validate());
}

TEST(MultiDeviceGenTest, GeneratorIsDeterministicPerSeed) {
  gen::HierarchicalParams params = test_params();
  params.num_devices = 2;
  Rng a(7);
  Rng b(7);
  const graph::Dag first = gen::generate_multi_device(params, 0.25, a);
  const graph::Dag second = gen::generate_multi_device(params, 0.25, b);
  ASSERT_EQ(first.num_nodes(), second.num_nodes());
  EXPECT_EQ(first.edges(), second.edges());
  for (graph::NodeId v = 0; v < first.num_nodes(); ++v) {
    EXPECT_EQ(first.wcet(v), second.wcet(v));
    EXPECT_EQ(first.device(v), second.device(v));
  }
}

}  // namespace
}  // namespace hedra
