#include <gtest/gtest.h>

#include <cmath>

#include "common/fixtures.h"
#include "common/legacy_gen.h"
#include "graph/validate.h"
#include "util/error.h"

namespace hedra::gen {
namespace {

graph::Dag host_only_paper_shape() {
  // The paper example's shape, all nodes host, so an offload can be chosen.
  graph::Dag dag;
  const auto v1 = dag.add_node(1);
  const auto v2 = dag.add_node(4);
  const auto v3 = dag.add_node(6);
  const auto v4 = dag.add_node(2);
  const auto v5 = dag.add_node(1);
  const auto v6 = dag.add_node(4);
  dag.add_edge(v1, v2);
  dag.add_edge(v1, v3);
  dag.add_edge(v1, v4);
  dag.add_edge(v4, v6);
  dag.add_edge(v2, v5);
  dag.add_edge(v3, v5);
  dag.add_edge(v6, v5);
  return dag;
}

TEST(OffloadTest, SelectionPicksInternalNode) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    graph::Dag dag = host_only_paper_shape();
    const graph::NodeId voff = select_offload_node(dag, rng);
    EXPECT_GT(dag.in_degree(voff), 0u);
    EXPECT_GT(dag.out_degree(voff), 0u);
    EXPECT_EQ(dag.kind(voff), graph::NodeKind::kOffload);
    EXPECT_EQ(dag.label(voff), "vOff");
    EXPECT_TRUE(graph::is_valid(dag, graph::heterogeneous_rules()));
  }
}

TEST(OffloadTest, SelectionPreservesStructure) {
  Rng rng(3);
  graph::Dag dag = host_only_paper_shape();
  const auto edges_before = dag.edges();
  const auto volume_before = dag.volume();
  (void)select_offload_node(dag, rng);
  EXPECT_EQ(dag.edges(), edges_before);
  EXPECT_EQ(dag.volume(), volume_before);
}

TEST(OffloadTest, SelectionRejectsExistingOffload) {
  Rng rng(1);
  auto ex = testing::paper_example();
  EXPECT_THROW(select_offload_node(ex.dag, rng), Error);
}

TEST(OffloadTest, SelectionRejectsTinyGraph) {
  Rng rng(1);
  graph::Dag dag = testing::chain(2, 1);
  EXPECT_THROW(select_offload_node(dag, rng), Error);
}

TEST(OffloadTest, RatioAssignmentHitsTarget) {
  // On the 14-tick paper example, the 1-tick granularity floors how closely
  // tiny ratios can be realised, so the sweep starts at 10%.
  for (const double ratio : {0.1, 0.3, 0.5, 0.7}) {
    auto ex = testing::paper_example();
    const graph::Time c_off = set_offload_ratio(ex.dag, ratio);
    EXPECT_EQ(ex.dag.wcet(ex.voff), c_off);
    const double realised = offload_ratio(ex.dag);
    // Rounding to integer ticks: on a 14-tick host workload the error can be
    // a sizeable part of a percent, but must shrink with volume.
    EXPECT_NEAR(realised, ratio, 0.05) << "ratio=" << ratio;
  }
}

TEST(OffloadTest, RatioAccuracyImprovesWithVolume) {
  Rng rng(11);
  auto params = HierarchicalParams::large_tasks_100_250();
  graph::Dag dag = generate_hierarchical(params, rng);
  (void)select_offload_node(dag, rng);
  for (const double ratio : {0.0012, 0.01, 0.2, 0.5}) {
    (void)set_offload_ratio(dag, ratio);
    EXPECT_NEAR(offload_ratio(dag), ratio, 0.002) << "ratio=" << ratio;
  }
}

TEST(OffloadTest, RatioMinimumIsOneTick) {
  auto ex = testing::paper_example();
  (void)set_offload_ratio(ex.dag, 0.0001);
  EXPECT_EQ(ex.dag.wcet(ex.voff), 1);
}

TEST(OffloadTest, RatioBoundsEnforced) {
  auto ex = testing::paper_example();
  EXPECT_THROW(set_offload_ratio(ex.dag, 0.0), Error);
  EXPECT_THROW(set_offload_ratio(ex.dag, 1.0), Error);
  graph::Dag plain = testing::chain(3, 1);
  EXPECT_THROW(set_offload_ratio(plain, 0.5), Error);
}

TEST(OffloadTest, OffloadRatioRequiresOffloadNode) {
  const graph::Dag plain = testing::chain(3, 1);
  EXPECT_THROW((void)offload_ratio(plain), Error);
}

}  // namespace
}  // namespace hedra::gen
