#include "gen/hierarchical.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/algorithms.h"
#include "graph/validate.h"
#include "util/error.h"

namespace hedra::gen {
namespace {

/// Structural properties must hold for every seed — parameterized sweep.
class HierarchicalPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(HierarchicalPropertyTest, SmallPresetIsStructurallyValid) {
  Rng rng(GetParam());
  const auto params = HierarchicalParams::small_tasks();
  const graph::Dag dag = generate_hierarchical(params, rng);
  graph::ValidationRules homogeneous;  // no offload node expected
  homogeneous.required_offload_count = 0;
  EXPECT_TRUE(graph::is_valid(dag, homogeneous))
      << graph::validate(dag, homogeneous).front();
}

TEST_P(HierarchicalPropertyTest, NodeCountWithinWindow) {
  Rng rng(GetParam());
  const auto params = HierarchicalParams::small_tasks();
  const graph::Dag dag = generate_hierarchical(params, rng);
  EXPECT_GE(dag.num_nodes(), static_cast<std::size_t>(params.min_nodes));
  EXPECT_LE(dag.num_nodes(), static_cast<std::size_t>(params.max_nodes));
}

TEST_P(HierarchicalPropertyTest, WcetsWithinRange) {
  Rng rng(GetParam());
  auto params = HierarchicalParams::small_tasks();
  params.wcet_min = 10;
  params.wcet_max = 20;
  const graph::Dag dag = generate_hierarchical(params, rng);
  for (graph::NodeId v = 0; v < dag.num_nodes(); ++v) {
    EXPECT_GE(dag.wcet(v), 10);
    EXPECT_LE(dag.wcet(v), 20);
  }
}

TEST_P(HierarchicalPropertyTest, LongestPathBoundedByDepth) {
  // §5.1: maxdepth determines the longest possible path: 2·maxdepth + 1
  // nodes (fork/join nesting).  maxdepth = 3 -> 7, maxdepth = 5 -> 11.
  // Checked on every path, by node count, not only on the critical one.
  Rng rng(GetParam());
  const auto params = HierarchicalParams::small_tasks();
  const graph::Dag dag = generate_hierarchical(params, rng);
  std::vector<int> nodes_to(dag.num_nodes(), 1);  // longest path ending at v
  int longest = 0;
  for (const graph::NodeId v : graph::topological_order(dag)) {
    longest = std::max(longest, nodes_to[v]);
    for (const graph::NodeId s : dag.successors(v)) {
      nodes_to[s] = std::max(nodes_to[s], nodes_to[v] + 1);
    }
  }
  EXPECT_LE(longest, 2 * params.max_depth + 1);
}

TEST_P(HierarchicalPropertyTest, NoTransitiveEdges) {
  Rng rng(GetParam());
  const graph::Dag dag =
      generate_hierarchical(HierarchicalParams::large_tasks_100_250(), rng);
  EXPECT_TRUE(graph::transitive_edges(dag).empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, HierarchicalPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

TEST(HierarchicalTest, LargePresetReachesWindow) {
  Rng rng(7);
  const auto params = HierarchicalParams::large_tasks();
  for (int i = 0; i < 5; ++i) {
    const graph::Dag dag = generate_hierarchical(params, rng);
    EXPECT_GE(dag.num_nodes(), 100u);
    EXPECT_LE(dag.num_nodes(), 400u);
  }
}

TEST(HierarchicalTest, DeterministicGivenSeed) {
  const auto params = HierarchicalParams::small_tasks();
  Rng a(99);
  Rng b(99);
  const graph::Dag da = generate_hierarchical(params, a);
  const graph::Dag db = generate_hierarchical(params, b);
  ASSERT_EQ(da.num_nodes(), db.num_nodes());
  EXPECT_EQ(da.edges(), db.edges());
  for (graph::NodeId v = 0; v < da.num_nodes(); ++v) {
    EXPECT_EQ(da.wcet(v), db.wcet(v));
  }
}

TEST(HierarchicalTest, BranchFactorRespected) {
  Rng rng(3);
  auto params = HierarchicalParams::small_tasks();
  params.n_par = 3;
  for (int i = 0; i < 10; ++i) {
    const graph::Dag dag = generate_hierarchical(params, rng);
    for (graph::NodeId v = 0; v < dag.num_nodes(); ++v) {
      EXPECT_LE(dag.out_degree(v), 3u);
    }
  }
}

TEST(HierarchicalTest, UnreachableWindowThrows) {
  Rng rng(1);
  auto params = HierarchicalParams::small_tasks();
  params.min_nodes = 2;
  params.max_nodes = 3;  // expansion yields 1 or >= 4 nodes, never 2-3
  params.max_attempts = 200;
  EXPECT_THROW(generate_hierarchical(params, rng), Error);
}

TEST(HierarchicalTest, InvalidParamsThrow) {
  Rng rng(1);
  auto params = HierarchicalParams::small_tasks();
  params.p_par = 1.5;
  EXPECT_THROW(generate_hierarchical(params, rng), Error);
  params = HierarchicalParams::small_tasks();
  params.n_par = 1;
  EXPECT_THROW(generate_hierarchical(params, rng), Error);
  params = HierarchicalParams::small_tasks();
  params.wcet_min = 5;
  params.wcet_max = 4;
  EXPECT_THROW(generate_hierarchical(params, rng), Error);
}

TEST(HierarchicalTest, ZeroPparYieldsSingleNodeWindow) {
  Rng rng(5);
  auto params = HierarchicalParams::small_tasks();
  params.p_par = 0.0;
  params.min_nodes = 1;
  params.max_nodes = 1;
  const graph::Dag dag = generate_hierarchical(params, rng);
  EXPECT_EQ(dag.num_nodes(), 1u);
}

TEST(HierarchicalTest, PaperPresetDefaults) {
  const auto small = HierarchicalParams::small_tasks();
  EXPECT_EQ(small.max_depth, 3);
  EXPECT_EQ(small.n_par, 6);
  EXPECT_EQ(small.max_nodes, 100);
  const auto large = HierarchicalParams::large_tasks();
  EXPECT_EQ(large.max_depth, 5);
  EXPECT_EQ(large.n_par, 8);
  EXPECT_EQ(large.min_nodes, 100);
  EXPECT_EQ(large.max_nodes, 400);
  EXPECT_DOUBLE_EQ(large.p_par, 0.5);
  EXPECT_EQ(large.wcet_min, 1);
  EXPECT_EQ(large.wcet_max, 100);
}

}  // namespace
}  // namespace hedra::gen
