#include "exact/bnb.h"

#include <gtest/gtest.h>

#include <string>

#include "common/brute_force.h"
#include "common/fixtures.h"
#include "graph/flat_dag.h"
#include "common/legacy_gen.h"
#include "exact/list_heuristics.h"
#include "graph/critical_path.h"
#include "util/error.h"
#include "util/rng.h"

namespace hedra::exact {
namespace {

TEST(BnbTest, ChainSingleCore) {
  const auto dag = testing::chain(4, 5);
  const BnbResult result = min_makespan(dag, 1);
  EXPECT_EQ(result.makespan, 20);
  EXPECT_TRUE(result.proven_optimal);
}

TEST(BnbTest, IndependentJobsPackPerfectly) {
  graph::Dag dag;
  dag.add_node(3);
  dag.add_node(3);
  dag.add_node(2);
  dag.add_node(2);
  dag.add_node(2);
  // {3,3} and {2,2,2}: optimal 6 on two cores.
  const BnbResult result = min_makespan(dag, 2);
  EXPECT_EQ(result.makespan, 6);
  EXPECT_TRUE(result.proven_optimal);
}

TEST(BnbTest, PaperExampleOptimalIs8) {
  const auto ex = testing::paper_example();
  const BnbResult result = min_makespan(ex.dag, 2);
  EXPECT_EQ(result.makespan, 8);  // Figure 1(b) best case
  EXPECT_TRUE(result.proven_optimal);
}

TEST(BnbTest, EnoughCoresReachLen) {
  const auto ex = testing::fig3_example();
  const BnbResult result = min_makespan(ex.dag, 16);
  EXPECT_EQ(result.makespan, graph::critical_path_length(ex.dag));
  EXPECT_TRUE(result.proven_optimal);
}

TEST(BnbTest, SandwichedByBoundAndHeuristic) {
  for (const auto& dag :
       {testing::paper_example().dag, testing::fig3_example().dag,
        testing::wide_gpar_example(4)}) {
    for (const int m : {1, 2, 4}) {
      const BnbResult result = min_makespan(dag, m);
      EXPECT_GE(result.makespan, result.root_lower_bound);
      EXPECT_LE(result.makespan, result.heuristic_upper_bound);
      const graph::FlatDag flat(dag);
      EXPECT_GE(result.heuristic_upper_bound,
                best_heuristic_makespan(flat.view(), m).makespan);
    }
  }
}

TEST(BnbTest, MonotoneInCores) {
  const auto ex = testing::fig3_example();
  graph::Time prev = min_makespan(ex.dag, 1).makespan;
  for (const int m : {2, 3, 4, 8}) {
    const graph::Time current = min_makespan(ex.dag, m).makespan;
    EXPECT_LE(current, prev) << "m=" << m;
    prev = current;
  }
}

TEST(BnbTest, TinyBudgetStillReturnsFeasibleMakespan) {
  const auto ex = testing::fig3_example();
  BnbConfig config;
  config.max_nodes = 1;
  const BnbResult result = min_makespan(ex.dag, 2, config);
  EXPECT_GE(result.makespan, result.root_lower_bound);
  EXPECT_LE(result.makespan, result.heuristic_upper_bound);
}

TEST(BnbTest, MultiOffloadSerialisation) {
  // Two parallel offloads of 5 behind a 1-tick source and before a 1-tick
  // sink: the single accelerator forces 12 regardless of host cores.
  graph::Dag dag;
  const auto v1 = dag.add_node(1);
  const auto o1 = dag.add_node(5, graph::NodeKind::kOffload, "o1");
  const auto o2 = dag.add_node(5, graph::NodeKind::kOffload, "o2");
  const auto vn = dag.add_node(1);
  dag.add_edge(v1, o1);
  dag.add_edge(v1, o2);
  dag.add_edge(o1, vn);
  dag.add_edge(o2, vn);
  const BnbResult result = min_makespan(dag, 8);
  EXPECT_EQ(result.makespan, 12);
  EXPECT_TRUE(result.proven_optimal);
}

TEST(BnbTest, InvalidInputsThrow) {
  EXPECT_THROW((void)min_makespan(graph::Dag{}, 2), Error);
  EXPECT_THROW((void)min_makespan(testing::chain(2, 1), 0), Error);
  graph::Dag two_devices;
  two_devices.add_node_on(1, 1);
  two_devices.add_node_on(1, 2);
  EXPECT_THROW((void)min_makespan(two_devices, 2), Error);
  // The snapshot's Kahn pass is the solver's acyclicity check.
  graph::Dag cyclic;
  const auto a = cyclic.add_node(1);
  const auto b = cyclic.add_node(1);
  cyclic.add_edge(a, b);
  cyclic.add_edge(b, a);
  try {
    (void)min_makespan(cyclic, 2);
    ADD_FAILURE() << "a cyclic graph was solved";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("graph contains a cycle"),
              std::string::npos)
        << e.what();
  }
}

TEST(BruteForceTest, GuardsAgainstLargeGraphs) {
  Rng rng(1);
  auto params = gen::HierarchicalParams::small_tasks();
  params.min_nodes = 20;
  const auto dag = gen::generate_hierarchical(params, rng);
  EXPECT_THROW((void)brute_force_min_makespan(dag, 2), Error);
}

TEST(BruteForceTest, MatchesHandComputedCases) {
  EXPECT_EQ(brute_force_min_makespan(testing::chain(3, 4), 1), 12);
  EXPECT_EQ(brute_force_min_makespan(testing::diamond(1, 5, 3, 1), 2), 7);
  const auto ex = testing::paper_example();
  EXPECT_EQ(brute_force_min_makespan(ex.dag, 2), 8);
}

/// The decisive cross-validation: the pruned, dominance-enabled B&B must
/// agree with the independent exhaustive enumeration on random tiny
/// instances across platforms.
class BnbCrossValidationTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(BnbCrossValidationTest, AgreesWithBruteForce) {
  Rng rng(GetParam());
  gen::HierarchicalParams params;
  params.max_depth = 2;
  params.n_par = 3;
  params.min_nodes = 4;
  params.max_nodes = 9;
  params.wcet_min = 1;
  params.wcet_max = 9;
  for (int round = 0; round < 8; ++round) {
    graph::Dag dag = gen::generate_hierarchical(params, rng);
    // Half the instances get an offload node to exercise the accelerator.
    if (dag.num_nodes() >= 3 && rng.bernoulli(0.5)) {
      (void)gen::select_offload_node(dag, rng);
    }
    for (const int m : {1, 2, 3}) {
      const graph::Time expected = brute_force_min_makespan(dag, m);
      const BnbResult actual = min_makespan(dag, m);
      ASSERT_TRUE(actual.proven_optimal);
      EXPECT_EQ(actual.makespan, expected)
          << "seed=" << GetParam() << " round=" << round << " m=" << m;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BnbCrossValidationTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

}  // namespace
}  // namespace hedra::exact
