#include "exact/list_heuristics.h"

#include <gtest/gtest.h>

#include "common/fixtures.h"
#include "exact/bnb.h"
#include "graph/flat_dag.h"

namespace hedra::exact {
namespace {

TEST(HeuristicsTest, FindsChainOptimum) {
  const auto dag = testing::chain(4, 5);
  const graph::FlatDag flat(dag);
  EXPECT_EQ(best_heuristic_makespan(flat.view(), 2).makespan, 20);
}

TEST(HeuristicsTest, PaperExampleBestIs8) {
  // Critical-path-first reproduces the Figure 1(b) best case, which matches
  // the lower bound, so the heuristic sweep is optimal here.
  const auto ex = testing::paper_example();
  const graph::FlatDag flat(ex.dag);
  const auto result = best_heuristic_makespan(flat.view(), 2);
  EXPECT_EQ(result.makespan, 8);
}

TEST(HeuristicsTest, NeverBelowLowerBound) {
  for (const auto& dag :
       {testing::paper_example().dag, testing::fig3_example().dag,
        testing::s21_example(), testing::wide_gpar_example(4)}) {
    const graph::FlatDag flat(dag);
    for (const int m : {1, 2, 4, 8}) {
      EXPECT_GE(best_heuristic_makespan(flat.view(), m).makespan,
                min_makespan(dag, m).root_lower_bound);
    }
  }
}

TEST(HeuristicsTest, BestOverPoliciesIsMinimum) {
  const auto ex = testing::paper_example();
  const graph::FlatDag flat(ex.dag);
  const auto best = best_heuristic_makespan(flat.view(), 2);
  for (const auto policy :
       {sim::Policy::kBreadthFirst, sim::Policy::kDepthFirst,
        sim::Policy::kCriticalPathFirst, sim::Policy::kIndexOrder}) {
    sim::SimConfig config;
    config.cores = 2;
    config.policy = policy;
    EXPECT_LE(best.makespan, sim::simulated_makespan(ex.dag, config));
  }
}

TEST(HeuristicsTest, RandomTriesCanOnlyImprove) {
  const auto ex = testing::fig3_example();
  const graph::FlatDag flat(ex.dag);
  const auto none = best_heuristic_makespan(flat.view(), 2, /*random_tries=*/0);
  const auto many =
      best_heuristic_makespan(flat.view(), 2, /*random_tries=*/16);
  EXPECT_LE(many.makespan, none.makespan);
}

}  // namespace
}  // namespace hedra::exact
