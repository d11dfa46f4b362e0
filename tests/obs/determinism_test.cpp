#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/contention_oracle.h"
#include "common/contention_text.h"
#include "common/fixtures.h"
#include "exact/bnb.h"
#include "obs/metrics.h"
#include "taskset/contention_rta.h"
#include "taskset/gen.h"
#include "taskset/taskset.h"
#include "util/rng.h"

/// The determinism contract of the telemetry layer (ISSUE PR 10): enabling
/// metrics must not change a single analysis byte.  Recording never
/// consumes RNG streams, never takes locks on analysis hot paths, and
/// flushes only aggregate counters — so every result below is compared for
/// EXACT equality between a metrics-off and a metrics-on run.

namespace hedra {
namespace {

taskset::TaskSet contended_set() {
  taskset::TaskSetGenConfig config;
  config.num_tasks = 4;
  config.total_utilization = 2.0;
  config.dag_params.min_nodes = 8;
  config.dag_params.max_nodes = 20;
  config.dag_params.num_devices = 2;
  config.cores = 8;
  Rng rng(2024);
  return taskset::generate_task_set(config, rng);
}

class ObsDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(false);
    obs::reset_values();
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::reset_values();
  }
};

TEST_F(ObsDeterminismTest, ContentionRtaExplainIsByteIdentical) {
  const taskset::TaskSet set = contended_set();
  const taskset::ContentionAnalysis off = taskset::contention_rta(set);
  const std::string off_text = testing::explain(off, set);

  obs::set_enabled(true);
  const taskset::ContentionAnalysis on = taskset::contention_rta(set);
  const std::string on_text = testing::explain(on, set);

  EXPECT_EQ(off_text, on_text);
  EXPECT_EQ(off.schedulable, on.schedulable);
  EXPECT_EQ(off.cores_used, on.cores_used);
  EXPECT_EQ(off.telemetry.iterations, on.telemetry.iterations);
  EXPECT_EQ(off.telemetry.fixpoint_solves, on.telemetry.fixpoint_solves);
  // The enabled run actually flushed into the registry.
  EXPECT_EQ(obs::counter("taskset.rta.analyses").value(), 1u);
  EXPECT_EQ(obs::counter("taskset.rta.iterations").value(),
            on.telemetry.iterations);
}

graph::Dag search_forcing_dag();

TEST_F(ObsDeterminismTest, SequentialBnbIsByteIdentical) {
  const graph::Dag dag = search_forcing_dag();
  exact::BnbConfig config;
  config.jobs = 1;

  const exact::BnbResult off = exact::min_makespan(dag, 2, config);
  obs::set_enabled(true);
  const exact::BnbResult on = exact::min_makespan(dag, 2, config);

  EXPECT_EQ(off.makespan, on.makespan);
  EXPECT_EQ(off.nodes_explored, on.nodes_explored);
  EXPECT_EQ(off.proven_optimal, on.proven_optimal);
  EXPECT_EQ(off.root_lower_bound, on.root_lower_bound);
  EXPECT_EQ(off.heuristic_upper_bound, on.heuristic_upper_bound);
  // Every search counter, in aggregate and per worker.
  const auto counters = [](const exact::SearchStats& s) {
    return std::vector<std::uint64_t>{s.nodes,        s.prune_incumbent,
                                      s.prune_bound,  s.budget_polls,
                                      s.steals,       s.splits,
                                      s.split_refusals};
  };
  EXPECT_EQ(counters(off.stats), counters(on.stats));
  ASSERT_EQ(off.worker_stats.size(), on.worker_stats.size());
  for (std::size_t w = 0; w < off.worker_stats.size(); ++w) {
    EXPECT_EQ(counters(off.worker_stats[w]), counters(on.worker_stats[w]));
  }
  // The flush happened exactly once (the metrics-on solve).
  EXPECT_EQ(obs::counter("exact.bnb.solves").value(), 1u);
  EXPECT_EQ(obs::counter("exact.bnb.nodes").value(), on.stats.nodes);
}

/// A DAG the root bound cannot close: independent jobs {3, 3, 2} on m=2
/// have area bound 4 and chain bound 3, but no partition beats makespan 5
/// — the DFS must search the gap [4, 5) to prove 5 optimal, so the stats
/// are non-trivial.
graph::Dag search_forcing_dag() {
  graph::Dag dag;
  (void)dag.add_node(3);
  (void)dag.add_node(3);
  (void)dag.add_node(2);
  return dag;
}

TEST_F(ObsDeterminismTest, SearchStatsAreInternallyConsistent) {
  const graph::Dag dag = search_forcing_dag();
  exact::BnbConfig config;
  config.jobs = 1;
  const exact::BnbResult result = exact::min_makespan(dag, 2, config);
  ASSERT_FALSE(result.worker_stats.empty())
      << "fixture no longer forces a search";
  ASSERT_EQ(result.worker_stats.size(), 1u);
  EXPECT_GT(result.stats.nodes, 0u);
  EXPECT_EQ(result.stats.nodes, result.nodes_explored);
  EXPECT_EQ(result.worker_stats[0].nodes, result.stats.nodes);
  EXPECT_EQ(result.stats.steals, 0u);   // sequential: nothing to steal
  EXPECT_EQ(result.stats.splits, 0u);
  EXPECT_TRUE(result.proven_optimal);
}

TEST_F(ObsDeterminismTest, RootBoundShortcutLeavesWorkerStatsEmpty) {
  // fig3 on m=2: the heuristic meets the root lower bound, no search runs.
  const graph::Dag dag = hedra::testing::fig3_example().dag;
  exact::BnbConfig config;
  config.jobs = 1;
  const exact::BnbResult result = exact::min_makespan(dag, 2, config);
  ASSERT_TRUE(result.proven_optimal);
  EXPECT_TRUE(result.worker_stats.empty());
  EXPECT_EQ(result.stats.nodes, 0u);
}

TEST_F(ObsDeterminismTest, ParallelBnbAggregatesWorkerStats) {
  const graph::Dag dag = search_forcing_dag();
  exact::BnbConfig config;
  config.jobs = 4;
  const exact::BnbResult result = exact::min_makespan(dag, 2, config);
  ASSERT_EQ(result.worker_stats.size(), 4u);
  std::uint64_t nodes = 0;
  for (const exact::SearchStats& w : result.worker_stats) nodes += w.nodes;
  EXPECT_EQ(result.stats.nodes, nodes);
  // Sequential and parallel proven-optimal makespans agree (DESIGN.md).
  exact::BnbConfig sequential;
  sequential.jobs = 1;
  EXPECT_EQ(result.makespan, exact::min_makespan(dag, 2, sequential).makespan);
}

TEST_F(ObsDeterminismTest, RtaTelemetryCountsThePaths) {
  const taskset::TaskSet set = contended_set();
  const taskset::ContentionAnalysis analysis = taskset::contention_rta(set);
  const taskset::FixpointTelemetry& t = analysis.telemetry;
  EXPECT_GT(t.fixpoint_solves, 0u);
  EXPECT_EQ(t.fixpoint_solves, t.int_path + t.frac_path);
  EXPECT_GE(t.iterations, t.fixpoint_solves);  // every solve iterates >= 1
  EXPECT_GE(t.seed_evals, t.fixpoint_solves);
  const std::string text = testing::explain_fixpoint(analysis);
  EXPECT_NE(text.find("solves="), std::string::npos);
  EXPECT_NE(text.find("int_path="), std::string::npos);
  // A from-scratch analysis reuses nothing, and says so; its work counts
  // are exactly those of the pre-incremental analysis.
  EXPECT_EQ(t.reused, 0u);
  const taskset::FixpointTelemetry oracle =
      testing::oracle::contention_rta(set).telemetry;
  EXPECT_EQ(t.fixpoint_solves, oracle.fixpoint_solves);
  EXPECT_EQ(t.iterations, oracle.iterations);
  EXPECT_EQ(t.seed_evals, oracle.seed_evals);
  EXPECT_EQ(t.int_path, oracle.int_path);
  EXPECT_NE(text.find(" reused=0\n"), std::string::npos) << text;
}

}  // namespace
}  // namespace hedra
