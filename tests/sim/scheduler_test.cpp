#include "sim/scheduler.h"

#include <gtest/gtest.h>

#include "analysis/transform.h"
#include "common/fixtures.h"
#include "graph/critical_path.h"
#include "graph/flat_dag.h"
#include "util/error.h"

namespace hedra::sim {
namespace {

SimConfig cfg(int cores, Policy policy = Policy::kBreadthFirst) {
  SimConfig config;
  config.cores = cores;
  config.policy = policy;
  return config;
}

TEST(SchedulerTest, ChainOnOneCoreTakesVolume) {
  const auto dag = testing::chain(5, 3);
  EXPECT_EQ(simulated_makespan(dag, cfg(1)), 15);
}

TEST(SchedulerTest, ChainIgnoresExtraCores) {
  const auto dag = testing::chain(5, 3);
  EXPECT_EQ(simulated_makespan(dag, cfg(8)), 15);
}

TEST(SchedulerTest, WideGraphWithEnoughCoresTakesLen) {
  const auto dag = testing::wide_gpar_example(4);
  // v1(1) + max(p_i(2), vOff(4)) + v6(1); with 4+ cores everything parallel.
  EXPECT_EQ(simulated_makespan(dag, cfg(4)), 6);
}

TEST(SchedulerTest, PaperFig1cBreadthFirstReaches12) {
  // §3.2/Figure 1(c): breadth-first on m=2 runs v2, v3 before v4, leaving
  // the host idle while v_off executes; response time 12.
  const auto ex = testing::paper_example();
  EXPECT_EQ(simulated_makespan(ex.dag, cfg(2, Policy::kBreadthFirst)), 12);
}

TEST(SchedulerTest, PaperFig1bCriticalPathFirstReaches8) {
  // Figure 1(b)'s best case: scheduling v3 and v4 first overlaps v_off with
  // host work; response time 8.
  const auto ex = testing::paper_example();
  EXPECT_EQ(simulated_makespan(ex.dag, cfg(2, Policy::kCriticalPathFirst)), 8);
}

TEST(SchedulerTest, PaperFig2bTransformedBreadthFirstReaches10) {
  // Figure 2(b): after the transformation the breadth-first schedule takes
  // exactly len(G') = 10.
  const auto ex = testing::paper_example();
  const auto transformed =
      analysis::transform_for_offload(ex.dag).transformed;
  EXPECT_EQ(simulated_makespan(transformed, cfg(2, Policy::kBreadthFirst)),
            10);
}

TEST(SchedulerTest, TraceIsValidatedInternally) {
  const auto ex = testing::paper_example();
  const ScheduleTrace trace = simulate(ex.dag, cfg(2));
  EXPECT_TRUE(trace.validate().empty());
  EXPECT_EQ(trace.makespan(), 12);
}

TEST(SchedulerTest, OffloadRunsOnAccelerator) {
  const auto ex = testing::paper_example();
  const ScheduleTrace trace = simulate(ex.dag, cfg(2));
  EXPECT_EQ(trace.interval_of(ex.voff).unit, kAcceleratorUnit);
}

TEST(SchedulerTest, ZeroWcetNodesCompleteInstantly) {
  graph::Dag dag;
  const auto s = dag.add_node(0, graph::NodeKind::kSync);
  const auto a = dag.add_node(5);
  const auto t = dag.add_node(0, graph::NodeKind::kSync);
  dag.add_edge(s, a);
  dag.add_edge(a, t);
  const ScheduleTrace trace = simulate(dag, cfg(1));
  EXPECT_EQ(trace.makespan(), 5);
  EXPECT_EQ(trace.interval_of(s).unit, kInstantUnit);
  EXPECT_EQ(trace.interval_of(t).start, 5);
  EXPECT_EQ(trace.interval_of(t).finish, 5);
  (void)a;
}

TEST(SchedulerTest, WorkConservingNeverIdlesWithReadyWork) {
  // With two independent nodes and two cores, both start at time 0.
  graph::Dag dag;
  dag.add_node(3);
  dag.add_node(4);
  const ScheduleTrace trace = simulate(dag, cfg(2));
  EXPECT_EQ(trace.interval_of(0).start, 0);
  EXPECT_EQ(trace.interval_of(1).start, 0);
  EXPECT_EQ(trace.makespan(), 4);
}

TEST(SchedulerTest, DepthFirstPrefersNewestReady) {
  // v1 -> {a, b}; a -> c.  After v1, LIFO runs b (newest last? ready order
  // a, b -> LIFO picks b first) on the single core.
  graph::Dag dag;
  const auto v1 = dag.add_node(1);
  const auto a = dag.add_node(1, graph::NodeKind::kHost, "a");
  const auto b = dag.add_node(5, graph::NodeKind::kHost, "b");
  dag.add_edge(v1, a);
  dag.add_edge(v1, b);
  const ScheduleTrace lifo = simulate(dag, cfg(1, Policy::kDepthFirst));
  const ScheduleTrace fifo = simulate(dag, cfg(1, Policy::kBreadthFirst));
  // FIFO runs a (ready first by id) before b; LIFO the opposite.
  EXPECT_LT(fifo.start_of(a), fifo.start_of(b));
  EXPECT_LT(lifo.start_of(b), lifo.start_of(a));
}

TEST(SchedulerTest, RandomPolicyIsSeedDeterministic) {
  const auto ex = testing::fig3_example();
  SimConfig a = cfg(2, Policy::kRandom);
  a.seed = 7;
  SimConfig b = cfg(2, Policy::kRandom);
  b.seed = 7;
  EXPECT_EQ(simulated_makespan(ex.dag, a), simulated_makespan(ex.dag, b));
}

TEST(SchedulerTest, MakespanSandwichedByLenAndGraham) {
  const auto ex = testing::fig3_example();
  const graph::Time len = graph::critical_path_length(ex.dag);
  const graph::Time vol = ex.dag.volume();
  for (const int m : {1, 2, 3, 4, 8}) {
    for (const auto policy :
         {Policy::kBreadthFirst, Policy::kDepthFirst,
          Policy::kCriticalPathFirst, Policy::kIndexOrder, Policy::kRandom}) {
      const graph::Time makespan =
          simulated_makespan(ex.dag, cfg(m, policy));
      EXPECT_GE(makespan, len);
      EXPECT_LE(makespan, vol);
    }
  }
}

TEST(SchedulerTest, SingleNodeGraph) {
  graph::Dag dag;
  dag.add_node(7);
  EXPECT_EQ(simulated_makespan(dag, cfg(3)), 7);
}

TEST(SchedulerTest, MultipleOffloadsSerialiseOnAccelerator) {
  graph::Dag dag;
  const auto v1 = dag.add_node(1);
  const auto o1 = dag.add_node(5, graph::NodeKind::kOffload, "o1");
  const auto o2 = dag.add_node(5, graph::NodeKind::kOffload, "o2");
  const auto vn = dag.add_node(1);
  dag.add_edge(v1, o1);
  dag.add_edge(v1, o2);
  dag.add_edge(o1, vn);
  dag.add_edge(o2, vn);
  const ScheduleTrace trace = simulate(dag, cfg(4));
  // Both offloads on the single accelerator: 1 + 5 + 5 + 1.
  EXPECT_EQ(trace.makespan(), 12);
  EXPECT_EQ(trace.interval_of(o1).unit, kAcceleratorUnit);
  EXPECT_EQ(trace.interval_of(o2).unit, kAcceleratorUnit);
}

TEST(SchedulerTest, DistinctDevicesRunConcurrently) {
  // Same shape as MultipleOffloadsSerialiseOnAccelerator, but o2 on its own
  // device: the two offloads overlap and the makespan drops to 1 + 5 + 1.
  graph::Dag dag;
  const auto v1 = dag.add_node(1);
  const auto o1 = dag.add_node(5, graph::NodeKind::kOffload, "o1");
  const auto o2 = dag.add_node_on(5, 2, "o2");
  const auto vn = dag.add_node(1);
  dag.add_edge(v1, o1);
  dag.add_edge(v1, o2);
  dag.add_edge(o1, vn);
  dag.add_edge(o2, vn);
  const ScheduleTrace trace = simulate(dag, cfg(4));
  EXPECT_EQ(trace.makespan(), 7);
  EXPECT_EQ(trace.interval_of(o1).unit, accelerator_unit(1));
  EXPECT_EQ(trace.interval_of(o2).unit, accelerator_unit(2));
  EXPECT_EQ(trace.start_of(o1), trace.start_of(o2));
}

TEST(SchedulerTest, PerDeviceQueuesAreFifo) {
  // Two nodes per device become ready in id order; each device serialises
  // its own queue while the other device's work proceeds in parallel.
  graph::Dag dag;
  const auto src = dag.add_node(1);
  const auto a1 = dag.add_node_on(3, 1, "a1");
  const auto a2 = dag.add_node_on(4, 1, "a2");
  const auto b1 = dag.add_node_on(2, 2, "b1");
  const auto b2 = dag.add_node_on(6, 2, "b2");
  const auto snk = dag.add_node(1);
  for (const auto v : {a1, a2, b1, b2}) {
    dag.add_edge(src, v);
    dag.add_edge(v, snk);
  }
  const ScheduleTrace trace = simulate(dag, cfg(2));
  // Device 1: a1 [1,4), a2 [4,8).  Device 2: b1 [1,3), b2 [3,9).
  EXPECT_EQ(trace.start_of(a1), 1);
  EXPECT_EQ(trace.start_of(a2), 4);
  EXPECT_EQ(trace.start_of(b1), 1);
  EXPECT_EQ(trace.start_of(b2), 3);
  EXPECT_EQ(trace.makespan(), 10);
  // Each device ran its two nodes back to back on its one unit.
  EXPECT_EQ(trace.interval_of(a1).unit, accelerator_unit(1));
  EXPECT_EQ(trace.interval_of(b2).unit, accelerator_unit(2));
  EXPECT_EQ(trace.finish_of(a2) - trace.start_of(a1), 3 + 4);
  EXPECT_EQ(trace.finish_of(b2) - trace.start_of(b1), 2 + 6);
}

TEST(SchedulerTest, MultiUnitDeviceRunsItsQueueInParallel) {
  // Same shape as PerDeviceQueuesAreFifo, but device 1 gets two units: its
  // queue stops serialising.  Unit 0 keeps the historical odd-negative id;
  // the second concurrent node lands on the first extra (even) unit id.
  graph::Dag dag;
  const auto src = dag.add_node(1);
  const auto a1 = dag.add_node_on(3, 1, "a1");
  const auto a2 = dag.add_node_on(4, 1, "a2");
  const auto snk = dag.add_node(1);
  for (const auto v : {a1, a2}) {
    dag.add_edge(src, v);
    dag.add_edge(v, snk);
  }
  SimConfig config = cfg(2);
  config.device_units = {2};
  const ScheduleTrace trace = simulate(dag, config);
  EXPECT_EQ(trace.start_of(a1), 1);
  EXPECT_EQ(trace.start_of(a2), 1);
  EXPECT_EQ(trace.interval_of(a1).unit, accelerator_unit(1, 0));
  EXPECT_EQ(trace.interval_of(a2).unit, accelerator_unit(1, 1));
  EXPECT_EQ(trace.makespan(), 6);  // 1 + max(3, 4) + 1 instead of 1 + 7 + 1
  EXPECT_EQ(trace.units_of(1), 2);

  // More units than ready work changes nothing beyond the makespan floor.
  config.device_units = {5};
  EXPECT_EQ(simulate(dag, config).makespan(), 6);
}

TEST(SchedulerTest, UnitsBeyondTheVectorDefaultToOne) {
  // device_units shorter than max_device: device 2 falls back to one unit.
  graph::Dag dag;
  const auto src = dag.add_node(1);
  const auto b1 = dag.add_node_on(3, 2, "b1");
  const auto b2 = dag.add_node_on(3, 2, "b2");
  const auto snk = dag.add_node(1);
  for (const auto v : {b1, b2}) {
    dag.add_edge(src, v);
    dag.add_edge(v, snk);
  }
  SimConfig config = cfg(2);
  config.device_units = {4};  // only device 1 configured
  EXPECT_EQ(simulate(dag, config).makespan(), 8);  // 1 + 3 + 3 + 1
}

TEST(SchedulerTest, FreeUnitsAreReusedSmallestIndexFirst) {
  // Three nodes, two units: the third node takes whichever unit frees
  // first, and after both are free again the smaller index wins.
  graph::Dag dag;
  const auto src = dag.add_node(1);
  const auto a1 = dag.add_node_on(2, 1, "a1");
  const auto a2 = dag.add_node_on(5, 1, "a2");
  const auto a3 = dag.add_node_on(2, 1, "a3");
  const auto snk = dag.add_node(1);
  for (const auto v : {a1, a2, a3}) {
    dag.add_edge(src, v);
    dag.add_edge(v, snk);
  }
  SimConfig config = cfg(2);
  config.device_units = {2};
  const ScheduleTrace trace = simulate(dag, config);
  // a1 -> unit 0 [1,3), a2 -> unit 1 [1,6), a3 -> unit 0 again [3,5).
  EXPECT_EQ(trace.interval_of(a1).unit, accelerator_unit(1, 0));
  EXPECT_EQ(trace.interval_of(a2).unit, accelerator_unit(1, 1));
  EXPECT_EQ(trace.interval_of(a3).unit, accelerator_unit(1, 0));
  EXPECT_EQ(trace.start_of(a3), 3);
  EXPECT_EQ(trace.makespan(), 7);
}

/// SATELLITE REGRESSION (pre-PR bug): zero-WCET nodes placed on an
/// accelerator retired instantly via kInstantUnit inside absorb_ready,
/// silently bypassing device serialisation (and failing trace validation
/// had it been on).  They now queue for their device's unit like any other
/// offload: behind a busy unit they wait, and their interval lands on the
/// device, not on kInstantUnit.
TEST(SchedulerTest, ZeroWcetDeviceNodesRespectDeviceSerialisation) {
  graph::Dag dag;
  const auto src = dag.add_node(1);
  const auto busy = dag.add_node_on(5, 1, "busy");
  const auto zero = dag.add_node_on(0, 1, "zero");
  const auto snk = dag.add_node(1);
  for (const auto v : {busy, zero}) {
    dag.add_edge(src, v);
    dag.add_edge(v, snk);
  }
  const ScheduleTrace trace = simulate(dag, cfg(2));  // validation on
  // `busy` holds the single unit over [1, 6); `zero` must wait for it.
  EXPECT_EQ(trace.start_of(zero), 6);
  EXPECT_EQ(trace.finish_of(zero), 6);
  EXPECT_EQ(trace.interval_of(zero).unit, accelerator_unit(1));
  EXPECT_EQ(trace.makespan(), 7);

  // With a second unit the zero-WCET node no longer waits — but it still
  // occupies a real device unit for its zero-length interval.
  SimConfig config = cfg(2);
  config.device_units = {2};
  const ScheduleTrace wide = simulate(dag, config);
  EXPECT_EQ(wide.start_of(zero), 1);
  EXPECT_EQ(wide.interval_of(zero).unit, accelerator_unit(1, 1));
  EXPECT_EQ(wide.makespan(), 7);

  // Host-side zero-WCET nodes keep the historical instant-sync semantics.
  graph::Dag host;
  const auto h1 = host.add_node(2);
  const auto h0 = host.add_node(0, graph::NodeKind::kHost, "h0");
  host.add_edge(h1, h0);
  const ScheduleTrace host_trace = simulate(host, cfg(1));
  EXPECT_EQ(host_trace.interval_of(h0).unit, kInstantUnit);
}

TEST(SchedulerTest, RejectsNonPositiveUnitCounts) {
  const auto ex = testing::multi_device_example();
  SimConfig config = cfg(2);
  config.device_units = {0, 1};
  EXPECT_THROW((void)simulate(ex.dag, config), Error);
  config.device_units = {-3};
  EXPECT_THROW((void)simulate(ex.dag, config), Error);
}

TEST(SchedulerTest, MultiUnitTracesValidateUnderEveryPolicyAndEarlyTimes) {
  const auto ex = testing::multi_device_example();
  const graph::FlatDag flat(ex.dag);
  Rng rng(99);
  for (const auto policy : all_policies()) {
    for (const int units : {2, 3}) {
      SimConfig config = cfg(2, policy);
      config.device_units = {units, units};
      const ScheduleTrace trace = simulate(ex.dag, config);  // validates
      EXPECT_GT(trace.makespan(), 0);
      const auto actual = testing::random_actual_times(ex.dag, 0.4, rng);
      const ScheduleTrace early =
          simulate_with_times(flat.view(), config, actual);
      EXPECT_LE(early.makespan(), trace.makespan() + ex.dag.volume());
    }
  }
}

TEST(SchedulerTest, MultiDeviceTraceValidatesUnderEveryPolicy) {
  const auto ex = testing::multi_device_example();
  for (const auto policy : all_policies()) {
    const ScheduleTrace trace = simulate(ex.dag, cfg(2, policy));
    EXPECT_TRUE(trace.validate().empty()) << to_string(policy);
  }
}

TEST(SchedulerTest, AllPoliciesListsEveryPolicyOnce) {
  EXPECT_EQ(all_policies().size(), 5u);
  EXPECT_EQ(all_policies().front(), Policy::kBreadthFirst);
}

TEST(SchedulerTest, InvalidInputsThrow) {
  EXPECT_THROW(simulate(graph::Dag{}, cfg(2)), Error);
  const auto ex = testing::paper_example();
  EXPECT_THROW(simulate(ex.dag, cfg(0)), Error);
  graph::Dag cyclic;
  const auto a = cyclic.add_node(1);
  const auto b = cyclic.add_node(1);
  cyclic.add_edge(a, b);
  cyclic.add_edge(b, a);
  EXPECT_THROW(simulate(cyclic, cfg(1)), Error);
}

TEST(SchedulerTest, PolicyNamesRender) {
  EXPECT_STREQ(to_string(Policy::kBreadthFirst), "breadth-first");
  EXPECT_STREQ(to_string(Policy::kDepthFirst), "depth-first");
  EXPECT_STREQ(to_string(Policy::kCriticalPathFirst), "critical-path-first");
  EXPECT_STREQ(to_string(Policy::kIndexOrder), "index-order");
  EXPECT_STREQ(to_string(Policy::kRandom), "random");
}

}  // namespace
}  // namespace hedra::sim
