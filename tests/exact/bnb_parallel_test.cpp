/// Parallel-vs-sequential equivalence for the work-stealing B&B.  The
/// parallel search explores a different node sequence every run, so nothing
/// about its internals is pinned — what IS pinned is the contract: every
/// proven-optimal parallel makespan equals the sequential result with exact
/// equality, and truncated results stay inside [root_lb, heuristic_ub].
/// These tests run at jobs=4 regardless of hardware_concurrency (4 threads
/// on 1 core still exercise every handoff path) and are the workload of the
/// ThreadSanitizer CI job.

#include "exact/bnb.h"

#include <gtest/gtest.h>

#include "common/brute_force.h"
#include "common/fixtures.h"
#include "exp/experiment.h"
#include "graph/dag.h"
#include "util/fault.h"

namespace hedra::exact {
namespace {

exp::BatchConfig small_batch(int min_nodes, int max_nodes, int count,
                             std::uint64_t seed) {
  exp::BatchConfig config;
  config.params = gen::HierarchicalParams::small_tasks();
  config.params.min_nodes = min_nodes;
  config.params.max_nodes = max_nodes;
  config.coff_ratio = 0.35;
  config.count = count;
  config.seed = seed;
  return config;
}

/// Randomized batches (single-accelerator, the exact solver's model) at the
/// fig7 platform sizes: every proven-optimal parallel makespan must equal
/// the sequential one exactly.
TEST(BnbParallelTest, MatchesSequentialOnRandomBatches) {
  struct Case {
    int m;
    int min_nodes;
    int max_nodes;
    std::uint64_t seed;
  };
  for (const Case& c :
       {Case{2, 4, 18, 0xC0FFEE01ULL}, Case{8, 20, 40, 0xC0FFEE02ULL}}) {
    const auto batch =
        exp::generate_batch(small_batch(c.min_nodes, c.max_nodes, 12, c.seed));
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const BnbResult seq = min_makespan(batch[i], c.m);
      BnbConfig parallel;
      parallel.jobs = 4;
      const BnbResult par = min_makespan(batch[i], c.m, parallel);
      ASSERT_TRUE(seq.proven_optimal) << "m=" << c.m << " instance " << i;
      ASSERT_TRUE(par.proven_optimal) << "m=" << c.m << " instance " << i;
      EXPECT_EQ(par.makespan, seq.makespan)
          << "m=" << c.m << " instance " << i;
      // Root bounds are computed before the search forks; identical.
      EXPECT_EQ(par.root_lower_bound, seq.root_lower_bound);
      EXPECT_EQ(par.heuristic_upper_bound, seq.heuristic_upper_bound);
    }
  }
}

/// Stress: race many small instances back to back at jobs=4 — thread
/// startup/teardown, donation and stealing on every solve.  Runs
/// under the ASan job (whole suite) and the TSan job (filtered).
TEST(BnbParallelTest, StressManySmallInstancesAtJobs4) {
  const auto batch = exp::generate_batch(small_batch(4, 12, 24, 0xACE5EEDULL));
  BnbConfig parallel;
  parallel.jobs = 4;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    for (const int m : {1, 2, 3}) {
      const BnbResult par = min_makespan(batch[i], m, parallel);
      ASSERT_TRUE(par.proven_optimal) << "instance " << i << " m=" << m;
      EXPECT_EQ(par.makespan, brute_force_min_makespan(batch[i], m))
          << "instance " << i << " m=" << m;
    }
  }
}

/// Donation, the parallel solver's only way to split, on instances of at
/// least 100k jobs=1 nodes from a fig7-shaped batch (m = 2, 15-25 nodes,
/// the shape the exact_proof benchmark picks from).  Every jobs=4 solve
/// must split, be proven and equal jobs=1.  Where the heuristic upper
/// bound is already optimal the incumbent never moves, so every subtree
/// prunes exactly as in the sequential DFS and the node count is exact:
/// each donated subproblem re-expands the one node its donor branched
/// from, so the workers' total is the sequential tree plus one node per
/// split.  A donor that kept branching at a donated level, or a bookmark
/// that lost a sibling (the delay branch, say), breaks that equation.
/// Nothing is timed: a spawned thread can take milliseconds to start, and
/// these trees take tens of milliseconds to close at full speed.
TEST(BnbParallelTest, DonationSplitsTheTreeExactly) {
  const auto batch = exp::generate_batch(small_batch(15, 25, 24, 78));
  BnbConfig sequential;
  sequential.time_limit_sec = 1e6;  // sanitizer builds run ~20x slower
  BnbConfig parallel = sequential;
  parallel.jobs = 4;
  int exact_counts = 0;
  for (const std::size_t i : {11U, 17U, 22U}) {
    const BnbResult seq = min_makespan(batch[i], 2, sequential);
    ASSERT_TRUE(seq.proven_optimal) << "instance " << i;
    ASSERT_GE(seq.nodes_explored, 100'000U) << "instance " << i;
    const BnbResult par = min_makespan(batch[i], 2, parallel);
    ASSERT_TRUE(par.proven_optimal) << "instance " << i;
    EXPECT_EQ(par.makespan, seq.makespan) << "instance " << i;
    EXPECT_GT(par.stats.splits, 0U) << "instance " << i;
    if (seq.makespan == seq.heuristic_upper_bound) {
      ++exact_counts;
      EXPECT_EQ(par.stats.nodes, seq.nodes_explored + par.stats.splits)
          << "instance " << i << ", " << par.stats.splits << " splits";
    }
  }
  EXPECT_GT(exact_counts, 0) << "no instance pinned the node count";
}

/// A throw inside the search reaches the caller in both modes.  The seam
/// sits at the budget poll both modes share (every 1024 nodes of each
/// worker); at jobs=4 the worker that threw retires its subproblem, the
/// others drain, every thread joins and the exception is rethrown.
TEST(BnbParallelTest, WorkerExceptionReachesTheCaller) {
  const auto batch = exp::generate_batch(small_batch(15, 25, 24, 78));
  const graph::Dag& dag = batch[15];  // ~12k jobs=1 nodes: >= 3 polls
  const BnbResult reference = min_makespan(dag, 2);
  ASSERT_TRUE(reference.proven_optimal);
  for (const int jobs : {1, 4}) {
    BnbConfig config;
    config.jobs = jobs;
    fault::arm("exact.bnb.node", fault::Trigger{.nth = 3});
    EXPECT_THROW((void)min_makespan(dag, 2, config), fault::Injected)
        << "jobs=" << jobs;
    fault::reset();
    const BnbResult again = min_makespan(dag, 2, config);
    EXPECT_TRUE(again.proven_optimal) << "jobs=" << jobs;
    EXPECT_EQ(again.makespan, reference.makespan) << "jobs=" << jobs;
  }
}

TEST(BnbParallelTest, MultiOffloadSerialisation) {
  // The parallel variant of BnbTest.MultiOffloadSerialisation: two parallel
  // offloads of 5 share the single accelerator, forcing 12.
  graph::Dag dag;
  const auto v1 = dag.add_node(1);
  const auto o1 = dag.add_node(5, graph::NodeKind::kOffload, "o1");
  const auto o2 = dag.add_node(5, graph::NodeKind::kOffload, "o2");
  const auto vn = dag.add_node(1);
  dag.add_edge(v1, o1);
  dag.add_edge(v1, o2);
  dag.add_edge(o1, vn);
  dag.add_edge(o2, vn);
  BnbConfig parallel;
  parallel.jobs = 3;
  const BnbResult result = min_makespan(dag, 8, parallel);
  EXPECT_EQ(result.makespan, 12);
  EXPECT_TRUE(result.proven_optimal);
}

TEST(BnbParallelTest, TinyBudgetStillReturnsFeasibleMakespan) {
  // The shared node budget is polled every 1024 local nodes, so a parallel
  // run may overshoot max_nodes by ~1024 per worker (and a tiny instance
  // may legitimately close inside that slop).  These instances are far too
  // large for a 2000-node budget: truncated results must still be feasible
  // schedules inside [root_lb, heuristic_ub].
  const auto batch = exp::generate_batch(small_batch(30, 60, 8, 0xB0DE7ULL));
  BnbConfig config;
  config.jobs = 4;
  config.max_nodes = 2000;
  int unproven = 0;
  for (const auto& dag : batch) {
    const BnbResult result = min_makespan(dag, 2, config);
    if (!result.proven_optimal) ++unproven;
    EXPECT_GE(result.makespan, result.root_lower_bound);
    EXPECT_LE(result.makespan, result.heuristic_upper_bound);
  }
  EXPECT_GT(unproven, 0) << "every instance closed within ~2k nodes; the "
                            "budget-truncation path was never exercised";
}

TEST(BnbParallelTest, JobsZeroSelectsHardwareDefault) {
  const auto ex = testing::paper_example();
  BnbConfig config;
  config.jobs = 0;  // all hardware threads (1 on a 1-core CI box — also ok)
  const BnbResult result = min_makespan(ex.dag, 2, config);
  EXPECT_EQ(result.makespan, 8);
  EXPECT_TRUE(result.proven_optimal);
}

}  // namespace
}  // namespace hedra::exact
