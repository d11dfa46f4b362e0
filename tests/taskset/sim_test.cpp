#include "taskset/sim.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "common/legacy_gen.h"
#include "graph/flat_dag.h"
#include "taskset/contention_rta.h"
#include "taskset/gen.h"
#include "util/error.h"
#include "util/fault.h"

namespace hedra::taskset {
namespace {

graph::Dag chain_dag(graph::Time a_wcet, graph::Time off_wcet,
                     graph::Time b_wcet, graph::DeviceId device) {
  graph::Dag dag;
  const auto a = dag.add_node(a_wcet);
  const auto b = dag.add_node_on(off_wcet, device);
  const auto c = dag.add_node(b_wcet);
  dag.add_edge(a, b);
  dag.add_edge(b, c);
  return dag;
}

TEST(TasksetSimTest, SingleTaskMatchesHandSchedule) {
  // One chain task alone: response = sum of the chain, every job alike.
  TaskSet set(Platform::parse("2:gpu"));
  set.add(DagTask(chain_dag(5, 7, 4, 1), 100, 100, "tau1"));
  TasksetSimConfig config;
  config.jobs_per_task = 3;
  const std::vector<int> cores{1};
  const TasksetSimResult result = simulate_taskset(set, cores, config);
  ASSERT_EQ(result.tasks.size(), 1u);
  ASSERT_EQ(result.tasks[0].jobs.size(), 3u);
  for (std::uint32_t j = 0; j < 3; ++j) {
    const JobRecord& job = result.tasks[0].jobs[j];
    EXPECT_EQ(job.release, 100 * j);
    EXPECT_EQ(job.response(), 16);
  }
  EXPECT_EQ(result.tasks[0].worst_response, 16);
  EXPECT_EQ(result.makespan, 216);
}

TEST(TasksetSimTest, SharedDeviceSerializesAcrossTasks) {
  // Two tasks whose offloads collide at t = 5 on a single-unit class: the
  // FIFO tie-break (smaller task index first) delays tau2's offload by
  // tau1's 7 ticks.
  TaskSet set(Platform::parse("2:gpu"));
  set.add(DagTask(chain_dag(5, 7, 4, 1), 1000, 1000, "tau1"));
  set.add(DagTask(chain_dag(5, 7, 4, 1), 1000, 1000, "tau2"));
  TasksetSimConfig config;
  config.jobs_per_task = 1;
  const std::vector<int> cores{1, 1};
  const TasksetSimResult result = simulate_taskset(set, cores, config);
  EXPECT_EQ(result.tasks[0].worst_response, 16);
  EXPECT_EQ(result.tasks[1].worst_response, 23);  // 16 + 7 queueing
  // A second unit removes the contention entirely.
  TaskSet two_units(Platform::parse("2:gpu*2"));
  two_units.add(DagTask(chain_dag(5, 7, 4, 1), 1000, 1000, "tau1"));
  two_units.add(DagTask(chain_dag(5, 7, 4, 1), 1000, 1000, "tau2"));
  const TasksetSimResult parallel =
      simulate_taskset(two_units, cores, config);
  EXPECT_EQ(parallel.tasks[0].worst_response, 16);
  EXPECT_EQ(parallel.tasks[1].worst_response, 16);
}

TEST(TasksetSimTest, ZeroWcetDeviceNodesQueueForTheirUnit) {
  // A zero-WCET accelerator node still waits for the unit (the PR 4
  // regression semantics, carried into the taskset layer): tau2's zero-tick
  // offload cannot finish before tau1's 7-tick offload releases the unit.
  TaskSet set(Platform::parse("2:gpu"));
  set.add(DagTask(chain_dag(5, 7, 4, 1), 1000, 1000, "tau1"));
  set.add(DagTask(chain_dag(5, 0, 4, 1), 1000, 1000, "tau2"));
  TasksetSimConfig config;
  config.jobs_per_task = 1;
  const std::vector<int> cores{1, 1};
  const TasksetSimResult result = simulate_taskset(set, cores, config);
  // tau2: host 5, then its offload waits until t = 12, then host 4.
  EXPECT_EQ(result.tasks[1].worst_response, 16);
}

TEST(TasksetSimTest, DeterministicForEveryPolicy) {
  TaskSetGenConfig gen_config;
  gen_config.num_tasks = 3;
  gen_config.total_utilization = 1.2;
  gen_config.dag_params.max_depth = 3;
  gen_config.dag_params.n_par = 4;
  gen_config.dag_params.min_nodes = 10;
  gen_config.dag_params.max_nodes = 40;
  gen_config.dag_params.num_devices = 2;
  gen_config.coff_ratio = 0.25;
  gen_config.cores = 4;
  Rng rng(41);
  const TaskSet set = generate_task_set(gen_config, rng);
  const std::vector<int> cores{1, 1, 1};
  for (const auto policy : sim::all_policies()) {
    TasksetSimConfig config;
    config.policy = policy;
    config.jobs_per_task = 2;
    config.seed = 99;
    const TasksetSimResult a = simulate_taskset(set, cores, config);
    const TasksetSimResult b = simulate_taskset(set, cores, config);
    ASSERT_EQ(a.tasks.size(), b.tasks.size());
    for (std::size_t i = 0; i < a.tasks.size(); ++i) {
      EXPECT_EQ(a.tasks[i].worst_response, b.tasks[i].worst_response)
          << sim::to_string(policy);
    }
    EXPECT_EQ(a.makespan, b.makespan) << sim::to_string(policy);
  }
}

TEST(TasksetSimTest, SpeedupPlatformsAreRejected) {
  // A speedup-carrying platform declares WCETs nominal; this simulator
  // executes WCETs verbatim, so running it would falsely undercut the
  // scaled admission bounds (observed 28 vs bound 24 on this very
  // fixture).  It must refuse instead.
  TaskSet set(Platform::parse("4:gpu@2"));
  set.add(DagTask(chain_dag(10, 8, 10, 1), 200, 200, "tau1"));
  TasksetSimConfig config;
  EXPECT_THROW((void)simulate_taskset(set, std::vector<int>{1}, config),
               Error);
}

TEST(TasksetSimTest, InvalidPartitionsThrow) {
  TaskSet set(Platform::parse("2:gpu"));
  set.add(DagTask(chain_dag(5, 7, 4, 1), 100, 100, "tau1"));
  TasksetSimConfig config;
  EXPECT_THROW(simulate_taskset(set, std::vector<int>{}, config), Error);
  EXPECT_THROW(simulate_taskset(set, std::vector<int>{0}, config), Error);
  EXPECT_THROW(simulate_taskset(set, std::vector<int>{3}, config), Error);
  config.jobs_per_task = 0;
  EXPECT_THROW(simulate_taskset(set, std::vector<int>{1}, config), Error);
}

/// Checks two runs produced the same records, job by job.
void expect_same_run(const TasksetSimResult& a, const TasksetSimResult& b) {
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    ASSERT_EQ(a.tasks[i].jobs.size(), b.tasks[i].jobs.size());
    for (std::size_t j = 0; j < a.tasks[i].jobs.size(); ++j) {
      const JobRecord& x = a.tasks[i].jobs[j];
      const JobRecord& y = b.tasks[i].jobs[j];
      EXPECT_EQ(x.release, y.release) << "task " << i << " job " << j;
      EXPECT_EQ(x.finish, y.finish) << "task " << i << " job " << j;
      EXPECT_EQ(x.finished, y.finished) << "task " << i << " job " << j;
    }
    EXPECT_EQ(a.tasks[i].worst_response, b.tasks[i].worst_response);
  }
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.jobs_unfinished, b.jobs_unfinished);
}

/// A platform of `cores` cores and `devices` classes of `units` units each.
Platform platform_of(int cores, int devices, int units) {
  std::string spec = std::to_string(cores) + ":";
  for (int d = 0; d < devices; ++d) {
    spec += (d == 0 ? "" : ",") + std::string(1, static_cast<char>('a' + d)) +
            "*" + std::to_string(units);
  }
  return Platform::parse(spec);
}

TEST(TasksetSimTest, OneJobMatchesTheSingleDagSimulator) {
  // Nodes 3 and 4 become ready on the single-unit device at t = 6, retired
  // in that instant as successors of 2 and 1.  The shared ready order
  // queues 4 first (its predecessor 1 retires first), so 3 and then the
  // 20-tick node 5 wait for 4's 10 ticks: 6 + 10 + 1 + 20 = 37.  Sorting
  // the instant's ready nodes by id instead would give 27.
  graph::Dag dag;
  const auto n0 = dag.add_node(1);
  const auto n1 = dag.add_node(5);
  const auto n2 = dag.add_node(5);
  const auto n3 = dag.add_node_on(1, 1);
  const auto n4 = dag.add_node_on(10, 1);
  const auto n5 = dag.add_node(20);
  const auto n6 = dag.add_node(0);
  dag.add_edge(n0, n1);
  dag.add_edge(n0, n2);
  dag.add_edge(n1, n4);
  dag.add_edge(n2, n3);
  dag.add_edge(n3, n5);
  dag.add_edge(n4, n6);
  dag.add_edge(n5, n6);
  sim::SimConfig sim_config;
  sim_config.cores = 2;
  EXPECT_EQ(sim::simulated_makespan(dag, sim_config), 37);
  TaskSet set(Platform::parse("2:gpu"));
  set.add(DagTask(dag, 1000, 1000, "tau"));
  TasksetSimConfig config;
  config.jobs_per_task = 1;
  EXPECT_EQ(simulate_taskset(set, std::vector<int>{2}, config).makespan, 37);

  // Fig10-shaped DAGs: every policy, m, K and n_d give one makespan on
  // both entry points.
  gen::HierarchicalParams params =
      gen::HierarchicalParams::large_tasks_100_250();
  const double ratios[] = {0.05, 0.10, 0.20, 0.30, 0.40};
  Rng rng(1808);
  int runs = 0;
  for (const int devices : {1, 2, 3}) {
    params.num_devices = devices;
    for (int i = 0; i < 40; ++i) {
      const graph::Dag generated =
          gen::generate_multi_device(params, ratios[i % 5], rng);
      const graph::FlatDag flat(generated);
      for (const int units : {1, 2}) {
        for (const int cores : {2, 4, 8}) {
          TaskSet one(platform_of(cores, devices, units));
          one.add(DagTask(generated, 100000, 100000, "tau"));
          for (const auto policy : sim::all_policies()) {
            sim::SimConfig single;
            single.cores = cores;
            single.policy = policy;
            single.seed = 7;
            single.device_units.assign(static_cast<std::size_t>(devices),
                                       units);
            single.validate = false;
            TasksetSimConfig multi;
            multi.policy = policy;
            multi.seed = 7;
            multi.jobs_per_task = 1;
            EXPECT_EQ(simulate_taskset(one, std::vector<int>{cores}, multi)
                          .makespan,
                      sim::simulated_makespan(flat.view(), single))
                << "K=" << devices << " n_d=" << units << " m=" << cores
                << " policy=" << sim::to_string(policy) << " dag " << i;
            ++runs;
          }
        }
      }
    }
  }
  EXPECT_EQ(runs, 3600);
}

/// Three tasks, ten jobs each: several hundred event rounds.
TaskSet busy_set() {
  TaskSetGenConfig gen_config;
  gen_config.num_tasks = 3;
  gen_config.total_utilization = 1.2;
  gen_config.dag_params.max_depth = 3;
  gen_config.dag_params.n_par = 4;
  gen_config.dag_params.min_nodes = 10;
  gen_config.dag_params.max_nodes = 40;
  gen_config.dag_params.num_devices = 2;
  gen_config.coff_ratio = 0.25;
  gen_config.cores = 6;
  Rng rng(17);
  return generate_task_set(gen_config, rng);
}

TEST(TasksetSimTest, ExpiredDeadlineCutsTheRunAtAnEventBoundary) {
  const TaskSet set = busy_set();
  const std::vector<int> cores{2, 2, 2};
  TasksetSimConfig config;
  config.jobs_per_task = 10;
  // The run needs more rounds than the deadline's poll stride (256).
  fault::clear_registry();
  fault::configure("*=0");  // counts hits, never fires
  const TasksetSimResult full = simulate_taskset(set, cores, config);
  const std::uint64_t rounds = fault::hits("sim.event");
  fault::clear_registry();
  ASSERT_GT(rounds, 256u);
  ASSERT_EQ(full.outcome, util::Outcome::kComplete);

  config.deadline = util::Deadline::after(std::chrono::nanoseconds(0));
  const TasksetSimResult cut = simulate_taskset(set, cores, config);
  EXPECT_EQ(cut.outcome, util::Outcome::kBudgetExhausted);
  EXPECT_GT(cut.jobs_unfinished, 0u);
  std::size_t finished = 0;
  std::size_t unfinished = 0;
  for (std::size_t i = 0; i < set.size(); ++i) {
    for (std::size_t j = 0; j < cut.tasks[i].jobs.size(); ++j) {
      const JobRecord& job = cut.tasks[i].jobs[j];
      if (!job.finished) {
        ++unfinished;
        continue;
      }
      ++finished;
      const JobRecord& exact = full.tasks[i].jobs[j];
      EXPECT_EQ(job.release, exact.release) << "task " << i << " job " << j;
      EXPECT_EQ(job.finish, exact.finish) << "task " << i << " job " << j;
    }
  }
  EXPECT_GT(finished, 0u);
  EXPECT_EQ(unfinished, cut.jobs_unfinished);
}

TEST(TasksetSimTest, FaultMidRunLeavesTheThreadScratchReusable) {
  const TaskSet set = busy_set();
  const std::vector<int> cores{2, 2, 2};
  TasksetSimConfig config;
  config.policy = sim::Policy::kCriticalPathFirst;
  config.jobs_per_task = 4;
  const graph::FlatDag flat(set[0].dag());
  sim::SimConfig sim_config;
  sim_config.cores = 3;
  sim_config.policy = sim::Policy::kRandom;
  sim_config.device_units = {2, 1};
  sim_config.validate = false;
  const TasksetSimResult before = simulate_taskset(set, cores, config);
  const graph::Time makespan_before =
      sim::simulated_makespan(flat.view(), sim_config);

  fault::Trigger third;
  third.nth = 3;
  fault::clear_registry();
  fault::arm("sim.event", third);
  EXPECT_THROW((void)simulate_taskset(set, cores, config), fault::Injected);
  fault::arm("sim.event", third);  // re-arming restarts the hit count
  EXPECT_THROW((void)sim::simulated_makespan(flat.view(), sim_config),
               fault::Injected);
  fault::reset();
  fault::clear_registry();

  expect_same_run(simulate_taskset(set, cores, config), before);
  EXPECT_EQ(sim::simulated_makespan(flat.view(), sim_config), makespan_before);
}

class TasksetDominance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TasksetDominance, BoundDominatesEveryPolicyAndPlatformShape) {
  // ACCEPTANCE CRITERION (PR 5): for admitted sets, the contention-inflated
  // bound must dominate every observed job response under EVERY
  // work-conserving ready-queue policy, for K ∈ {1, 2, 3} classes and
  // n_d ∈ {1, 2} units — exact rational comparison.
  Rng master(GetParam());
  for (const int devices : {1, 2, 3}) {
    for (const int units : {1, 2}) {
      TaskSetGenConfig gen_config;
      gen_config.num_tasks = 3;
      gen_config.total_utilization = 1.0;
      gen_config.dag_params.max_depth = 3;
      gen_config.dag_params.n_par = 4;
      gen_config.dag_params.min_nodes = 10;
      gen_config.dag_params.max_nodes = 40;
      gen_config.dag_params.wcet_max = 50;
      gen_config.dag_params.num_devices = devices;
      gen_config.coff_ratio = 0.3;
      gen_config.cores = 6;
      gen_config.device_units.assign(static_cast<std::size_t>(devices),
                                     units);
      Rng rng = master.fork();
      const TaskSet set = generate_task_set(gen_config, rng);
      const ContentionAnalysis admission = contention_rta(set);
      if (!admission.schedulable) continue;  // bound only claimed if admitted
      std::vector<int> cores;
      for (const TaskAdmission& task : admission.tasks) {
        cores.push_back(task.cores);
      }
      for (const auto policy : sim::all_policies()) {
        TasksetSimConfig config;
        config.policy = policy;
        config.jobs_per_task = 3;
        config.seed = GetParam() ^ 0x5eedu;
        const TasksetSimResult result = simulate_taskset(set, cores, config);
        for (std::size_t i = 0; i < set.size(); ++i) {
          EXPECT_LE(Frac(result.tasks[i].worst_response),
                    admission.tasks[i].response)
              << "K=" << devices << " units=" << units
              << " policy=" << sim::to_string(policy) << " task=" << i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TasksetDominance,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace hedra::taskset
