#include "taskset/contention_rta.h"

#include <gtest/gtest.h>

#include "analysis/analysis_cache.h"
#include "common/contention_text.h"
#include "taskset/gen.h"
#include "util/error.h"
#include "util/rng.h"

namespace hedra::taskset {
namespace {

graph::Dag chain_dag(graph::Time host_wcet, graph::Time offload_wcet,
                     graph::DeviceId device) {
  graph::Dag dag;
  const auto a = dag.add_node(host_wcet);
  const auto b = dag.add_node_on(offload_wcet, device);
  const auto c = dag.add_node(host_wcet);
  dag.add_edge(a, b);
  dag.add_edge(b, c);
  return dag;
}

TaskSetGenConfig small_gen(int num_tasks, int devices, double utilization) {
  TaskSetGenConfig config;
  config.num_tasks = num_tasks;
  config.total_utilization = utilization;
  config.dag_params.max_depth = 3;
  config.dag_params.n_par = 4;
  config.dag_params.min_nodes = 10;
  config.dag_params.max_nodes = 40;
  config.dag_params.wcet_max = 50;
  config.dag_params.num_devices = devices;
  config.coff_ratio = 0.25;
  config.cores = 8;
  return config;
}

TEST(ContentionRtaTest, SingleTaskReducesToRplatformExactly) {
  // ACCEPTANCE CRITERION (PR 5): with no competitors there is no carry-in
  // interference, so the contention fixpoint must equal the single-task
  // platform bound with EXACT rational equality — over generated batches,
  // for K ∈ {1, 2, 3} and n_d ∈ {1, 2}.
  for (const int devices : {1, 2, 3}) {
    for (const int units : {1, 2}) {
      TaskSetGenConfig config = small_gen(1, devices, 0.4);
      config.device_units.assign(static_cast<std::size_t>(devices), units);
      const auto batch = generate_taskset_batch(config, 6, 97 + devices);
      for (const TaskSet& set : batch) {
        const ContentionAnalysis admission = contention_rta(set);
        ASSERT_EQ(admission.tasks.size(), 1u);
        const TaskAdmission& task = admission.tasks[0];
        ASSERT_GE(task.cores, 1);
        analysis::AnalysisCache cache(set[0].dag());
        const std::vector<int> unit_vec(static_cast<std::size_t>(devices),
                                        units);
        EXPECT_EQ(task.response, cache.r_platform(task.cores, unit_vec))
            << "K=" << devices << " units=" << units;
        EXPECT_EQ(task.iterations, 1);  // fixpoint converges at the seed
      }
    }
  }
}

TEST(ContentionRtaTest, DisjointDevicesAddNoInterference) {
  // Two tasks on different accelerator classes share nothing: both bounds
  // must equal their isolated platform bounds exactly.
  TaskSet set(Platform::parse("8:gpu,dsp"));
  set.add(DagTask(chain_dag(10, 8, 1), 200, 200, "tau1"));
  set.add(DagTask(chain_dag(12, 6, 2), 300, 300, "tau2"));
  const ContentionAnalysis admission = contention_rta(set);
  EXPECT_TRUE(admission.schedulable);
  for (std::size_t i = 0; i < set.size(); ++i) {
    const TaskAdmission& task = admission.tasks[i];
    analysis::AnalysisCache cache(set[i].dag());
    const std::vector<int> units(2, 1);
    EXPECT_EQ(task.response, cache.r_platform(task.cores, units));
    for (const DeviceContention& device : task.devices) {
      EXPECT_EQ(device.interference, Frac(0));
    }
  }
}

TEST(ContentionRtaTest, SharedDeviceInflatesTheBound) {
  // Same class for both tasks: each bound strictly exceeds its isolated
  // seed by the competitor's carry-in volume share.
  TaskSet set(Platform::parse("8:gpu"));
  set.add(DagTask(chain_dag(10, 8, 1), 200, 200, "tau1"));
  set.add(DagTask(chain_dag(12, 6, 1), 300, 300, "tau2"));
  const ContentionAnalysis admission = contention_rta(set);
  ASSERT_TRUE(admission.schedulable);
  for (std::size_t i = 0; i < set.size(); ++i) {
    const TaskAdmission& task = admission.tasks[i];
    analysis::AnalysisCache cache(set[i].dag());
    const std::vector<int> units(1, 1);
    EXPECT_GT(task.response, cache.r_platform(task.cores, units));
    EXPECT_GT(task.iterations, 1);
    ASSERT_EQ(task.devices.size(), 1u);
    EXPECT_GT(task.devices[0].interference, Frac(0));
    EXPECT_EQ(task.devices[0].dominant_competitor, 1 - i);
  }
  // The inflation is exactly n_jobs · vol_other at the fixpoint (n_d = 1):
  // verify against a hand-rolled evaluation for tau1.
  const TaskAdmission& tau1 = admission.tasks[0];
  analysis::AnalysisCache cache(set[0].dag());
  const std::vector<int> units(1, 1);
  const Frac seed = cache.r_platform(tau1.cores, units);
  const Frac window = tau1.response;
  const std::int64_t njobs = ((window + Frac(300)).floor() / 300) + 1;
  EXPECT_EQ(tau1.response, seed + Frac(njobs * 6));
}

TEST(ContentionRtaTest, MoreCompetitorsNeverTightenTheBound) {
  // Adding a third task sharing the class can only grow tau1's bound.
  TaskSet two(Platform::parse("8:gpu"));
  two.add(DagTask(chain_dag(10, 8, 1), 200, 200, "tau1"));
  two.add(DagTask(chain_dag(12, 6, 1), 300, 300, "tau2"));
  TaskSet three(Platform::parse("8:gpu"));
  three.add(DagTask(chain_dag(10, 8, 1), 200, 200, "tau1"));
  three.add(DagTask(chain_dag(12, 6, 1), 300, 300, "tau2"));
  three.add(DagTask(chain_dag(9, 7, 1), 400, 400, "tau3"));
  const Frac r_two = contention_rta(two).tasks[0].response;
  const Frac r_three = contention_rta(three).tasks[0].response;
  EXPECT_GE(r_three, r_two);
}

TEST(ContentionRtaTest, ExhaustedCoresRejectTheSet) {
  // Two tasks on one host core: the second task gets nothing.
  TaskSet set(Platform::parse("1:gpu"));
  set.add(DagTask(chain_dag(10, 8, 1), 40, 40, "tau1"));
  set.add(DagTask(chain_dag(12, 6, 1), 40, 40, "tau2"));
  const ContentionAnalysis admission = contention_rta(set);
  EXPECT_FALSE(admission.schedulable);
  EXPECT_LE(admission.cores_used, 1);
}

TEST(ContentionRtaTest, ImpossibleDeadlineRejectsTheTask) {
  TaskSet set(Platform::parse("8:gpu"));
  // len(G) = 28 > D = 20: no core count can help.
  set.add(DagTask(chain_dag(10, 8, 1), 100, 20, "tau1"));
  const ContentionAnalysis admission = contention_rta(set);
  EXPECT_FALSE(admission.schedulable);
  EXPECT_FALSE(admission.tasks[0].schedulable);
}

TEST(ContentionRtaTest, GeneratedBatchesAdmitAtLowUtilization) {
  const auto batch = generate_taskset_batch(small_gen(3, 2, 0.6), 5, 1234);
  int admitted = 0;
  for (const TaskSet& set : batch) {
    if (contention_rta(set).schedulable) ++admitted;
  }
  EXPECT_GE(admitted, 3);  // ample slack: most sets must pass
}

TEST(ContentionRtaTest, ExplainNamesTheDominatingPair) {
  TaskSet set(Platform::parse("8:gpu"));
  set.add(DagTask(chain_dag(10, 8, 1), 200, 200, "tau1"));
  set.add(DagTask(chain_dag(12, 6, 1), 300, 300, "tau2"));
  const ContentionAnalysis admission = contention_rta(set);
  const std::string text = testing::explain(admission, set);
  EXPECT_NE(text.find("SCHEDULABLE"), std::string::npos);
  EXPECT_NE(text.find("dominating contention"), std::string::npos);
  EXPECT_NE(text.find("gpu"), std::string::npos);
  EXPECT_NE(text.find("tau1"), std::string::npos);

  TaskSet lonely(Platform::parse("4:gpu"));
  lonely.add(DagTask(chain_dag(10, 8, 1), 200, 200, "tau1"));
  const std::string solo =
      testing::explain(contention_rta(lonely), lonely);
  EXPECT_NE(solo.find("no device contention"), std::string::npos);
}

TEST(ContentionRtaTest, SpeedupScalesTheSeedBound) {
  // A 2x-speed class halves the device term of the seed (and there is no
  // contention to inflate): the admitted bound reflects it exactly.
  TaskSet plain(Platform::parse("4:gpu"));
  plain.add(DagTask(chain_dag(10, 8, 1), 200, 200, "tau1"));
  TaskSet fast(Platform::parse("4:gpu@2"));
  fast.add(DagTask(chain_dag(10, 8, 1), 200, 200, "tau1"));
  const ContentionAnalysis a = contention_rta(plain);
  const ContentionAnalysis b = contention_rta(fast);
  ASSERT_EQ(a.tasks[0].cores, b.tasks[0].cores);
  EXPECT_EQ(a.tasks[0].response - b.tasks[0].response, Frac(4));
}

TEST(ContentionRtaTest, InvalidInputsThrow) {
  EXPECT_THROW(contention_rta(TaskSet(Platform::parse("4:gpu"))), Error);
}

}  // namespace
}  // namespace hedra::taskset
