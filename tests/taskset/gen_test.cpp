#include "taskset/gen.h"

#include <gtest/gtest.h>

#include "graph/critical_path.h"
#include "graph/validate.h"
#include "util/error.h"

namespace hedra::taskset {
namespace {

TaskSetGenConfig base_config() {
  TaskSetGenConfig config;
  config.num_tasks = 4;
  config.total_utilization = 1.5;
  config.dag_params.max_depth = 3;
  config.dag_params.n_par = 4;
  config.dag_params.min_nodes = 10;
  config.dag_params.max_nodes = 40;
  config.dag_params.wcet_max = 50;
  config.dag_params.num_devices = 2;
  config.coff_ratio = 0.25;
  config.cores = 4;
  return config;
}

TEST(TaskSetGenConfigTest, PlatformMatchesTheRequestedShape) {
  TaskSetGenConfig config = base_config();
  config.device_units = {2, 1};
  const model::Platform platform = config.platform();
  EXPECT_EQ(platform.cores, 4);
  EXPECT_EQ(platform.num_devices(), 2);
  EXPECT_EQ(platform.units_of(1), 2);
  EXPECT_EQ(platform.units_of(2), 1);
}

TEST(TaskSetGenTest, GeneratesValidatedSetsWithPopulatedDevices) {
  Rng rng(21);
  const TaskSet set = generate_task_set(base_config(), rng);
  ASSERT_EQ(set.size(), 4u);
  EXPECT_NO_THROW(set.validate());
  // Multi-device tasks carry one offload node per class, so the structural
  // rules allow any offload count (the paper's single-offload rule is for
  // K = 1 pipelines).
  graph::ValidationRules rules = graph::heterogeneous_rules();
  rules.required_offload_count = -1;
  for (const DagTask& task : set) {
    EXPECT_TRUE(graph::is_valid(task.dag(), rules));
    EXPECT_GT(task.dag().volume_on(1), 0);
    EXPECT_GT(task.dag().volume_on(2), 0);
    EXPECT_GE(task.period(), graph::critical_path_length(task.dag()));
    EXPECT_EQ(task.deadline(), task.period());  // implicit by default
  }
}

TEST(TaskSetGenTest, UtilizationNearTarget) {
  Rng rng(22);
  const TaskSet set = generate_task_set(base_config(), rng);
  double total = 0.0;  // Σ vol(G_i)/T_i
  for (const DagTask& task : set) {
    total += static_cast<double>(task.dag().volume()) /
             static_cast<double>(task.period());
  }
  EXPECT_LE(total, 1.5 + 1e-9);
  EXPECT_GT(total, 0.8);
}

TEST(TaskSetGenTest, HostOnlySetsWhenNoDevices) {
  TaskSetGenConfig config = base_config();
  config.dag_params.num_devices = 0;
  Rng rng(23);
  const TaskSet set = generate_task_set(config, rng);
  EXPECT_EQ(set.platform().num_devices(), 0);
  for (const DagTask& task : set) {
    EXPECT_TRUE(task.dag().offload_nodes().empty());
  }
}

TEST(TaskSetGenTest, ConstrainedDeadlinesStayInWindow) {
  TaskSetGenConfig config = base_config();
  config.implicit_deadlines = false;
  Rng rng(24);
  const TaskSet set = generate_task_set(config, rng);
  for (const DagTask& task : set) {
    EXPECT_LE(task.deadline(), task.period());
    EXPECT_GE(task.deadline(), graph::critical_path_length(task.dag()));
  }
}

TEST(TaskSetGenTest, DeterministicFromTheSeed) {
  Rng a(25);
  Rng b(25);
  const TaskSet sa = generate_task_set(base_config(), a);
  const TaskSet sb = generate_task_set(base_config(), b);
  EXPECT_EQ(sa.to_text(), sb.to_text());
}

TEST(TaskSetGenTest, BatchSetsAreIndependentForks) {
  // Fork-chain batches: the first k sets of a longer batch are identical to
  // a shorter batch from the same master seed (the replication contract the
  // sweep engine relies on).
  const auto long_batch = generate_taskset_batch(base_config(), 5, 31);
  const auto short_batch = generate_taskset_batch(base_config(), 3, 31);
  ASSERT_EQ(long_batch.size(), 5u);
  for (std::size_t i = 0; i < short_batch.size(); ++i) {
    EXPECT_EQ(long_batch[i].to_text(), short_batch[i].to_text());
  }
  // And distinct forks differ.
  EXPECT_NE(long_batch[0].to_text(), long_batch[1].to_text());
}

TEST(TaskSetGenTest, SpeedupShrinksDeviceVolumes) {
  TaskSetGenConfig fast = base_config();
  fast.dag_params.device_speedup = {4.0, 1.0};
  Rng a(26);
  Rng b(26);
  const TaskSet plain = generate_task_set(base_config(), a);
  const TaskSet sped = generate_task_set(fast, b);
  ASSERT_EQ(plain.size(), sped.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    // Same structure and placement (identical RNG stream), but device 1's
    // realised volume shrinks by ~the speedup factor.
    EXPECT_EQ(plain[i].dag().num_nodes(), sped[i].dag().num_nodes());
    EXPECT_LT(sped[i].dag().volume_on(1), plain[i].dag().volume_on(1));
    EXPECT_EQ(sped[i].dag().volume_on(2), plain[i].dag().volume_on(2));
  }
}

TEST(TaskSetGenTest, InvalidConfigsThrow) {
  Rng rng(27);
  TaskSetGenConfig config = base_config();
  config.num_tasks = 0;
  EXPECT_THROW(generate_task_set(config, rng), Error);
  config = base_config();
  config.coff_ratio = 1.0;
  EXPECT_THROW(generate_task_set(config, rng), Error);
  config = base_config();
  config.device_units = {2};  // one entry for two classes
  EXPECT_THROW(generate_task_set(config, rng), Error);
  config = base_config();
  config.cores = 0;
  EXPECT_THROW(generate_task_set(config, rng), Error);
}

}  // namespace
}  // namespace hedra::taskset
