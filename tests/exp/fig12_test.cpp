#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "common/figure_cli.h"
#include "exp/fig12.h"
#include "exp/figures.h"

/// Scaled-down fig12 runs: structure of the result, exact-rational
/// soundness of the contention bounds against the taskset simulator in
/// every admitted cell, the acceptance-falls-with-utilisation shape, and
/// bit-identical `--jobs N` output.

namespace hedra::exp {
namespace {

Fig12Config small_config() {
  Fig12Config config;
  config.utilizations = {0.25, 1.0};
  config.devices = {1, 2};
  config.units = {1, 2};
  config.cores = {4};
  config.num_tasks = 3;
  config.tasksets_per_point = 4;
  config.jobs_per_task = 2;
  return config;
}

TEST(Fig12HarnessTest, ProducesAllCellsAndSummaries) {
  const Fig12Result result = run_fig12(small_config());
  // devices × units × cores × utilizations rows; devices × units × cores
  // summaries.
  EXPECT_EQ(result.rows.size(), 8u);
  EXPECT_EQ(result.summaries.size(), 4u);
  for (const auto& row : result.rows) {
    EXPECT_EQ(row.tasksets, 4);
    EXPECT_GE(row.admitted, 0);
    EXPECT_LE(row.admitted, row.tasksets);
    EXPECT_NEAR(row.acceptance,
                static_cast<double>(row.admitted) / row.tasksets, 1e-12);
    if (row.admitted > 0) {
      EXPECT_GT(row.mean_cores_used, 0.0);
      EXPECT_LE(row.mean_cores_used, 4.0 + 1e-9);
      EXPECT_GT(row.mean_bound_over_deadline, 0.0);
      EXPECT_LE(row.mean_bound_over_deadline, 1.0 + 1e-9);
    }
  }
}

TEST(Fig12HarnessTest, NoSoundnessViolationsAnywhere) {
  // ACCEPTANCE CRITERION (PR 5): zero exact-rational violations of the
  // contention bound across the full grid.
  const Fig12Result result = run_fig12(small_config());
  for (const auto& row : result.rows) {
    EXPECT_EQ(row.violations, 0)
        << "U=" << row.utilization << " K=" << row.devices
        << " n_d=" << row.units << " m=" << row.m;
    EXPECT_LE(row.max_obs_over_bound, 1.0 + 1e-12);
  }
  for (const auto& summary : result.summaries) {
    EXPECT_EQ(summary.violations, 0);
  }
}

TEST(Fig12HarnessTest, AcceptanceFallsWithUtilization) {
  const Fig12Result result = run_fig12(small_config());
  // Per (K, n_d, m) shape: acceptance at U = 0.25 >= acceptance at U = 1.0.
  for (const int devices : {1, 2}) {
    for (const int units : {1, 2}) {
      double low = -1.0;
      double high = -1.0;
      for (const auto& row : result.rows) {
        if (row.devices != devices || row.units != units) continue;
        if (row.utilization == 0.25) low = row.acceptance;
        if (row.utilization == 1.0) high = row.acceptance;
      }
      ASSERT_GE(low, 0.0);
      ASSERT_GE(high, 0.0);
      EXPECT_GE(low, high) << "K=" << devices << " n_d=" << units;
    }
  }
}

TEST(Fig12HarnessTest, ParallelRunsAreBitIdenticalToSerial) {
  Fig12Config serial = small_config();
  serial.jobs = 1;
  Fig12Config parallel = small_config();
  parallel.jobs = 4;
  const Fig12Result a = run_fig12(serial);
  const Fig12Result b = run_fig12(parallel);
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(a.rows[i].admitted, b.rows[i].admitted);
    EXPECT_EQ(a.rows[i].mean_cores_used, b.rows[i].mean_cores_used);
    EXPECT_EQ(a.rows[i].mean_bound_over_deadline,
              b.rows[i].mean_bound_over_deadline);
    EXPECT_EQ(a.rows[i].max_obs_over_bound, b.rows[i].max_obs_over_bound);
    EXPECT_EQ(a.rows[i].violations, b.rows[i].violations);
  }
}

TEST(Fig12HarnessTest, RendersAndExportsCsv) {
  const std::string path = ::testing::TempDir() + "/f12.csv";
  const auto run = hedra::testing::run_cli(
      fig12_figure(), {"--quick", "--jobs", "1", "--csv", path});
  EXPECT_EQ(run.status, 0);
  EXPECT_NE(run.out.find("accepted"), std::string::npos);
  EXPECT_NE(run.out.find("worst obs/bound"), std::string::npos);
  EXPECT_NE(run.out.find("violations 0"), std::string::npos);
  // A header, then U × K × n_d × m = 2 × 2 × 2 × 1 rows.
  const auto lines = hedra::testing::read_lines(path);
  ASSERT_EQ(lines.size(), 9u);
  EXPECT_EQ(lines[0].rfind("devices,units,m,utilization,tasksets,", 0), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hedra::exp
