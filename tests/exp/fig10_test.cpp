#include <gtest/gtest.h>

#include <cstdio>

#include "common/figure_cli.h"
#include "exp/fig10.h"
#include "exp/figures.h"

/// Scaled-down fig10 runs: structure of the result, soundness of every cell
/// (the acceptance criterion "no policy above the bound" is counted inside
/// the experiment itself), and bit-identical `--jobs N` output.

namespace hedra::exp {
namespace {

Fig10Config small_config() {
  Fig10Config config;
  config.devices = {1, 2};
  config.ratios = {0.1, 0.3};
  config.cores = {2, 8};
  config.dags_per_point = 5;
  config.params.min_nodes = 30;
  config.params.max_nodes = 80;
  return config;
}

TEST(Fig10HarnessTest, ProducesAllCellsAndSummaries) {
  const Fig10Result result = run_fig10(small_config());
  // devices × ratios × cores cells, devices × cores summaries.
  EXPECT_EQ(result.rows.size(), 8u);
  EXPECT_EQ(result.summaries.size(), 4u);
  for (const auto& row : result.rows) {
    EXPECT_GT(row.mean_bound, 0.0);
    ASSERT_EQ(row.mean_makespan.size(), 5u);  // one per policy
    for (const double makespan : row.mean_makespan) {
      EXPECT_GT(makespan, 0.0);
      EXPECT_LE(makespan, row.mean_bound + 1e-9);
    }
  }
}

TEST(Fig10HarnessTest, EveryPolicyStaysBelowTheBound) {
  const Fig10Result result = run_fig10(small_config());
  for (const auto& row : result.rows) {
    EXPECT_EQ(row.violations, 0)
        << "K=" << row.devices << " ratio=" << row.ratio << " m=" << row.m;
    EXPECT_LE(row.max_sim_over_bound, 1.0);
    EXPECT_GT(row.max_sim_over_bound, 0.0);
  }
  for (const auto& summary : result.summaries) {
    EXPECT_EQ(summary.violations, 0);
  }
}

TEST(Fig10HarnessTest, MoreDevicesTightenTheBoundAtFixedRatio) {
  // Splitting the same offloaded volume across K devices only shrinks the
  // device term's serialisation (Σ_d vol_d is the same) but lets the
  // simulation overlap device work — mean slack should not collapse.
  const Fig10Result result = run_fig10(small_config());
  for (const auto& summary : result.summaries) {
    EXPECT_GE(summary.mean_slack_pct, 0.0);
  }
}

TEST(Fig10HarnessTest, ParallelRunsAreBitIdenticalToSerial) {
  Fig10Config serial = small_config();
  serial.jobs = 1;
  Fig10Config parallel = small_config();
  parallel.jobs = 4;
  const Fig10Result a = run_fig10(serial);
  const Fig10Result b = run_fig10(parallel);
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(a.rows[i].mean_bound, b.rows[i].mean_bound);
    EXPECT_EQ(a.rows[i].mean_makespan, b.rows[i].mean_makespan);
    EXPECT_EQ(a.rows[i].max_sim_over_bound, b.rows[i].max_sim_over_bound);
    EXPECT_EQ(a.rows[i].mean_slack_pct, b.rows[i].mean_slack_pct);
    EXPECT_EQ(a.rows[i].violations, b.rows[i].violations);
  }
}

TEST(Fig10HarnessTest, RendersAndExportsCsv) {
  const std::string path = ::testing::TempDir() + "/f10.csv";
  const auto run = hedra::testing::run_cli(
      fig10_figure(), {"--dags", "3", "--max-devices", "2", "--min-nodes",
                       "30", "--max-nodes", "80", "--jobs", "1", "--csv",
                       path});
  EXPECT_EQ(run.status, 0);
  EXPECT_NE(run.out.find("R_plat"), std::string::npos);
  EXPECT_NE(run.out.find("worst/bound"), std::string::npos);
  EXPECT_NE(run.out.find("violations 0"), std::string::npos);
  // A header, then K × ratios × m = 2 × 5 × 4 rows.
  const auto lines = hedra::testing::read_lines(path);
  ASSERT_EQ(lines.size(), 41u);
  EXPECT_EQ(lines[0].rfind("devices,coff_ratio,m,mean_bound,", 0), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hedra::exp
