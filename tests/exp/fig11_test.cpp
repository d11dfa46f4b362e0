#include <gtest/gtest.h>

#include <cstdio>

#include "common/figure_cli.h"
#include "exp/fig11.h"
#include "exp/figures.h"

/// Scaled-down fig11 runs: structure of the result, soundness of every
/// (units, ratio, m) cell, the bound-tightening shape the multiplicity
/// generalisation predicts, and bit-identical `--jobs N` output.

namespace hedra::exp {
namespace {

Fig11Config small_config() {
  Fig11Config config;
  config.devices = 2;
  config.unit_vectors = {{1, 1}, {2, 2}, {3, 3}};
  config.ratios = {0.15, 0.35};
  config.cores = {2, 8};
  config.dags_per_point = 5;
  config.params.min_nodes = 30;
  config.params.max_nodes = 80;
  return config;
}

TEST(Fig11HarnessTest, ProducesAllCellsAndSummaries) {
  const Fig11Result result = run_fig11(small_config());
  // units × ratios × cores cells, units × cores summaries.
  EXPECT_EQ(result.rows.size(), 12u);
  EXPECT_EQ(result.summaries.size(), 6u);
  for (const auto& row : result.rows) {
    EXPECT_EQ(row.unit_vector.size(), 2u);  // one entry per device class
    EXPECT_GT(row.mean_bound, 0.0);
    EXPECT_GT(row.mean_bound_single, 0.0);
    ASSERT_EQ(row.mean_makespan.size(), 5u);  // one per policy
    for (const double makespan : row.mean_makespan) {
      EXPECT_GT(makespan, 0.0);
      EXPECT_LE(makespan, row.mean_bound + 1e-9);
    }
  }
}

TEST(Fig11HarnessTest, EveryPolicyStaysBelowTheBoundOnEveryUnitCount) {
  const Fig11Result result = run_fig11(small_config());
  for (const auto& row : result.rows) {
    EXPECT_EQ(row.violations, 0) << "units=" << row.unit_vector[0]
                                 << " ratio=" << row.ratio << " m=" << row.m;
    EXPECT_LE(row.max_sim_over_bound, 1.0);
    EXPECT_GT(row.max_sim_over_bound, 0.0);
  }
  for (const auto& summary : result.summaries) {
    EXPECT_EQ(summary.violations, 0);
  }
}

TEST(Fig11HarnessTest, MoreUnitsTightenTheBoundAndNeverSlowTheSim) {
  // Same batch across unit counts: the bound is monotonically
  // non-increasing in n_d (units = 1 rows must equal the single-unit
  // reference exactly), and the bound gain reported per summary is
  // non-negative.
  const Fig11Result result = run_fig11(small_config());
  for (const auto& row : result.rows) {
    EXPECT_LE(row.mean_bound, row.mean_bound_single + 1e-9);
    if (row.unit_vector == std::vector<int>{1, 1}) {
      EXPECT_DOUBLE_EQ(row.mean_bound, row.mean_bound_single);
    }
  }
  for (const auto& summary : result.summaries) {
    EXPECT_GE(summary.mean_bound_gain_pct, -1e-9);
    if (summary.unit_vector == std::vector<int>{1, 1}) {
      EXPECT_NEAR(summary.mean_bound_gain_pct, 0.0, 1e-9);
    }
  }
}

TEST(Fig11HarnessTest, ParallelRunsAreBitIdenticalToSerial) {
  Fig11Config serial = small_config();
  serial.jobs = 1;
  Fig11Config parallel = small_config();
  parallel.jobs = 4;
  const Fig11Result a = run_fig11(serial);
  const Fig11Result b = run_fig11(parallel);
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(a.rows[i].mean_bound, b.rows[i].mean_bound);
    EXPECT_EQ(a.rows[i].mean_bound_single, b.rows[i].mean_bound_single);
    EXPECT_EQ(a.rows[i].mean_makespan, b.rows[i].mean_makespan);
    EXPECT_EQ(a.rows[i].max_sim_over_bound, b.rows[i].max_sim_over_bound);
    EXPECT_EQ(a.rows[i].mean_slack_pct, b.rows[i].mean_slack_pct);
    EXPECT_EQ(a.rows[i].violations, b.rows[i].violations);
  }
}

TEST(Fig11HarnessTest, AsymmetricUnitVectorsSweepSoundly) {
  Fig11Config config = small_config();
  config.unit_vectors = {{2, 1}, {3, 1}};
  const Fig11Result result = run_fig11(config);
  // 2 vectors × 2 ratios × 2 cores rows, 2 vectors × 2 cores summaries.
  EXPECT_EQ(result.rows.size(), 8u);
  EXPECT_EQ(result.summaries.size(), 4u);
  for (const auto& row : result.rows) {
    ASSERT_EQ(row.unit_vector.size(), 2u);
    EXPECT_NE(row.unit_vector[0], row.unit_vector[1]);  // asymmetric
    EXPECT_EQ(row.violations, 0)
        << "units=" << row.unit_vector[0] << "," << row.unit_vector[1]
        << " ratio=" << row.ratio << " m=" << row.m;
    // Extra units on class 1 only still tighten vs the single-unit bound.
    EXPECT_LE(row.mean_bound, row.mean_bound_single + 1e-9);
  }
}

TEST(Fig11HarnessTest, MalformedUnitVectorsThrow) {
  Fig11Config config = small_config();
  config.unit_vectors = {{2}};  // one entry for two classes
  EXPECT_THROW((void)run_fig11(config), Error);
  config.unit_vectors = {{2, 0}};
  EXPECT_THROW((void)run_fig11(config), Error);
}

TEST(Fig11HarnessTest, RendersAndExportsCsv) {
  // The CLI path: --max-units expands into symmetric vectors, and
  // --unit-vectors labels asymmetric rows "2-1" in both views.
  const std::string path = ::testing::TempDir() + "/f11.csv";
  const std::vector<std::string> common{
      "--dags", "3", "--min-nodes", "30", "--max-nodes", "80",
      "--jobs", "1", "--csv", path};
  for (const std::string axis : {"--max-units=2", "--unit-vectors=2,1;3,1"}) {
    std::vector<std::string> args{axis};
    args.insert(args.end(), common.begin(), common.end());
    const auto run = hedra::testing::run_cli(fig11_figure(), args);
    EXPECT_EQ(run.status, 0) << axis;
    EXPECT_NE(run.out.find("R_plat"), std::string::npos);
    EXPECT_NE(run.out.find("worst/bound"), std::string::npos);
    EXPECT_NE(run.out.find("violations 0"), std::string::npos);
    // A header, then 2 unit vectors × 4 ratios × 4 m rows.
    const auto lines = hedra::testing::read_lines(path);
    ASSERT_EQ(lines.size(), 33u) << axis;
    EXPECT_EQ(lines[0].rfind("devices,units,coff_ratio,m,", 0), 0u);
    const bool asymmetric = axis.find("vectors") != std::string::npos;
    EXPECT_EQ(lines[1].rfind(asymmetric ? "2,2-1," : "2,1,", 0), 0u)
        << lines[1];
    EXPECT_EQ(run.out.find("n_d=3-1") != std::string::npos, asymmetric);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hedra::exp
