#include <gtest/gtest.h>

#include <cmath>

#include "exp/fig6.h"
#include "exp/fig7.h"
#include "exp/fig8.h"
#include "exp/fig9.h"
#include "exp/figures.h"
#include "common/figure_cli.h"

/// Scaled-down versions of the four figure experiments: a handful of DAGs
/// per point, coarse ratio grids.  These check the harness plumbing and the
/// qualitative *shape* of each result — the full-size runs live in bench/.

namespace hedra::exp {
namespace {

TEST(Fig6HarnessTest, ProducesAllCellsAndSummaries) {
  Fig6Config config;
  config.cores = {2, 8};
  config.ratios = {0.02, 0.2, 0.5};
  config.dags_per_point = 6;
  config.params.min_nodes = 30;
  config.params.max_nodes = 80;
  const Fig6Result result = run_fig6(config);
  EXPECT_EQ(result.rows.size(), 6u);
  EXPECT_EQ(result.summaries.size(), 2u);
  for (const auto& row : result.rows) {
    EXPECT_GT(row.avg_original, 0.0);
    EXPECT_GT(row.avg_transformed, 0.0);
  }
}

TEST(Fig6HarnessTest, LargeOffloadFavoursTransformation) {
  // The paper's core observation: once C_off is a large share of the volume,
  // τ' (with v_sync) beats τ on average because the host no longer idles
  // while the accelerator runs.
  Fig6Config config;
  config.cores = {2};
  config.ratios = {0.4};
  config.dags_per_point = 20;
  config.params.min_nodes = 50;
  config.params.max_nodes = 150;
  const Fig6Result result = run_fig6(config);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_GT(result.rows.front().pct_change, 0.0)
      << "original should be slower than transformed at C_off/vol = 40%";
}

TEST(Fig7HarnessTest, PessimismSmallerForLargeOffload) {
  Fig7Config config;
  config.cases = {{2, 5, 14}};
  config.ratios = {0.02, 0.45};
  config.dags_per_point = 8;
  config.solver.time_limit_sec = 3.0;
  const Fig7Result result = run_fig7(config);
  ASSERT_EQ(result.rows.size(), 2u);
  // Bounds are never below the optimum.
  for (const auto& row : result.rows) {
    EXPECT_GE(row.incr_rhom_pct, -1e-9);
    EXPECT_GE(row.incr_rhet_pct, -1e-9);
  }
  // Pessimism of R_het decays as C_off grows (Figure 7's shape).
  EXPECT_LT(result.rows[1].incr_rhet_pct, result.rows[0].incr_rhet_pct);
}

TEST(Fig8HarnessTest, SharesSumTo100) {
  Fig8Config config;
  config.cores = {2, 8};
  config.ratios = {0.005, 0.1, 0.4};
  config.dags_per_point = 10;
  config.params.min_nodes = 30;
  config.params.max_nodes = 80;
  const Fig8Result result = run_fig8(config);
  EXPECT_EQ(result.rows.size(), 6u);
  for (const auto& row : result.rows) {
    EXPECT_NEAR(row.pct_s1 + row.pct_s21 + row.pct_s22, 100.0, 1e-9);
  }
}

TEST(Fig8HarnessTest, S1DominatesTinyOffloadsAndVanishesForLarge) {
  Fig8Config config;
  config.cores = {2};
  config.ratios = {0.0012, 0.5};
  config.dags_per_point = 15;
  config.params.min_nodes = 50;
  config.params.max_nodes = 150;
  const Fig8Result result = run_fig8(config);
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_GT(result.rows[0].pct_s1, 50.0);  // tiny C_off: mostly S1
  EXPECT_LT(result.rows[1].pct_s1, result.rows[0].pct_s1);
}

TEST(Fig9HarnessTest, HetWinsForLargeOffload) {
  Fig9Config config;
  config.cores = {2, 16};
  config.ratios = {0.002, 0.3};
  config.dags_per_point = 12;
  config.params.min_nodes = 50;
  config.params.max_nodes = 150;
  const Fig9Result result = run_fig9(config);
  ASSERT_EQ(result.rows.size(), 4u);
  for (const auto& row : result.rows) {
    if (row.ratio > 0.2) {
      EXPECT_GT(row.mean_pct, 0.0) << "m=" << row.m;
    }
    EXPECT_GE(row.max_pct, row.mean_pct);
  }
}

TEST(Fig9HarnessTest, BenefitShrinksWithCores) {
  // §5.4: "as m increases, the benefit of R_het is smaller because the
  // self-interference factor is divided by m".
  Fig9Config config;
  config.cores = {2, 16};
  config.ratios = {0.3};
  config.dags_per_point = 15;
  config.params.min_nodes = 50;
  config.params.max_nodes = 150;
  const Fig9Result result = run_fig9(config);
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_GT(result.rows[0].mean_pct, result.rows[1].mean_pct);
}

TEST(ReportTest, RendersAndExportsEveryFigure) {
  // Each §5 figure CLI on a tiny batch: its table and CSV both come out.
  const std::string path = ::testing::TempDir() + "/fig.csv";
  const std::vector<std::string> small{"--dags",      "3",  "--min-nodes",
                                       "10",          "--max-nodes", "60",
                                       "--jobs",      "1",  "--csv",
                                       path};
  const std::vector<std::pair<Figure, std::string>> figures{
      {fig6_figure(), "C_off/vol"},
      {fig8_figure(), "S2.1"},
      {fig9_figure(), "mean pct change"}};
  for (const auto& [figure, column] : figures) {
    const auto run = hedra::testing::run_cli(figure, small);
    EXPECT_EQ(run.status, 0) << figure.program;
    EXPECT_NE(run.out.find(column), std::string::npos) << figure.program;
    // A header, then 4 m × the figure's ratio grid.
    EXPECT_GT(hedra::testing::read_lines(path).size(), 4u) << figure.program;
  }
}

}  // namespace
}  // namespace hedra::exp
