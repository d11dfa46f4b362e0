#include <gtest/gtest.h>

#include "analysis/schedulability.h"
#include "common/fixtures.h"
#include "common/legacy_gen.h"
#include "exact/bnb.h"
#include "exp/experiment.h"
#include "graph/dag_io.h"
#include "graph/dot.h"
#include "graph/validate.h"
#include "sim/gantt.h"
#include "sim/scheduler.h"

/// End-to-end pipeline checks: generate -> validate -> serialize ->
/// transform -> analyze -> simulate -> solve, the way a downstream user
/// would drive the library.

namespace hedra {
namespace {

TEST(PipelineTest, GenerateAnalyzeSimulateSolve) {
  Rng rng(2024);
  gen::HierarchicalParams params = gen::HierarchicalParams::small_tasks();
  params.min_nodes = 8;
  params.max_nodes = 20;
  graph::Dag dag = gen::generate_hierarchical(params, rng);
  (void)gen::select_offload_node(dag, rng);
  (void)gen::set_offload_ratio(dag, 0.25);
  graph::throw_if_invalid(dag, graph::heterogeneous_rules());

  const int m = 2;
  const auto analysis = analysis::analyze_heterogeneous(dag, m);
  sim::SimConfig config;
  config.cores = m;
  const auto trace = sim::simulate(analysis.transform.transformed, config);
  EXPECT_TRUE(trace.validate().empty());
  EXPECT_LE(Frac(trace.makespan()), analysis.r_het);

  const auto opt = exact::min_makespan(dag, m);
  EXPECT_TRUE(opt.proven_optimal);
  EXPECT_LE(Frac(opt.makespan), analysis.r_het);
  EXPECT_LE(Frac(opt.makespan), analysis.r_hom);
}

TEST(PipelineTest, SerialisationSurvivesAnalysis) {
  // Write the paper example to text, read it back, and verify that the
  // analysis results are unchanged — what the dag_tool example relies on.
  const auto ex = testing::paper_example();
  const graph::Dag reloaded =
      graph::read_dag_text(graph::write_dag_text(ex.dag));
  const auto a = analysis::analyze_heterogeneous(ex.dag, 2);
  const auto b = analysis::analyze_heterogeneous(reloaded, 2);
  EXPECT_EQ(a.r_het, b.r_het);
  EXPECT_EQ(a.r_hom, b.r_hom);
  EXPECT_EQ(a.scenario, b.scenario);
}

TEST(PipelineTest, SchedulabilityDecisionsRoundTrip) {
  Rng rng(7);
  auto params = gen::HierarchicalParams::small_tasks();
  params.min_nodes = 10;
  params.max_nodes = 40;
  for (int i = 0; i < 5; ++i) {
    graph::Dag dag = gen::generate_hierarchical(params, rng);
    (void)gen::select_offload_node(dag, rng);
    (void)gen::set_offload_ratio(dag, 0.3);
    const auto analysis = analysis::analyze_heterogeneous(dag, 4);
    // Deadline exactly at the bound: schedulable; one tick below: depends
    // on the fractional part, but one full tick below floor(bound): not.
    const graph::Time at =  // ceil(bound)
        analysis.r_het.floor() + (analysis.r_het.is_integer() ? 0 : 1);
    const model::DagTask task(dag, at + 10, at);
    const auto report = analysis::check_schedulability(
        task, 4, analysis::AnalysisKind::kHeterogeneous);
    EXPECT_TRUE(report.schedulable);
    const model::DagTask tight(dag, at + 10, analysis.r_het.floor() == at
                                                  ? at - 1
                                                  : analysis.r_het.floor());
    const auto tight_report = analysis::check_schedulability(
        tight, 4, analysis::AnalysisKind::kHeterogeneous);
    EXPECT_FALSE(tight_report.schedulable);
  }
}

TEST(PipelineTest, BatchGenerationIsReproducible) {
  exp::BatchConfig config;
  config.params = gen::HierarchicalParams::small_tasks();
  config.params.min_nodes = 8;
  config.params.max_nodes = 30;
  config.coff_ratio = 0.2;
  config.count = 5;
  config.seed = 99;
  const auto a = exp::generate_batch(config);
  const auto b = exp::generate_batch(config);
  ASSERT_EQ(a.size(), 5u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].edges(), b[i].edges());
    EXPECT_EQ(a[i].volume(), b[i].volume());
  }
}

TEST(PipelineTest, BatchMembersAreValidHeterogeneousTasks) {
  exp::BatchConfig config;
  config.params = gen::HierarchicalParams::small_tasks();
  config.coff_ratio = 0.15;
  config.count = 10;
  config.seed = 5;
  for (const auto& dag : exp::generate_batch(config)) {
    EXPECT_TRUE(graph::is_valid(dag, graph::heterogeneous_rules()));
    EXPECT_NEAR(gen::offload_ratio(dag), 0.15, 0.03);
  }
}

TEST(PipelineTest, DotAndGanttArtifactsRender) {
  const auto ex = testing::paper_example();
  const auto result = analysis::transform_for_offload(ex.dag);
  graph::DotOptions options;
  for (const auto parent : result.gpar.to_parent) {
    options.highlight.push_back(parent);
  }
  const std::string dot = graph::to_dot(result.transformed, options);
  EXPECT_NE(dot.find("vSync"), std::string::npos);
  sim::SimConfig config;
  config.cores = 2;
  const auto trace = sim::simulate(result.transformed, config);
  const std::string gantt = sim::render_gantt(trace, result.transformed);
  EXPECT_NE(gantt.find("ACC"), std::string::npos);
}

TEST(PipelineTest, GridsAreSane) {
  for (const double r : exp::ratio_grid_fig6()) {
    EXPECT_GT(r, 0.0);
    EXPECT_LE(r, 0.7);
  }
  for (const double r : exp::ratio_grid_fig89()) {
    EXPECT_GE(r, 0.0012);
    EXPECT_LE(r, 0.5);
  }
  EXPECT_EQ(exp::paper_core_counts(), (std::vector<int>{2, 4, 8, 16}));
}

}  // namespace
}  // namespace hedra
