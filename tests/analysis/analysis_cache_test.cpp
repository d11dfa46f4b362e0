#include "analysis/analysis_cache.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/fixtures.h"
#include "common/theorem1_reference.h"
#include "exp/experiment.h"
#include "graph/algorithms.h"

/// The cache must be an observationally transparent memoisation layer:
/// every cached quantity equals what the direct (re-computing) API returns,
/// for every core count served from one instance.

namespace hedra::analysis {
namespace {

TEST(AnalysisCacheTest, PaperExampleNumbers) {
  const auto ex = testing::paper_example();
  AnalysisCache cache(ex.dag);
  EXPECT_EQ(cache.len_original(), 8);
  EXPECT_EQ(cache.quantities().len_trans, 10);
  EXPECT_EQ(cache.quantities().vol, 18);
  EXPECT_EQ(cache.quantities().c_off, 4);
  EXPECT_FALSE(cache.quantities().voff_critical);
  EXPECT_EQ(cache.scenario(2), Scenario::kS1);
  EXPECT_EQ(cache.r_het(2), Frac(12));
  EXPECT_EQ(cache.r_hom(2), Frac(13));
}

TEST(AnalysisCacheTest, MatchesDirectApiAcrossCoreCounts) {
  exp::BatchConfig config;
  config.params.min_nodes = 15;
  config.params.max_nodes = 50;
  config.coff_ratio = 0.25;
  config.count = 10;
  config.seed = 77;
  for (const auto& dag : exp::generate_batch(config)) {
    AnalysisCache cache(dag);
    const TheoremQuantities q =
        testing::theorem1_quantities(transform_for_offload(dag));
    for (const int m : {1, 2, 4, 8, 16}) {
      EXPECT_EQ(cache.r_het(m), evaluate(q, classify(q, m), m));
      EXPECT_EQ(cache.scenario(m), classify(q, m));
      EXPECT_EQ(cache.r_hom(m), rta_homogeneous(dag, m));
      // One cache serving every m agrees with a fresh one per m.
      const HetAnalysis direct = analyze_heterogeneous(dag, m);
      EXPECT_EQ(cache.r_het(m), direct.r_het);
      EXPECT_EQ(cache.r_hom(m), direct.r_hom);
      EXPECT_EQ(cache.r_hom_gpar(m), direct.r_hom_gpar);
      EXPECT_EQ(cache.scenario(m), direct.scenario);
      EXPECT_EQ(cache.quantities().len_trans, direct.len_transformed);
      EXPECT_EQ(cache.quantities().len_gpar, direct.len_gpar);
      EXPECT_EQ(cache.quantities().vol_gpar, direct.vol_gpar);
    }
  }
}

TEST(AnalysisCacheTest, ScenarioBoundariesMatchWideGparFixture) {
  // c_off in [2, 5) is S2.2, 5 the tie (goes to S2.1), above 5 S2.1 at m=2.
  for (const graph::Time c_off : {2, 4, 5, 6, 10}) {
    const graph::Dag dag = testing::wide_gpar_example(c_off);
    AnalysisCache cache(dag);
    // Materialise the scenario via the cache and check against a second,
    // independent cache to ensure memoisation does not leak across m.
    const Scenario at_m2 = cache.scenario(2);
    if (c_off < 5) {
      EXPECT_EQ(at_m2, Scenario::kS22) << "c_off " << c_off;
    } else {
      EXPECT_EQ(at_m2, Scenario::kS21) << "c_off " << c_off;
    }
  }
}

TEST(AnalysisCacheTest, TopologicalOrdersMatchGraphAlgorithms) {
  const auto ex = testing::fig3_example();
  AnalysisCache cache(ex.dag);
  EXPECT_TRUE(std::ranges::equal(cache.flat_view().topological_order(),
                                 graph::topological_order(ex.dag)));
  const auto transformed_order = graph::topological_order(cache.transformed());
  EXPECT_TRUE(std::ranges::equal(cache.transformed_view().topological_order(),
                                 transformed_order));
}

TEST(AnalysisCacheTest, TransformIsComputedLazilyAndReused) {
  const auto ex = testing::paper_example();
  AnalysisCache cache(ex.dag);
  const TransformResult& first = cache.transform();
  const TransformResult& second = cache.transform();
  EXPECT_EQ(&first, &second);  // same object, no recomputation
  EXPECT_EQ(&cache.critical_path(), &cache.critical_path());
}

}  // namespace
}  // namespace hedra::analysis
