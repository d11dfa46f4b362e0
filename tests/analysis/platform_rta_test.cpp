#include <gtest/gtest.h>

#include "analysis/analysis_cache.h"
#include "analysis/platform_rta.h"
#include "common/chain_walk_oracle.h"
#include "common/device_queries.h"
#include "common/fixtures.h"
#include "common/legacy_gen.h"
#include "exp/experiment.h"
#include "graph/flat_dag.h"
#include "util/rng.h"

/// The K-device chain bound (analysis/platform_rta.h) against hand-checked
/// values and the Dag-side oracle (common/chain_walk_oracle.h).  The
/// equivalence regressions are exact: both sides are rationals, so
/// EXPECT_EQ compares num/den.

namespace hedra {
namespace {

using model::Platform;

TEST(PlatformRtaTest, HandCheckedTwoDeviceExample) {
  const auto ex = testing::multi_device_example();
  const auto analysis =
      analysis::analyze_platform(ex.dag, Platform::parse("4:gpu,dsp"));
  EXPECT_EQ(analysis.vol_host, 17);
  EXPECT_EQ(analysis.max_host_path, 17);
  ASSERT_EQ(analysis.devices.size(), 2u);
  EXPECT_EQ(analysis.devices[0].name, "gpu");
  EXPECT_EQ(analysis.devices[0].volume, 6);
  EXPECT_EQ(analysis.devices[0].node_count, 1u);
  EXPECT_EQ(analysis.devices[1].name, "dsp");
  EXPECT_EQ(analysis.devices[1].volume, 5);
  EXPECT_EQ(analysis.host_term, Frac(17, 4));
  EXPECT_EQ(analysis.device_term, Frac(11));
  EXPECT_EQ(analysis.path_term, Frac(17 * 3, 4));
  // 17/m + 11 + 17(m−1)/m = 28 for every m: the host chain dominates.
  EXPECT_EQ(analysis.bound, Frac(28));
  for (const int m : {2, 16}) {
    EXPECT_EQ(analysis::rta_platform(ex.dag, model::platform_for(ex.dag, m)),
              Frac(28));
  }
}

TEST(PlatformRtaTest, HomogeneousDagReducesToGrahamChainBound) {
  // Diamond v1(2) -> {a(3), b(5)} -> v4(1): vol = 11, max path = 8.
  const auto dag = testing::diamond(2, 3, 5, 1);
  const auto analysis =
      analysis::analyze_platform(dag, Platform::symmetric(2, 0));
  EXPECT_TRUE(analysis.devices.empty());
  EXPECT_EQ(analysis.device_term, Frac(0));
  EXPECT_EQ(analysis.bound, Frac(11, 2) + Frac(8, 2));
  // m = 1 degenerates to pure volume.
  EXPECT_EQ(analysis::rta_platform(dag, Platform::symmetric(1, 0)), Frac(11));
}

TEST(PlatformRtaTest, RejectsUnsupportedPlacements) {
  const auto ex = testing::multi_device_example();
  EXPECT_THROW(
      (void)analysis::analyze_platform(ex.dag, Platform::symmetric(2, 1)),
      Error);
  EXPECT_THROW(
      (void)analysis::analyze_platform(ex.dag, Platform::symmetric(2, 0)),
      Error);
}

TEST(PlatformRtaTest, ExtraPlatformDevicesContributeZero) {
  const auto ex = testing::paper_example();
  const Frac narrow =
      analysis::rta_platform(ex.dag, model::platform_for(ex.dag, 2));
  const Frac wide =
      analysis::rta_platform(ex.dag, Platform::symmetric(2, 4));
  EXPECT_EQ(narrow, wide);
  // v_off is device 1's only node; devices 2..4 hold none.
  const auto analysis =
      analysis::analyze_platform(ex.dag, Platform::symmetric(2, 4));
  ASSERT_EQ(analysis.devices.size(), 4u);
  EXPECT_EQ(analysis.devices[0].volume, 4);
  EXPECT_EQ(analysis.devices[0].node_count, 1u);
  for (std::size_t d = 1; d < 4; ++d) {
    EXPECT_EQ(analysis.devices[d].volume, 0);
    EXPECT_EQ(analysis.devices[d].node_count, 0u);
    EXPECT_EQ(analysis.devices[d].term, Frac(0));
  }
}

/// For generated single-device DAGs the K-device bound equals the
/// two-resource multi-offload bound vol_host/m + vol_off +
/// max_host_path·(m−1)/m, as the Dag-side oracle computes it, exactly,
/// across the paper's whole generation envelope (single offload via the
/// paper pipeline AND several offloads on one device via the multi-device
/// pipeline).
TEST(PlatformRtaTest, SingleDeviceBoundEqualsMultiOffloadExactly) {
  for (const std::uint64_t seed : {11u, 22u, 33u}) {
    exp::BatchConfig config;
    config.params.min_nodes = 20;
    config.params.max_nodes = 120;
    config.coff_ratio = 0.05 + 0.1 * static_cast<double>(seed % 5);
    config.count = 40;
    config.seed = seed;
    for (const auto& dag : exp::generate_batch(config)) {
      for (const int m : {1, 2, 4, 8, 16}) {
        EXPECT_EQ(analysis::rta_platform(dag, model::platform_for(dag, m)),
                  testing::reference_platform_bound(dag, m))
            << "seed=" << seed << " m=" << m;
      }
    }
  }
}

TEST(PlatformRtaTest, SingleDeviceMultiOffloadBoundEqualsMultiOffloadExactly) {
  Rng master(77);
  gen::HierarchicalParams params;
  params.min_nodes = 20;
  params.max_nodes = 120;
  params.num_devices = 1;
  params.offloads_per_device = 3;
  for (int i = 0; i < 25; ++i) {
    Rng rng = master.fork();
    const auto dag = gen::generate_multi_device(params, 0.3, rng);
    EXPECT_EQ(dag.offload_nodes().size(), 3u);
    for (const int m : {1, 2, 4, 8, 16}) {
      EXPECT_EQ(analysis::rta_platform(dag, model::platform_for(dag, m)),
                testing::reference_platform_bound(dag, m))
          << "i=" << i << " m=" << m;
    }
  }
}

TEST(PlatformRtaTest, CacheServesTheSameBoundAsTheDirectApi) {
  Rng master(99);
  gen::HierarchicalParams params;
  params.min_nodes = 20;
  params.max_nodes = 100;
  params.num_devices = 3;
  params.offloads_per_device = 2;
  for (int i = 0; i < 10; ++i) {
    Rng rng = master.fork();
    const auto dag = gen::generate_multi_device(params, 0.4, rng);
    analysis::AnalysisCache cache(dag);
    const auto& q = cache.platform_quantities();
    EXPECT_EQ(q.device_volumes.size(), 3u);
    for (const int m : {1, 2, 4, 8, 16}) {
      EXPECT_EQ(cache.r_platform(m),
                analysis::rta_platform(dag, model::platform_for(dag, m)))
          << "i=" << i << " m=" << m;
    }
  }
}

TEST(PlatformRtaTest, MoreCoresNeverLoosensTheBound) {
  const auto ex = testing::multi_device_example();
  Frac previous =
      analysis::rta_platform(ex.dag, model::platform_for(ex.dag, 1));
  for (const int m : {2, 3, 4, 8, 16, 64}) {
    const Frac bound =
        analysis::rta_platform(ex.dag, model::platform_for(ex.dag, m));
    EXPECT_LE(bound, previous) << "m=" << m;
    previous = bound;
  }
}

/// TENTPOLE HAND-CHECK: the multiplicity bound on the two-device example.
/// With gpu getting 2 units, vol_gpu/n = 3, the gpu node's chain weight is
/// 6·(2−1)/2 = 3, and for m >= 2 the all-host chain (17·(m−1)/m) still
/// dominates the weighted walk, so R_plat = 17/m + 8 + 17(m−1)/m = 25.
TEST(PlatformRtaTest, HandCheckedMultiUnitExample) {
  const auto ex = testing::multi_device_example();
  const auto analysis =
      analysis::analyze_platform(ex.dag, Platform::parse("4:gpu*2,dsp"));
  ASSERT_EQ(analysis.devices.size(), 2u);
  EXPECT_EQ(analysis.devices[0].units, 2);
  EXPECT_EQ(analysis.devices[0].term, Frac(3));
  EXPECT_EQ(analysis.devices[1].units, 1);
  EXPECT_EQ(analysis.devices[1].term, Frac(5));
  EXPECT_EQ(analysis.device_term, Frac(8));
  EXPECT_EQ(analysis.path_term, Frac(17 * 3, 4));
  EXPECT_EQ(analysis.bound, Frac(25));
  for (const int m : {2, 8, 16}) {
    EXPECT_EQ(analysis::rta_platform(ex.dag,
                                     Platform::parse(std::to_string(m) +
                                                     ":gpu*2,dsp")),
              Frac(25))
        << "m=" << m;
  }
  // m = 1: host weights vanish, the gpu node's own weight (3) is the chain.
  EXPECT_EQ(analysis::rta_platform(ex.dag, Platform::parse("1:gpu*2,dsp")),
            Frac(28));
  // Both classes doubled: device term 3 + 5/2, dsp chain weight 5/2.
  EXPECT_EQ(analysis::rta_platform(ex.dag, Platform::parse("4:gpu*2,dsp*2")),
            Frac(45, 2));
}

/// REGRESSION PIN: on any all-single-unit platform the generalised walk
/// and bound reduce to the pre-multiplicity arithmetic EXACTLY — the walk
/// to max_host_path·(m−1)/m and the bound to vol_host/m + Σ_d vol_d +
/// max_host_path·(m−1)/m, with the host path taken from the Dag-side
/// oracle.
TEST(PlatformRtaTest, SingleUnitWeightingReproducesTheLegacyBoundExactly) {
  Rng master(1234);
  gen::HierarchicalParams params;
  params.min_nodes = 20;
  params.max_nodes = 120;
  params.num_devices = 3;
  params.offloads_per_device = 2;
  for (int i = 0; i < 15; ++i) {
    Rng rng = master.fork();
    const auto dag = gen::generate_multi_device(params, 0.35, rng);
    const graph::FlatDag flat(dag);
    const Frac host_path = testing::reference_host_path(dag);
    EXPECT_EQ(Frac(analysis::max_host_path(flat.view())), host_path);
    const std::vector<int> ones(3, 1);
    for (const int m : {1, 2, 4, 8, 16}) {
      const analysis::ChainWeighting weighting{m, ones, {}};
      const Frac legacy_walk = host_path * Frac(m - 1, m);
      EXPECT_EQ(analysis::max_host_path(flat.view(), weighting), legacy_walk)
          << "i=" << i << " m=" << m;
      Frac legacy =
          Frac(testing::volume_on(dag, graph::kHostDevice), m) + legacy_walk;
      for (graph::DeviceId d = 1; d <= 3; ++d) {
        legacy += testing::volume_on(dag, d);
      }
      EXPECT_EQ(analysis::rta_platform(dag, Platform::symmetric(m, 3, 1)),
                legacy)
          << "i=" << i << " m=" << m;
    }
  }
}

/// The weighted walk and the whole bound against the exact Dag-side oracle
/// (tests/common/chain_walk_oracle.h), for K ∈ {1,2,3} over every unit
/// vector in {1,2,3}^K and every speedup vector in {1, 3/2, 3}^K.
TEST(PlatformRtaTest, WeightedWalkMatchesTheExactOracle) {
  Rng master(2718);
  const std::vector<Frac> speed_values{Frac(1), Frac(3, 2), Frac(3)};
  for (const int devices : {1, 2, 3}) {
    gen::HierarchicalParams params;
    params.min_nodes = 20;
    params.max_nodes = 60;
    params.num_devices = devices;
    params.offloads_per_device = 2;
    int combos = 1;
    for (int d = 0; d < devices; ++d) combos *= 9;
    for (int i = 0; i < 2; ++i) {
      Rng rng = master.fork();
      const auto dag = gen::generate_multi_device(params, 0.35, rng);
      const graph::FlatDag flat(dag);
      const analysis::PlatformQuantities q =
          analysis::platform_quantities(flat.view());
      std::vector<int> units(static_cast<std::size_t>(devices));
      std::vector<Frac> speedups(units.size());
      for (int code = 0; code < combos; ++code) {
        int rest = code;
        for (std::size_t d = 0; d < units.size(); ++d) {
          units[d] = 1 + rest % 3;
          speedups[d] = speed_values[static_cast<std::size_t>(rest / 3 % 3)];
          rest /= 9;
        }
        for (const int m : {1, 2, 4}) {
          SCOPED_TRACE("K=" + std::to_string(devices) + " dag " +
                       std::to_string(i) + " code " + std::to_string(code) +
                       " m=" + std::to_string(m));
          const analysis::ChainWeighting weighting{m, units, speedups};
          EXPECT_EQ(analysis::max_host_path(flat.view(), weighting),
                    testing::reference_chain_walk(dag, m, units, speedups));
          EXPECT_EQ(
              analysis::platform_bound(q, flat.view(), m, units, speedups),
              testing::reference_platform_bound(dag, m, units, speedups));
        }
      }
    }
  }
}

/// Unit counts whose common denominator lies just below or just above
/// 2^31: the first weighting runs the int64 walk, the rest the exact Frac
/// fallback; both must equal the oracle.
TEST(PlatformRtaTest, WeightedWalkMatchesTheOracleAcrossTheInt64Limit) {
  // 46337·46339 < 2^31 < 46349·46351, and consecutive odd numbers are
  // coprime, so the lcm of each pair is its product.
  struct Weighting {
    int m;
    std::vector<int> units;
    std::vector<Frac> speedups;
  };
  const std::vector<Weighting> weightings{
      {1, {46337, 46339}, {}},                      // below: int64 walk
      {1, {46349, 46351}, {}},                      // above: Frac fallback
      {2, {46337, 46339}, {}},                      // m doubles it past 2^31
      {1, {46337, 46339}, {Frac(3, 2), Frac(1)}}};  // so does num(s_1) = 3
  Rng master(3141);
  gen::HierarchicalParams params;
  params.min_nodes = 20;
  params.max_nodes = 80;
  params.num_devices = 2;
  params.offloads_per_device = 3;
  for (int i = 0; i < 4; ++i) {
    Rng rng = master.fork();
    const auto dag = gen::generate_multi_device(params, 0.4, rng);
    const graph::FlatDag flat(dag);
    const analysis::PlatformQuantities q =
        analysis::platform_quantities(flat.view());
    for (std::size_t w = 0; w < weightings.size(); ++w) {
      SCOPED_TRACE("dag " + std::to_string(i) + " weighting " +
                   std::to_string(w));
      const Weighting& c = weightings[w];
      const analysis::ChainWeighting weighting{c.m, c.units, c.speedups};
      EXPECT_EQ(analysis::max_host_path(flat.view(), weighting),
                testing::reference_chain_walk(dag, c.m, c.units, c.speedups));
      EXPECT_EQ(
          analysis::platform_bound(q, flat.view(), c.m, c.units, c.speedups),
          testing::reference_platform_bound(dag, c.m, c.units, c.speedups));
    }
  }
}

TEST(PlatformRtaTest, CacheServesTheSameMultiUnitBoundAsTheDirectApi) {
  Rng master(4321);
  gen::HierarchicalParams params;
  params.min_nodes = 20;
  params.max_nodes = 100;
  params.num_devices = 2;
  params.offloads_per_device = 3;
  for (int i = 0; i < 10; ++i) {
    Rng rng = master.fork();
    const auto dag = gen::generate_multi_device(params, 0.4, rng);
    analysis::AnalysisCache cache(dag);
    for (const int units : {2, 3, 5}) {
      const Platform platform = Platform::symmetric(4, 2, units);
      const std::vector<int> vec(2, units);
      EXPECT_EQ(cache.r_platform(4, vec),
                analysis::rta_platform(dag, platform))
          << "i=" << i << " units=" << units;
    }
  }
}

/// Each path value of the generalised walk has derivative
/// (chain_d − vol_d)/n_d² <= 0 in n_d, so the bound never grows when a
/// device class gains units.
TEST(PlatformRtaTest, MoreUnitsNeverLoosenTheBound) {
  Rng master(55);
  gen::HierarchicalParams params;
  params.min_nodes = 20;
  params.max_nodes = 100;
  params.num_devices = 3;
  params.offloads_per_device = 2;
  for (int i = 0; i < 8; ++i) {
    Rng rng = master.fork();
    const auto dag = gen::generate_multi_device(params, 0.45, rng);
    analysis::AnalysisCache cache(dag);
    for (const int m : {2, 8}) {
      Frac previous = cache.r_platform(m);
      for (const int units : {2, 3, 4, 6}) {
        const std::vector<int> vec(3, units);
        const Frac bound = cache.r_platform(m, vec);
        EXPECT_LE(bound, previous) << "i=" << i << " m=" << m
                                   << " units=" << units;
        previous = bound;
      }
    }
  }
}

TEST(PlatformRtaTest, SpeedupScalesDeviceAndChainTermsExactly) {
  // SATELLITE (PR 5): heterogeneous WCET scaling.  Chain v1(10) ->
  // vOff(8, d1) -> v3(10): vol_host = 20, max host path = 20, vol_1 = 8.
  graph::Dag dag;
  const auto a = dag.add_node(10);
  const auto b = dag.add_node_on(8, 1);
  const auto c = dag.add_node(10);
  dag.add_edge(a, b);
  dag.add_edge(b, c);

  // Unscaled, m = 4, n = 1: 20/4 + 8 + 20·(3/4) = 28.
  EXPECT_EQ(analysis::rta_platform(dag, Platform::parse("4:gpu")), Frac(28));
  // 2x device, single unit: the device term halves (8 -> 4); the chain
  // weight of a single-unit device stays zero.  28 - 4 = 24.
  const auto scaled =
      analysis::analyze_platform(dag, Platform::parse("4:gpu@2"));
  EXPECT_EQ(scaled.devices[0].speedup, Frac(2));
  EXPECT_EQ(scaled.devices[0].term, Frac(4));
  EXPECT_EQ(scaled.bound, Frac(24));
  // 2x device with 2 units on m = 2: 20/2 + 8/(2·2)
  //   + [10·(1/2) + (8/2)·(1/2) + 10·(1/2)] = 10 + 2 + 12 = 24.
  EXPECT_EQ(analysis::rta_platform(dag, Platform::parse("2:gpu*2@2")),
            Frac(24));
  const std::string text =
      analysis::explain(analysis::analyze_platform(dag,
                                                   Platform::parse("4:gpu@2")));
  EXPECT_NE(text.find("(n_d*s_d)"), std::string::npos);
  EXPECT_NE(text.find("at 2x speed"), std::string::npos);
}

TEST(PlatformRtaTest, UnitSpeedupsReduceToTheUnscaledBoundExactly) {
  // All-ones speedup vectors must not change a single rational — through
  // analyze_platform AND the AnalysisCache overloads.
  Rng master(77);
  gen::HierarchicalParams params;
  params.min_nodes = 20;
  params.max_nodes = 80;
  params.num_devices = 2;
  params.offloads_per_device = 2;
  for (int i = 0; i < 6; ++i) {
    Rng rng = master.fork();
    const auto dag = gen::generate_multi_device(params, 0.35, rng);
    Platform plain = Platform::parse("4:gpu*2,dsp");
    Platform unit_speed = plain;
    unit_speed.device_speedup = {Frac(1), Frac(1)};
    EXPECT_EQ(analysis::rta_platform(dag, plain),
              analysis::rta_platform(dag, unit_speed));
    analysis::AnalysisCache cache(dag);
    const std::vector<int> units{2, 1};
    const std::vector<Frac> ones{Frac(1), Frac(1)};
    EXPECT_EQ(cache.r_platform(4, units, ones), cache.r_platform(4, units));
  }
}

TEST(PlatformRtaTest, FasterDevicesNeverLoosenTheBound) {
  Rng master(78);
  gen::HierarchicalParams params;
  params.min_nodes = 20;
  params.max_nodes = 80;
  params.num_devices = 3;
  params.offloads_per_device = 2;
  for (int i = 0; i < 6; ++i) {
    Rng rng = master.fork();
    const auto dag = gen::generate_multi_device(params, 0.4, rng);
    analysis::AnalysisCache cache(dag);
    for (const int m : {2, 8}) {
      const std::vector<int> units{2, 1, 3};
      Frac previous = cache.r_platform(m, units);
      for (const std::int64_t speedup : {2, 3, 6}) {
        const std::vector<Frac> speedups(3, Frac(speedup));
        const Frac bound = cache.r_platform(m, units, speedups);
        EXPECT_LE(bound, previous) << "m=" << m << " s=" << speedup;
        previous = bound;
      }
      // And a slowdown (s < 1) can only loosen it.
      const std::vector<Frac> slow(3, Frac(1, 2));
      EXPECT_GE(cache.r_platform(m, units, slow), cache.r_platform(m, units));
    }
  }
}

TEST(PlatformRtaTest, CacheSpeedupOverloadMatchesAnalyzePlatform) {
  Rng master(79);
  gen::HierarchicalParams params;
  params.min_nodes = 20;
  params.max_nodes = 80;
  params.num_devices = 2;
  params.offloads_per_device = 2;
  for (int i = 0; i < 6; ++i) {
    Rng rng = master.fork();
    const auto dag = gen::generate_multi_device(params, 0.3, rng);
    const Platform platform = Platform::parse("8:gpu*2@1.5,dsp@7/3");
    analysis::AnalysisCache cache(dag);
    EXPECT_EQ(cache.r_platform(platform.cores, platform.device_units,
                               platform.device_speedup),
              analysis::rta_platform(dag, platform));
  }
}

TEST(PlatformRtaTest, ExplainShowsUnitCountsOnMultiUnitPlatforms) {
  const auto ex = testing::multi_device_example();
  const auto analysis =
      analysis::analyze_platform(ex.dag, Platform::parse("4:gpu*2,dsp"));
  const std::string text = analysis::explain(analysis);
  EXPECT_NE(text.find("vol_d/n_d"), std::string::npos);
  EXPECT_NE(text.find("on 2 units"), std::string::npos);
  EXPECT_NE(text.find("gpu(d1 x2)"), std::string::npos);
  EXPECT_NE(text.find("= 25"), std::string::npos);
}

TEST(PlatformRtaTest, ExplainShowsEveryDeviceTerm) {
  const auto ex = testing::multi_device_example();
  const auto analysis =
      analysis::analyze_platform(ex.dag, Platform::parse("4:gpu,dsp"));
  const std::string text = analysis::explain(analysis);
  EXPECT_NE(text.find("R_plat"), std::string::npos);
  EXPECT_NE(text.find("gpu"), std::string::npos);
  EXPECT_NE(text.find("dsp"), std::string::npos);
  EXPECT_NE(text.find("max host path = 17"), std::string::npos);
  EXPECT_NE(text.find("= 28"), std::string::npos);
}

}  // namespace
}  // namespace hedra
