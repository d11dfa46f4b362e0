/// \file batch_kernels_test.cpp
/// analyze_platform_batch must be EXACTLY equal to the Dag-side reference of
/// tests/common/chain_walk_oracle.h: same normalised rationals for every
/// (DAG, m) bound, same PlatformQuantities fields.  The SIMD volume backend
/// must agree with the scalar reference on every input shape (including the
/// <4-lane tails the masked loop peels).

#include "analysis/batch_kernels.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/chain_walk_oracle.h"
#include "exp/experiment.h"
#include "gen/params.h"
#include "util/rng.h"

namespace hedra::analysis {
namespace {

using exp::BatchConfig;
using graph::DeviceId;
using graph::FlatDagBatch;
using graph::Time;

BatchConfig small_config(std::uint64_t seed, double ratio) {
  BatchConfig config;
  config.params = gen::HierarchicalParams::small_tasks();
  config.params.min_nodes = 10;
  config.params.max_nodes = 60;
  config.coff_ratio = ratio;
  config.count = 8;
  config.seed = seed;
  return config;
}

TEST(BatchKernelsTest, BackendNameIsKnown) {
  const std::string backend = batch_kernel_backend();
  EXPECT_TRUE(backend == "avx2" || backend == "scalar") << backend;
}

TEST(BatchKernelsTest, DispatchedVolumesMatchScalarReference) {
  Rng rng(2024);
  // Sizes straddling the 4-lane SIMD width, device counts beyond what the
  // generators produce.
  for (const std::size_t n : {0u, 1u, 3u, 4u, 5u, 7u, 8u, 64u, 257u}) {
    for (const std::size_t num_devices : {1u, 2u, 5u}) {
      std::vector<Time> wcets(n);
      std::vector<DeviceId> devices(n);
      for (std::size_t i = 0; i < n; ++i) {
        wcets[i] = static_cast<Time>(rng.uniform_int(0, 1000));
        devices[i] = static_cast<DeviceId>(
            rng.uniform_int(0, static_cast<Time>(num_devices) - 1));
      }
      std::vector<Time> got(num_devices, 0);
      std::vector<Time> want(num_devices, 0);
      accumulate_device_volumes(wcets, devices, got);
      accumulate_device_volumes_scalar(wcets, devices, want);
      EXPECT_EQ(got, want) << "n=" << n << " devices=" << num_devices;
    }
  }
}

TEST(BatchKernelsTest, VolumesAccumulateIntoExistingEntries) {
  const std::vector<Time> wcets{5, 7, 11};
  const std::vector<DeviceId> devices{0, 1, 0};
  std::vector<Time> out{100, 200};
  accumulate_device_volumes(wcets, devices, out);
  EXPECT_EQ(out, (std::vector<Time>{116, 207}));
}

TEST(BatchKernelsTest, QuantitiesMatchTheDagReference) {
  const std::vector<int> cores{2};
  for (const int devices : {1, 2, 3}) {
    BatchConfig config = small_config(300u + devices, 0.3);
    config.params.num_devices = devices;
    config.params.offloads_per_device = 2;
    const FlatDagBatch batch = exp::generate_flat_batch(config);
    const PlatformBatchAnalysis result = analyze_platform_batch(batch, cores);
    ASSERT_EQ(result.quantities.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      SCOPED_TRACE("devices " + std::to_string(devices) + ", dag " +
                   std::to_string(i));
      const graph::Dag dag = batch.materialize(i);
      const PlatformQuantities& got = result.quantities[i];
      EXPECT_EQ(got.vol_host, dag.volume_on(graph::kHostDevice));
      EXPECT_EQ(Frac(got.max_host_path), testing::reference_host_path(dag));
      std::vector<std::pair<DeviceId, Time>> volumes;
      Time sum = 0;
      for (DeviceId d = 1; d <= dag.max_device(); ++d) {
        if (dag.nodes_on(d).empty()) continue;
        volumes.emplace_back(d, dag.volume_on(d));
        sum += dag.volume_on(d);
      }
      EXPECT_EQ(got.device_volumes, volumes);
      EXPECT_EQ(got.device_volume_sum, sum);
    }
  }
}

TEST(BatchKernelsTest, SingleUnitBoundsEqualTheReferenceExactly) {
  const std::vector<int> cores{1, 2, 4, 8};
  for (const int devices : {1, 2, 3}) {
    BatchConfig config = small_config(400u + devices, 0.25);
    config.params.num_devices = devices;
    config.params.offloads_per_device = 2;
    const FlatDagBatch batch = exp::generate_flat_batch(config);
    const PlatformBatchAnalysis result = analyze_platform_batch(batch, cores);
    ASSERT_EQ(result.quantities.size(), batch.size());
    ASSERT_EQ(result.bounds.size(), batch.size() * cores.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const graph::Dag dag = batch.materialize(i);
      for (std::size_t mi = 0; mi < cores.size(); ++mi) {
        // Exact rational equality, not to_double closeness.
        EXPECT_EQ(result.bound(i, mi),
                  testing::reference_platform_bound(dag, cores[mi]))
            << "devices " << devices << ", dag " << i << ", m " << cores[mi];
      }
    }
  }
}

TEST(BatchKernelsTest, MultiplicityAndSpeedupBoundsEqualTheReferenceExactly) {
  const std::vector<int> cores{2, 4, 8};
  BatchConfig config = small_config(777, 0.35);
  config.params.num_devices = 2;
  config.params.offloads_per_device = 2;
  const FlatDagBatch batch = exp::generate_flat_batch(config);

  const std::vector<std::vector<int>> unit_grid{{1, 1}, {2, 1}, {2, 2}};
  const std::vector<std::vector<Frac>> speed_grid{
      {Frac(1), Frac(1)}, {Frac(3), Frac(3, 2)}};
  for (const auto& units : unit_grid) {
    for (const auto& speedups : speed_grid) {
      const PlatformBatchAnalysis result =
          analyze_platform_batch(batch, cores, units, speedups);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const graph::Dag dag = batch.materialize(i);
        for (std::size_t mi = 0; mi < cores.size(); ++mi) {
          EXPECT_EQ(result.bound(i, mi),
                    testing::reference_platform_bound(dag, cores[mi], units,
                                                      speedups))
              << "units {" << units[0] << "," << units[1] << "} dag " << i
              << " m " << cores[mi];
        }
      }
    }
  }
}

}  // namespace
}  // namespace hedra::analysis
