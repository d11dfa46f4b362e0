/// \file flat_gen_test.cpp
/// The §5.1 generator against its reference: the arena batch, its
/// materialised Dags and exp::generate_batch must all equal, for any seed,
/// the batch the per-DAG reference pipeline (common/legacy_gen.h) builds
/// from the same RNG fork chain.  A golden FNV-1a batch hash pins the
/// stream itself against silent regressions.

#include "gen/flat_gen.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "common/legacy_gen.h"
#include "exp/experiment.h"
#include "gen/hierarchical.h"
#include "graph/flat_dag.h"

namespace hedra::gen {
namespace {

using exp::BatchConfig;
using graph::Dag;
using graph::FlatDag;
using graph::FlatDagBatch;
using graph::FlatView;
using graph::NodeId;

/// Element-wise equality of an arena view and a reference snapshot's view.
void expect_view_equals_flat(const FlatView& view, const FlatView& flat,
                             const std::string& context) {
  SCOPED_TRACE(context);
  ASSERT_EQ(view.num_nodes(), flat.num_nodes());
  ASSERT_EQ(view.num_edges(), flat.num_edges());
  EXPECT_EQ(view.max_device(), flat.max_device());
  EXPECT_EQ(view.num_offload_nodes(), flat.num_offload_nodes());
  for (NodeId v = 0; v < view.num_nodes(); ++v) {
    EXPECT_EQ(view.wcet(v), flat.wcet(v));
    EXPECT_EQ(view.device(v), flat.device(v));
    EXPECT_EQ(view.is_sync(v), flat.is_sync(v));
    ASSERT_TRUE(std::ranges::equal(view.successors(v), flat.successors(v)))
        << "successor list of node " << v;
    ASSERT_TRUE(
        std::ranges::equal(view.predecessors(v), flat.predecessors(v)))
        << "predecessor list of node " << v;
  }
  EXPECT_TRUE(std::ranges::equal(view.topological_order(),
                                 flat.topological_order()));
}

/// Field-for-field equality of a generated Dag and the reference Dag,
/// labels included.
void expect_dag_equals(const Dag& got, const Dag& want,
                       const std::string& context) {
  SCOPED_TRACE(context);
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  ASSERT_EQ(got.num_edges(), want.num_edges());
  for (NodeId v = 0; v < want.num_nodes(); ++v) {
    EXPECT_EQ(got.wcet(v), want.wcet(v));
    EXPECT_EQ(got.device(v), want.device(v));
    EXPECT_EQ(got.kind(v), want.kind(v));
    EXPECT_EQ(got.label(v), want.label(v));
    EXPECT_EQ(got.successors(v), want.successors(v));
    EXPECT_EQ(got.predecessors(v), want.predecessors(v));
  }
}

/// The arena batch (views and materialised Dags) and exp::generate_batch,
/// each against the reference batch.
void expect_batch_equals_legacy(const BatchConfig& config,
                                const std::string& context) {
  const std::vector<Dag> legacy = legacy_generate_batch(config);
  const FlatDagBatch batch = exp::generate_flat_batch(config);
  const std::vector<Dag> dags = exp::generate_batch(config);
  ASSERT_EQ(batch.size(), legacy.size()) << context;
  ASSERT_EQ(dags.size(), legacy.size()) << context;
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    const std::string where = context + ", dag " + std::to_string(i);
    const FlatDag flat(legacy[i]);
    expect_view_equals_flat(batch.view(i), flat.view(), where);
    expect_dag_equals(batch.materialize(i), legacy[i], where);
    expect_dag_equals(dags[i], legacy[i], where + ", generate_batch");
  }
}

BatchConfig small_config(std::uint64_t seed, double ratio) {
  BatchConfig config;
  config.params = HierarchicalParams::small_tasks();
  config.params.min_nodes = 10;
  config.params.max_nodes = 60;
  config.coff_ratio = ratio;
  config.count = 8;
  config.seed = seed;
  return config;
}

TEST(FlatGenTest, SingleOffloadBatchBitIdenticalToLegacy) {
  for (const std::uint64_t seed : {7ULL, 42ULL, 12345ULL}) {
    for (const double ratio : {0.1, 0.3}) {
      expect_batch_equals_legacy(
          small_config(seed, ratio),
          "seed " + std::to_string(seed) + " ratio " + std::to_string(ratio));
    }
  }
}

TEST(FlatGenTest, MultiDeviceBatchBitIdenticalToLegacy) {
  for (const int devices : {1, 2, 3}) {
    for (const int units : {1, 2}) {
      BatchConfig config = small_config(91u + devices, 0.3);
      config.params.num_devices = devices;
      config.params.offloads_per_device = 2;
      config.params.device_units.assign(devices, units);
      expect_batch_equals_legacy(config,
                                 "devices " + std::to_string(devices) +
                                     " units " + std::to_string(units));
    }
  }
}

TEST(FlatGenTest, MultiDeviceMixAndSpeedupBitIdenticalToLegacy) {
  BatchConfig config = small_config(4242, 0.4);
  config.params.num_devices = 2;
  config.params.offloads_per_device = 2;
  config.params.device_mix = {2.0, 1.0};
  config.params.device_speedup = {3.0, 1.5};
  expect_batch_equals_legacy(config, "mix+speedup");
}

TEST(FlatGenTest, RejectionLoopConsumesIdenticalStream) {
  // A narrow node window forces many rejected attempts; afterwards both
  // generators must leave the RNG at the same point.
  HierarchicalParams params = HierarchicalParams::small_tasks();
  params.min_nodes = 30;
  params.max_nodes = 34;
  Rng legacy_rng(99);
  Rng flat_rng(99);
  const Dag dag = generate_hierarchical(params, legacy_rng);
  FlatDagBatch batch;
  generate_hierarchical_flat(params, flat_rng, batch);
  EXPECT_EQ(batch.num_nodes(0), dag.num_nodes());
  EXPECT_EQ(legacy_rng.next_u64(), flat_rng.next_u64());
}

TEST(FlatGenTest, HierarchicalFlatMatchesLegacyStructure) {
  HierarchicalParams params = HierarchicalParams::large_tasks_100_250();
  Rng legacy_rng(5);
  Rng flat_rng(5);
  const Dag dag = generate_hierarchical(params, legacy_rng);
  FlatDagBatch batch;
  generate_hierarchical_flat(params, flat_rng, batch);
  const FlatDag flat(dag);
  expect_view_equals_flat(batch.view(0), flat.view(), "plain hierarchical");
  expect_dag_equals(batch.materialize(0), dag, "plain hierarchical");
}

/// FNV-1a over the structural arrays of every DAG of a batch — one number
/// that pins the whole generated stream.
std::uint64_t batch_hash(const FlatDagBatch& batch) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t x) {
    h = (h ^ x) * 1099511628211ULL;
  };
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const FlatView view = batch.view(i);
    mix(view.num_nodes());
    mix(view.num_edges());
    for (NodeId v = 0; v < view.num_nodes(); ++v) {
      mix(static_cast<std::uint64_t>(view.wcet(v)));
      mix(view.device(v));
      for (const NodeId w : view.successors(v)) mix(w);
      for (const NodeId p : view.predecessors(v)) mix(p);
    }
    for (const NodeId v : view.topological_order()) mix(v);
  }
  return h;
}

TEST(FlatGenTest, GoldenBatchHashSingleOffload) {
  // Golden values: any change here is a seed-schema break and must be an
  // explicit, documented decision (DESIGN.md determinism contract).
  const FlatDagBatch batch = exp::generate_flat_batch(small_config(42, 0.1));
  EXPECT_EQ(batch_hash(batch), 10521195304060402351ULL);
}

TEST(FlatGenTest, GoldenBatchHashMultiDevice) {
  BatchConfig config = small_config(13, 0.3);
  config.params.num_devices = 2;
  config.params.offloads_per_device = 2;
  config.params.device_speedup = {2.0, 1.0};
  const FlatDagBatch batch = exp::generate_flat_batch(config);
  EXPECT_EQ(batch_hash(batch), 16074132588607916876ULL);
}

}  // namespace
}  // namespace hedra::gen
