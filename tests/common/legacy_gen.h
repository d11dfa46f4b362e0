#pragma once

/// \file legacy_gen.h
/// Test-only reference for the §5.1 generator: the per-DAG pipeline as it
/// stood before `gen/flat_gen` became the only generator in the library.
/// Each step edits a whole `graph::Dag`:
///
///   - single offload: generate_hierarchical, then select_offload_node
///     (one random internal v_off, rebuilding the Dag) and
///     set_offload_ratio (C_off solved against the target share of vol(G));
///   - K devices: generate_multi_device, i.e. select_offload_nodes (a
///     shuffle of the internal nodes, placed device-major) and
///     set_offload_ratio_multi (the total split by mix weight and speedup,
///     spread over each device's nodes by cumulative rounding).
///
/// `legacy_generate_batch` runs these steps over the replication fork
/// chain.  It is the referee of the arena generators' determinism
/// contract (tests/gen/flat_gen_test.cpp), so the one thing it shares with
/// gen/flat_gen.h is the fork–join recursion, generate_hierarchical_staged,
/// whose draw generate_hierarchical materialises as a Dag; it must never
/// call `exp::generate_batch` or a `generate_*_flat` entry point.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "exp/experiment.h"
#include "gen/flat_gen.h"
#include "gen/params.h"
#include "graph/dag.h"
#include "graph/flat_batch.h"
#include "util/error.h"
#include "util/rng.h"

namespace hedra::gen {

/// Generates one plain hierarchical (host-only) DAG: the accepted draw of
/// generate_hierarchical_staged, built as a Dag.  Throws hedra::Error if
/// `params` is invalid or no graph within the node window is found in
/// max_attempts tries.
inline graph::Dag generate_hierarchical(const HierarchicalParams& params,
                                        Rng& rng) {
  // The rejection loop runs in reusable staging buffers (no Dag per
  // rejected attempt); only the accepted attempt materialises.
  thread_local graph::StagedDag staged;
  generate_hierarchical_staged(params, rng, staged);
  graph::Dag dag;
  for (std::size_t v = 0; v < staged.num_nodes(); ++v) {
    (void)dag.add_node(staged.wcet[v]);
  }
  for (const auto& [from, to] : staged.edges) dag.add_edge(from, to);
  return dag;
}

/// Marks a uniformly chosen internal node (neither source nor sink) as the
/// offloaded node and returns its id.  Requires a valid single-source/sink
/// DAG with at least 3 nodes and no existing offload node.
inline graph::NodeId select_offload_node(graph::Dag& dag, Rng& rng) {
  using graph::Dag;
  using graph::NodeId;
  HEDRA_REQUIRE(dag.offload_nodes().empty(),
                "graph already has an offload node");
  HEDRA_REQUIRE(dag.num_nodes() >= 3,
                "need at least 3 nodes to pick an internal offload node");
  std::vector<NodeId> internal;
  internal.reserve(dag.num_nodes());
  for (NodeId v = 0; v < dag.num_nodes(); ++v) {
    if (dag.in_degree(v) > 0 && dag.out_degree(v) > 0) internal.push_back(v);
  }
  HEDRA_REQUIRE(!internal.empty(), "graph has no internal node");
  const NodeId chosen = internal[rng.index(internal.size())];
  // Re-label in place: replace the node's kind while keeping id and edges.
  // Dag has no kind setter by design (kinds are structural); rebuild instead.
  Dag out;
  for (NodeId v = 0; v < dag.num_nodes(); ++v) {
    const auto& n = dag.node(v);
    if (v == chosen) {
      out.add_node(n.wcet, graph::NodeKind::kOffload, "vOff");
    } else {
      out.add_node(n);
    }
  }
  for (const auto& [u, w] : dag.edges()) out.add_edge(u, w);
  dag = std::move(out);
  return chosen;
}

/// Sets C_off so that C_off / vol(G) ≈ `ratio` (ratio in (0, 1)); the
/// offload node must already be selected.  Returns the assigned C_off.
inline graph::Time set_offload_ratio(graph::Dag& dag, double ratio) {
  using graph::Time;
  HEDRA_REQUIRE(ratio > 0.0 && ratio < 1.0,
                "offload ratio must lie strictly inside (0, 1)");
  const auto voff = dag.offload_node();
  HEDRA_REQUIRE(voff.has_value(), "no offload node selected");
  const Time vol_rest = dag.volume() - dag.wcet(*voff);
  HEDRA_REQUIRE(vol_rest > 0, "host workload must be positive");
  const double target = ratio / (1.0 - ratio) * static_cast<double>(vol_rest);
  const Time c_off = std::max<Time>(1, std::llround(target));
  dag.set_wcet(*voff, c_off);
  return c_off;
}

/// The realised ratio C_off / vol(G) of a heterogeneous DAG.
[[nodiscard]] inline double offload_ratio(const graph::Dag& dag) {
  const auto voff = dag.offload_node();
  HEDRA_REQUIRE(voff.has_value(), "no offload node selected");
  return static_cast<double>(dag.wcet(*voff)) /
         static_cast<double>(dag.volume());
}

/// Places `per_device` uniformly chosen distinct internal nodes (neither
/// source nor sink) on each of devices 1..num_devices via Dag::set_device,
/// keeping labels and edges.  Returns the chosen node ids device-major
/// (device 1's nodes first).  Requires num_devices >= 1, a graph with at
/// least num_devices·per_device internal nodes, and no pre-existing offload
/// node.
inline std::vector<graph::NodeId> select_offload_nodes(graph::Dag& dag,
                                                       int num_devices,
                                                       int per_device,
                                                       Rng& rng) {
  using graph::DeviceId;
  using graph::NodeId;
  HEDRA_REQUIRE(num_devices >= 1, "need at least one accelerator device");
  HEDRA_REQUIRE(per_device >= 1, "need at least one offload node per device");
  HEDRA_REQUIRE(dag.offload_nodes().empty(),
                "graph already has offload nodes");
  std::vector<NodeId> internal;
  internal.reserve(dag.num_nodes());
  for (NodeId v = 0; v < dag.num_nodes(); ++v) {
    if (dag.in_degree(v) > 0 && dag.out_degree(v) > 0) internal.push_back(v);
  }
  const std::size_t needed =
      static_cast<std::size_t>(num_devices) * static_cast<std::size_t>(per_device);
  HEDRA_REQUIRE(internal.size() >= needed,
                "graph has " + std::to_string(internal.size()) +
                    " internal node(s) but " + std::to_string(needed) +
                    " offload placements were requested");
  rng.shuffle(internal);
  std::vector<NodeId> chosen(internal.begin(),
                             internal.begin() + static_cast<std::ptrdiff_t>(needed));
  for (int d = 1; d <= num_devices; ++d) {
    for (int j = 0; j < per_device; ++j) {
      dag.set_device(chosen[static_cast<std::size_t>(d - 1) * per_device + j],
                     static_cast<DeviceId>(d));
    }
  }
  return chosen;
}

/// Per-device outcome of set_offload_ratio_multi, so the cumulative-rounding
/// split is verifiable by callers and tests: `total` is the realised
/// offloaded volume and `per_device` holds one (device id, vol_d) entry per
/// device present, ascending by id.  Invariant (regression-tested):
/// Σ_d vol_d == total.
struct OffloadSplit {
  graph::Time total = 0;
  std::vector<std::pair<graph::DeviceId, graph::Time>> per_device;
};

/// Sets the WCETs of the offloaded nodes so the total offloaded volume is
/// ≈ `ratio` of the final vol(G) (ratio strictly inside (0, 1)), split
/// across devices proportionally to `mix` (empty = even split; otherwise
/// one strictly positive, finite weight per device present — zero,
/// negative, NaN and infinite weights are rejected, since a zero-weight
/// sum would previously divide by zero and a near-zero weight silently
/// starved its device down to the 1-tick floor) and evenly across each
/// device's nodes (every node keeps WCET >= 1).  `speedup` (empty = all
/// 1.0; otherwise one strictly positive finite factor per device present)
/// models heterogeneous WCET scaling: device i's tick budget is divided by
/// speedup[i], so a 2× device realises half the ticks for the same nominal
/// share — the written WCETs are device-time and feed analysis/simulation
/// unscaled.  Returns the realised total plus its per-device breakdown.
inline OffloadSplit set_offload_ratio_multi(
    graph::Dag& dag, double ratio, const std::vector<double>& mix = {},
    const std::vector<double>& speedup = {}) {
  using graph::Time;
  HEDRA_REQUIRE(ratio > 0.0 && ratio < 1.0,
                "offload ratio must lie strictly inside (0, 1)");
  const auto devices = dag.device_ids();
  HEDRA_REQUIRE(!devices.empty(), "no offload nodes selected");
  HEDRA_REQUIRE(mix.empty() || mix.size() == devices.size(),
                "device mix must have one weight per device present");
  // A zero weight would make weight_sum == 0 possible (division by zero →
  // llround(NaN) is undefined behaviour), and even with a positive sum it
  // silently starves its device to the 1-tick-per-node floor; reject the
  // whole class of degenerate weights up front.
  for (std::size_t i = 0; i < mix.size(); ++i) {
    HEDRA_REQUIRE(std::isfinite(mix[i]) && mix[i] > 0.0,
                  "device mix weight " + std::to_string(i) +
                      " must be finite and strictly positive");
  }
  HEDRA_REQUIRE(speedup.empty() || speedup.size() == devices.size(),
                "device speedup must have one factor per device present");
  for (std::size_t i = 0; i < speedup.size(); ++i) {
    HEDRA_REQUIRE(std::isfinite(speedup[i]) && speedup[i] > 0.0,
                  "device speedup factor " + std::to_string(i) +
                      " must be finite and strictly positive");
  }
  const Time vol_host = dag.volume_on(graph::kHostDevice);
  HEDRA_REQUIRE(vol_host > 0, "host workload must be positive");

  // Solve C_total / (vol_host + C_total) = ratio, then split by mix weight.
  const double total = ratio / (1.0 - ratio) * static_cast<double>(vol_host);
  double weight_sum = 0.0;
  for (std::size_t i = 0; i < devices.size(); ++i) {
    weight_sum += mix.empty() ? 1.0 : mix[i];
  }

  OffloadSplit split;
  for (std::size_t i = 0; i < devices.size(); ++i) {
    const double weight = mix.empty() ? 1.0 : mix[i];
    // A device with speedup s executes its nominal share in 1/s of the
    // ticks, so the device-time budget shrinks by the factor.
    const double budget = total * weight / weight_sum /
                          (speedup.empty() ? 1.0 : speedup[i]);
    const auto nodes = dag.nodes_on(devices[i]);
    // Cumulative rounding spreads the budget across the device's nodes
    // without drift; every node keeps a WCET of at least 1.
    Time device_total = 0;
    for (std::size_t j = 0; j < nodes.size(); ++j) {
      const auto cum = [&](std::size_t k) {
        return std::llround(budget * static_cast<double>(k) /
                            static_cast<double>(nodes.size()));
      };
      const Time wcet = std::max<Time>(1, cum(j + 1) - cum(j));
      dag.set_wcet(nodes[j], wcet);
      device_total += wcet;
    }
    split.per_device.emplace_back(devices[i], device_total);
    split.total += device_total;
  }
  return split;
}

/// The realised per-device ratio vol_d / vol(G).
[[nodiscard]] inline double device_ratio(const graph::Dag& dag,
                                         graph::DeviceId device) {
  const graph::Time vol = dag.volume();
  HEDRA_REQUIRE(vol > 0, "graph has zero volume");
  return static_cast<double>(dag.volume_on(device)) /
         static_cast<double>(vol);
}

/// One-call generator: hierarchical structure (params), then
/// select_offload_nodes(params.num_devices, params.offloads_per_device),
/// then set_offload_ratio_multi(coff_ratio, params.device_mix,
/// params.device_speedup).  Requires params.num_devices >= 1.
[[nodiscard]] inline graph::Dag generate_multi_device(
    const HierarchicalParams& params, double coff_ratio, Rng& rng) {
  params.validate();
  HEDRA_REQUIRE(params.num_devices >= 1,
                "generate_multi_device requires num_devices >= 1");
  HEDRA_REQUIRE(params.min_nodes >=
                    params.num_devices * params.offloads_per_device + 2,
                "node window too small for the requested offload placements");
  graph::Dag dag = generate_hierarchical(params, rng);
  (void)select_offload_nodes(dag, params.num_devices,
                             params.offloads_per_device, rng);
  (void)set_offload_ratio_multi(dag, coff_ratio, params.device_mix,
                                params.device_speedup);
  return dag;
}

/// The batch the Dag steps produce: one fork of the master per DAG, the
/// K-device pipeline when params.num_devices > 0 and the single-offload one
/// otherwise.
[[nodiscard]] inline std::vector<graph::Dag> legacy_generate_batch(
    const exp::BatchConfig& config) {
  HEDRA_REQUIRE(config.count >= 1, "batch count must be >= 1");
  const auto count = static_cast<std::size_t>(config.count);
  Rng master(config.seed);
  std::vector<graph::Dag> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Rng rng = master.fork();
    if (config.params.num_devices > 0) {
      out.push_back(generate_multi_device(config.params, config.coff_ratio, rng));
      continue;
    }
    graph::Dag dag = generate_hierarchical(config.params, rng);
    (void)select_offload_node(dag, rng);
    (void)set_offload_ratio(dag, config.coff_ratio);
    out.push_back(std::move(dag));
  }
  return out;
}

}  // namespace hedra::gen
