#pragma once

/// \file chain_walk_oracle.h
/// Exact reference for the K-device platform bound (analysis/platform_rta.h)
/// written against graph::Dag, with Frac arithmetic at every node.  It
/// shares nothing with the implementation under test: no CSR view, no
/// common-denominator int64 walk, no Frac fallback, no volume kernel.
///
///   R(m) = vol_host/m + Σ_d vol_d/(n_d·s_d)
///          + max_P Σ_{v∈P} C_v·(r_v−1)/r_v · (1/s_d on device d)
///
/// with r_v = m for host nodes and n_d for nodes on device d.  `units` and
/// `speedups` are indexed d−1; devices beyond either span get one unit at
/// unit speed, as in analysis::ChainWeighting.

#include <algorithm>
#include <span>
#include <vector>

#include "common/device_queries.h"
#include "graph/algorithms.h"
#include "graph/dag.h"
#include "util/fraction.h"

namespace hedra::testing {

/// n_d of device d (1 beyond the span).
inline int oracle_units(std::span<const int> units, graph::DeviceId device) {
  const std::size_t index = static_cast<std::size_t>(device) - 1;
  return index < units.size() ? units[index] : 1;
}

/// s_d of device d (1 beyond the span).
inline Frac oracle_speedup(std::span<const Frac> speedups,
                           graph::DeviceId device) {
  const std::size_t index = static_cast<std::size_t>(device) - 1;
  return index < speedups.size() ? speedups[index] : Frac(1);
}

/// max over source-to-sink paths of Σ weight(v), one Frac per node, over
/// the Dag's own adjacency and topological order.
template <typename Weight>
Frac reference_longest_path(const graph::Dag& dag, Weight weight) {
  std::vector<Frac> best(dag.num_nodes());
  Frac longest;
  for (const graph::NodeId v : graph::topological_order(dag)) {
    Frac incoming;
    for (const graph::NodeId p : dag.predecessors(v)) {
      incoming = std::max(incoming, best[p]);
    }
    best[v] = incoming + weight(v);
    longest = std::max(longest, best[v]);
  }
  return longest;
}

/// max_P Σ_{v∈P, host} C_v — the unweighted host chain.
inline Frac reference_host_path(const graph::Dag& dag) {
  return reference_longest_path(dag, [&dag](graph::NodeId v) {
    return dag.device(v) == graph::kHostDevice ? Frac(dag.wcet(v)) : Frac(0);
  });
}

/// The weighted chain walk of the multiplicity bound.
inline Frac reference_chain_walk(const graph::Dag& dag, int m,
                                 std::span<const int> units,
                                 std::span<const Frac> speedups) {
  return reference_longest_path(dag, [&](graph::NodeId v) {
    const graph::DeviceId device = dag.device(v);
    if (device == graph::kHostDevice) return Frac(dag.wcet(v) * (m - 1), m);
    const int n = oracle_units(units, device);
    return Frac(dag.wcet(v) * (n - 1), n) / oracle_speedup(speedups, device);
  });
}

/// The whole bound R(m).
inline Frac reference_platform_bound(const graph::Dag& dag, int m,
                                     std::span<const int> units = {},
                                     std::span<const Frac> speedups = {}) {
  Frac bound(volume_on(dag, graph::kHostDevice), m);
  for (graph::DeviceId d = 1; d <= dag.max_device(); ++d) {
    bound += Frac(volume_on(dag, d), oracle_units(units, d)) /
             oracle_speedup(speedups, d);
  }
  return bound + reference_chain_walk(dag, m, units, speedups);
}

}  // namespace hedra::testing
