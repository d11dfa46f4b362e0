#pragma once

/// \file device_queries.h
/// Per-device queries over a graph::Dag for tests and test oracles.  The
/// library reads these quantities from a FlatView (analysis/platform_rta.h),
/// so these Dag walks stay independent of the code they check.

#include <algorithm>
#include <vector>

#include "graph/dag.h"

namespace hedra::testing {

/// vol_d: the WCET sum of the nodes placed on device d (d = 0: the host
/// and sync nodes).
inline graph::Time volume_on(const graph::Dag& dag, graph::DeviceId device) {
  graph::Time total = 0;
  for (graph::NodeId v = 0; v < dag.num_nodes(); ++v) {
    if (dag.device(v) == device) total += dag.wcet(v);
  }
  return total;
}

/// The nodes placed on device d, ascending by id.
inline std::vector<graph::NodeId> nodes_on(const graph::Dag& dag,
                                           graph::DeviceId device) {
  std::vector<graph::NodeId> out;
  for (graph::NodeId v = 0; v < dag.num_nodes(); ++v) {
    if (dag.device(v) == device) out.push_back(v);
  }
  return out;
}

/// The distinct accelerator device ids present, ascending (host excluded).
inline std::vector<graph::DeviceId> device_ids(const graph::Dag& dag) {
  std::vector<graph::DeviceId> out;
  for (graph::NodeId v = 0; v < dag.num_nodes(); ++v) {
    if (dag.device(v) != graph::kHostDevice) out.push_back(dag.device(v));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace hedra::testing
