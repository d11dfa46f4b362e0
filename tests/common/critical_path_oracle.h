#pragma once

/// \file critical_path_oracle.h
/// Reference longest paths over a graph::Dag's own adjacency and
/// topological order.  It shares nothing with the FlatView walks of
/// graph/critical_path.h that the tests check: no snapshot, no CSR arrays.

#include <algorithm>
#include <vector>

#include "graph/algorithms.h"
#include "graph/dag.h"

namespace hedra::testing {

/// len(G) plus up(v) and down(v), v's WCET included, for every node.
struct ReferencePaths {
  graph::Time length = 0;
  std::vector<graph::Time> up;
  std::vector<graph::Time> down;

  /// True iff v lies on at least one longest path of `dag`.
  [[nodiscard]] bool on_critical_path(const graph::Dag& dag,
                                      graph::NodeId v) const {
    return up[v] + down[v] - dag.wcet(v) == length;
  }
};

inline ReferencePaths reference_paths(const graph::Dag& dag) {
  ReferencePaths paths;
  paths.up.assign(dag.num_nodes(), 0);
  paths.down.assign(dag.num_nodes(), 0);
  const auto order = graph::topological_order(dag);
  for (const graph::NodeId v : order) {
    for (const graph::NodeId p : dag.predecessors(v)) {
      paths.up[v] = std::max(paths.up[v], paths.up[p]);
    }
    paths.up[v] += dag.wcet(v);
    paths.length = std::max(paths.length, paths.up[v]);
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    for (const graph::NodeId s : dag.successors(*it)) {
      paths.down[*it] = std::max(paths.down[*it], paths.down[s]);
    }
    paths.down[*it] += dag.wcet(*it);
  }
  return paths;
}

}  // namespace hedra::testing
