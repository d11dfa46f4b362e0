#include "graph/critical_path.h"

#include <algorithm>

#include "graph/flat_dag.h"

namespace hedra::graph {

namespace {

/// up(v) for every node of a view — the longest path ending at v, v's WCET
/// included — in one forward pass; `length` receives the maximum, len(G).
std::vector<Time> up_lengths(const FlatView& view, Time& length) {
  std::vector<Time> up(view.num_nodes(), 0);
  length = 0;
  for (const NodeId v : view.topological_order()) {
    Time best = 0;
    for (const NodeId p : view.predecessors(v)) best = std::max(best, up[p]);
    up[v] = best + view.wcet(v);
    length = std::max(length, up[v]);
  }
  return up;
}

}  // namespace

// length_ is declared before up_, so up_lengths writes an initialised member.
CriticalPathInfo::CriticalPathInfo(const FlatView& view)
    : up_(up_lengths(view, length_)), down_(down_lengths(view)) {}

Time critical_path_length(const Dag& dag) {
  return critical_path_length(FlatDag(dag).view());
}

Time critical_path_length(const FlatView& view) {
  Time length = 0;
  up_lengths(view, length);
  return length;
}

std::vector<Time> down_lengths(const FlatView& view) {
  const std::size_t n = view.num_nodes();
  std::vector<Time> down(n, 0);
  const auto order = view.topological_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId v = *it;
    Time best = 0;
    for (const NodeId s : view.successors(v)) best = std::max(best, down[s]);
    down[v] = best + view.wcet(v);
  }
  return down;
}

}  // namespace hedra::graph
