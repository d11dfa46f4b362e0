#include "graph/critical_path.h"

#include <algorithm>

#include "graph/algorithms.h"

namespace hedra::graph {

CriticalPathInfo::CriticalPathInfo(const Dag& dag) {
  const std::size_t n = dag.num_nodes();
  up_.assign(n, 0);
  down_.assign(n, 0);
  const auto order = topological_order(dag);
  for (const NodeId v : order) {
    Time best = 0;
    for (const NodeId p : dag.predecessors(v)) best = std::max(best, up_[p]);
    up_[v] = best + dag.wcet(v);
    length_ = std::max(length_, up_[v]);
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId v = *it;
    Time best = 0;
    for (const NodeId s : dag.successors(v)) best = std::max(best, down_[s]);
    down_[v] = best + dag.wcet(v);
  }
}

CriticalPathInfo::CriticalPathInfo(const FlatView& view) {
  const std::size_t n = view.num_nodes();
  up_.assign(n, 0);
  down_.assign(n, 0);
  const auto order = view.topological_order();
  for (const NodeId v : order) {
    Time best = 0;
    for (const NodeId p : view.predecessors(v)) best = std::max(best, up_[p]);
    up_[v] = best + view.wcet(v);
    length_ = std::max(length_, up_[v]);
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId v = *it;
    Time best = 0;
    for (const NodeId s : view.successors(v)) best = std::max(best, down_[s]);
    down_[v] = best + view.wcet(v);
  }
}

bool CriticalPathInfo::on_critical_path(const Dag& dag, NodeId v) const {
  return up(v) + down(v) - dag.wcet(v) == length_;
}

Time critical_path_length(const Dag& dag) {
  return CriticalPathInfo(dag).length();
}

Time critical_path_length(const FlatView& view) {
  const std::size_t n = view.num_nodes();
  std::vector<Time> up(n, 0);
  Time length = 0;
  for (const NodeId v : view.topological_order()) {
    Time best = 0;
    for (const NodeId p : view.predecessors(v)) best = std::max(best, up[p]);
    up[v] = best + view.wcet(v);
    length = std::max(length, up[v]);
  }
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
