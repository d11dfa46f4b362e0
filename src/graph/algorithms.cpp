#include "graph/algorithms.h"

#include <queue>

namespace hedra::graph {

std::vector<NodeId> topological_order(const Dag& dag) {
  const std::size_t n = dag.num_nodes();
  std::vector<std::size_t> in_deg(n);
  // Min-heap on node id keeps the order deterministic.
  std::priority_queue<NodeId, std::vector<NodeId>, std::greater<>> ready;
  for (NodeId v = 0; v < n; ++v) {
    in_deg[v] = dag.in_degree(v);
    if (in_deg[v] == 0) ready.push(v);
  }
  std::vector<NodeId> order;
  order.reserve(n);
  while (!ready.empty()) {
    const NodeId v = ready.top();
    ready.pop();
    order.push_back(v);
    for (const NodeId w : dag.successors(v)) {
      if (--in_deg[w] == 0) ready.push(w);
    }
  }
  HEDRA_REQUIRE(order.size() == n, "graph contains a cycle");
  return order;
}

bool is_acyclic(const Dag& dag) {
  try {
    (void)topological_order(dag);
    return true;
  } catch (const Error&) {
    return false;
  }
}

namespace {

DynamicBitset bfs_reach(const Dag& dag, NodeId start, bool forward) {
  DynamicBitset seen(dag.num_nodes());
  std::vector<NodeId> stack{start};
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    const auto& next = forward ? dag.successors(v) : dag.predecessors(v);
    for (const NodeId w : next) {
      if (!seen.test(w)) {
        seen.set(w);
        stack.push_back(w);
      }
    }
  }
  // `start` itself is excluded unless lying on a cycle; the model requires
  // acyclic graphs, where self-reachability is impossible.
  return seen;
}

}  // namespace

DynamicBitset ancestors(const Dag& dag, NodeId v) {
  return bfs_reach(dag, v, /*forward=*/false);
}

DynamicBitset descendants(const Dag& dag, NodeId v) {
  return bfs_reach(dag, v, /*forward=*/true);
}

std::vector<DynamicBitset> transitive_closure(const Dag& dag) {
  const std::size_t n = dag.num_nodes();
  const auto order = topological_order(dag);
  std::vector<DynamicBitset> reach(n, DynamicBitset(n));
  // Process in reverse topological order: reach[v] = union over successors w
  // of ({w} ∪ reach[w]).
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId v = *it;
    for (const NodeId w : dag.successors(v)) {
      reach[v].set(w);
      reach[v] |= reach[w];
    }
  }
  return reach;
}

std::vector<std::pair<NodeId, NodeId>> transitive_edges(const Dag& dag) {
  const auto reach = transitive_closure(dag);
  std::vector<std::pair<NodeId, NodeId>> out;
  for (NodeId u = 0; u < dag.num_nodes(); ++u) {
    for (const NodeId w : dag.successors(u)) {
      // (u, w) is transitive iff some other successor x of u reaches w.
      for (const NodeId x : dag.successors(u)) {
        if (x != w && reach[x].test(w)) {
          out.emplace_back(u, w);
          break;
        }
      }
    }
  }
  return out;
}

}  // namespace hedra::graph
