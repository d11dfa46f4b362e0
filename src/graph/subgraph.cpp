#include "graph/subgraph.h"

namespace hedra::graph {

Subgraph induced_subgraph(const Dag& dag, const DynamicBitset& members) {
  HEDRA_REQUIRE(members.size() == dag.num_nodes(),
                "membership bitset size mismatch");
  Subgraph out;
  out.from_parent.assign(dag.num_nodes(), kInvalidNode);
  for (NodeId v = 0; v < dag.num_nodes(); ++v) {
    if (!members.test(v)) continue;
    const NodeId nv = out.dag.add_node(dag.node(v));
    out.from_parent[v] = nv;
    out.to_parent.push_back(v);
  }
  for (const auto& [u, w] : dag.edges()) {
    if (members.test(u) && members.test(w)) {
      out.dag.add_edge(out.from_parent[u], out.from_parent[w]);
    }
  }
  return out;
}

}  // namespace hedra::graph
