#include "analysis/transform.h"

#include "graph/algorithms.h"
#include "graph/validate.h"
#include "util/bitset.h"

namespace hedra::analysis {

TransformResult transform_for_offload(const Dag& dag) {
  graph::throw_if_invalid(dag, graph::heterogeneous_rules());
  const NodeId voff = *dag.offload_node();
  HEDRA_REQUIRE(dag.in_degree(voff) > 0,
                "v_off must not be the source of the DAG");
  HEDRA_REQUIRE(dag.out_degree(voff) > 0,
                "v_off must not be the sink of the DAG");

  TransformResult result;
  result.voff = voff;

  // Line 1: Pred(v_off) and Succ(v_off).
  const DynamicBitset pred = graph::ancestors(dag, voff);
  const DynamicBitset succ = graph::descendants(dag, voff);
  for (const auto v : pred.to_indices()) {
    result.pred_of_voff.push_back(static_cast<NodeId>(v));
  }
  for (const auto v : succ.to_indices()) {
    result.succ_of_voff.push_back(static_cast<NodeId>(v));
  }

  // Line 2: V' = V ∪ {v_sync}, E' = E.
  Dag& g = result.transformed;
  g = dag;
  const NodeId vsync = g.add_node(0, graph::NodeKind::kSync);
  result.vsync = vsync;

  const auto move_edge_under_sync = [&](NodeId from, NodeId to) {
    g.remove_edge(from, to);
    ++result.edges_removed;
    if (!g.has_edge(vsync, to)) {
      g.add_edge(vsync, to);
      ++result.edges_added;
    }
  };

  // Lines 3-8: iterate over v_off's direct predecessors.
  DynamicBitset direct_pred(dag.num_nodes());
  const std::vector<NodeId> direct = dag.predecessors(voff);
  for (const NodeId vi : direct) {
    direct_pred.set(vi);
    // Line 5: E' = E' ∪ {(v_i, v_sync)} \ {(v_i, v_off)}.
    g.remove_edge(vi, voff);
    ++result.edges_removed;
    g.add_edge(vi, vsync);
    ++result.edges_added;
    // Lines 6-8: v_i's remaining successors become v_sync's successors.
    const std::vector<NodeId> other_succ = g.successors(vi);
    for (const NodeId vj : other_succ) {
      if (vj == vsync) continue;
      move_edge_under_sync(vi, vj);
    }
  }

  // Line 9: E' = E' ∪ {(v_sync, v_off)}.
  g.add_edge(vsync, voff);
  ++result.edges_added;

  // Lines 10-13: iterate over indirect predecessors of v_off.
  for (const auto vi_idx : pred.to_indices()) {
    const NodeId vi = static_cast<NodeId>(vi_idx);
    if (direct_pred.test(vi)) continue;
    const std::vector<NodeId> succ_snapshot = g.successors(vi);
    for (const NodeId vj : succ_snapshot) {
      // Line 12: v_j parallel to v_off iff v_j ∉ Pred(v_off).  Since the
      // input has no transitive edges, v_j ∈ Succ(v_off) is impossible here
      // (it would make (v_i, v_j) transitive via v_off).
      if (!pred.test(vj)) {
        HEDRA_ASSERT(!succ.test(vj));
        move_edge_under_sync(vi, vj);
      }
    }
  }

  // Lines 14-17: G_par induced by V \ Pred(v_off) \ Succ(v_off) \ {v_off}
  // on the ORIGINAL edge set E.
  DynamicBitset members(dag.num_nodes());
  for (NodeId v = 0; v < dag.num_nodes(); ++v) {
    if (v != voff && !pred.test(v) && !succ.test(v)) members.set(v);
  }
  result.gpar = graph::induced_subgraph(dag, members);

  return result;
}

}  // namespace hedra::analysis
