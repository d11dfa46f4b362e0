#pragma once

/// \file transform.h
/// The DAG transformation of §3.4 (Algorithm 1): `τ ⇒ τ'`.
///
/// Given G with a single offloaded node v_off, the transformation inserts a
/// zero-WCET synchronisation node v_sync immediately before v_off and the
/// sub-DAG G_par of nodes that can potentially execute in parallel with
/// v_off, guaranteeing that v_off and G_par *actually* begin execution
/// together.  This is what makes subtracting offloaded work from the
/// self-interference factor safe (§3.3) — without it, the host can sit idle
/// while the accelerator runs (Figure 1(c)) and the reduced bound is wrong.
///
/// Faithful to Algorithm 1:
///  - line 1:    Pred(v_off) / Succ(v_off) via reachability on G;
///  - lines 3-8: every direct predecessor v_i of v_off loses its edge to
///               v_off (replaced by (v_i, v_sync)) and all its *other*
///               successors are re-parented under v_sync;
///  - line 9:    edge (v_sync, v_off);
///  - lines 10-13: successors of *indirect* predecessors of v_off that are
///               not themselves predecessors of v_off are re-parented under
///               v_sync;
///  - lines 14-17: G_par is the subgraph of the ORIGINAL G induced by
///               V \ Pred(v_off) \ Succ(v_off) \ {v_off}.
///
/// Preconditions (§2 model): acyclic, single source and sink, exactly one
/// offload node that is neither source nor sink, no transitive edges.
/// Transitive freeness is what lets line 12 use "v_j ∉ Pred(v_off)" as a
/// parallelism test without consulting Succ(v_off).

#include <vector>

#include "graph/dag.h"
#include "graph/subgraph.h"

namespace hedra::analysis {

using graph::Dag;
using graph::NodeId;

/// Result of Algorithm 1.
struct TransformResult {
  /// G' = (V', E'): the input graph plus v_sync, rewired.  Node ids of the
  /// original graph are preserved; v_sync is the last node.
  Dag transformed;
  /// Id of v_sync within `transformed`.
  NodeId vsync = graph::kInvalidNode;
  /// Id of v_off (same in input and `transformed`).
  NodeId voff = graph::kInvalidNode;
  /// G_par as an induced subgraph of the *original* graph, with id mappings.
  /// May be empty when no node is parallel to v_off.
  graph::Subgraph gpar;
  /// Pred(v_off) and Succ(v_off) on the original graph (informational).
  std::vector<NodeId> pred_of_voff;
  std::vector<NodeId> succ_of_voff;
  /// Rewiring statistics.
  std::size_t edges_removed = 0;
  std::size_t edges_added = 0;
};

/// Runs Algorithm 1.  Throws hedra::Error if the graph violates the model
/// preconditions listed above.
[[nodiscard]] TransformResult transform_for_offload(const Dag& dag);

}  // namespace hedra::analysis
