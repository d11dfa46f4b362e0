#pragma once

/// \file subgraph.h
/// Induced subgraph extraction.  Algorithm 1 builds G_par = (V_par, E_par) as
/// the subgraph of the *original* G induced by the nodes parallel to v_off
/// (lines 14-17); this utility implements exactly that, keeping a mapping
/// back to the parent graph's node ids.

#include <vector>

#include "graph/dag.h"
#include "util/bitset.h"

namespace hedra::graph {

/// A subgraph with id mappings to/from its parent graph.
struct Subgraph {
  Dag dag;
  /// to_parent[new_id] == old id in the parent graph.
  std::vector<NodeId> to_parent;
  /// from_parent[old_id] == new id, or kInvalidNode if not included.
  std::vector<NodeId> from_parent;
};

/// Subgraph of `dag` induced by `members` (edges with both endpoints inside).
/// Node order follows ascending parent id; labels/kinds/WCETs are preserved.
[[nodiscard]] Subgraph induced_subgraph(const Dag& dag,
                                        const DynamicBitset& members);

}  // namespace hedra::graph
