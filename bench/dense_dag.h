#pragma once

/// \file dense_dag.h
/// Bench workload: random id-ordered DAGs dense enough to carry many
/// transitive edges.  The hierarchical generator emits transitively reduced
/// graphs, which would make the reduction kernel trivial — so
/// BM_TransitiveReduction in micro_algorithms builds from this instead.

#include <cstdint>
#include <vector>

#include "graph/dag.h"
#include "util/rng.h"

namespace hedra::benchdata {

/// `count` DAGs of `n` nodes with WCETs in [1, 100] and each forward edge
/// (u, w), u < w, present with probability `p`.
inline std::vector<graph::Dag> make_dense_batch(int count, int n, double p,
                                                std::uint64_t seed) {
  std::vector<graph::Dag> batch;
  Rng rng(seed);
  for (int k = 0; k < count; ++k) {
    graph::Dag dag;
    for (int v = 0; v < n; ++v) {
      dag.add_node(rng.uniform_int(1, 100));
    }
    for (int u = 0; u < n; ++u) {
      for (int w = u + 1; w < n; ++w) {
        if (rng.bernoulli(p)) {
          dag.add_edge(static_cast<graph::NodeId>(u),
                       static_cast<graph::NodeId>(w));
        }
      }
    }
    batch.push_back(std::move(dag));
  }
  return batch;
}

}  // namespace hedra::benchdata
