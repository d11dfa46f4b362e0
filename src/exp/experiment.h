#pragma once

/// \file experiment.h
/// Shared Monte-Carlo plumbing for the evaluation (§5.1): batches of random
/// heterogeneous DAG tasks at a target C_off/vol ratio, the ratio grids the
/// figures sweep, and the core counts the paper evaluates.
///
/// Replications are seeded independently (seed ⊕ replication index through
/// the RNG fork), so results do not depend on evaluation order and any
/// single DAG of a batch can be regenerated in isolation.

#include <cstdint>
#include <vector>

#include "gen/params.h"
#include "graph/dag.h"
#include "graph/flat_batch.h"

namespace hedra::exp {

/// Configuration for one batch of random heterogeneous tasks.
struct BatchConfig {
  gen::HierarchicalParams params = gen::HierarchicalParams::large_tasks_100_250();
  double coff_ratio = 0.1;   ///< target C_off / vol(G)
  int count = 100;           ///< DAGs per parameter point (paper: 100)
  std::uint64_t seed = 42;
};

/// Generates `count` heterogeneous DAGs: hierarchical structure, then one
/// random internal v_off with C_off set to the target ratio, or (with
/// params.num_devices > 0) the K-device placement and volume split.  Every
/// DAG builds from its own fork of the master RNG, straight into a
/// structure-of-arrays arena: no per-DAG Dag objects, no per-attempt
/// allocations in the rejection loop.  This is the hot path of every
/// sweep; `batch.view(i)` is what the analyses read, and
/// `batch.materialize(i)` builds the Dag itself on demand.
[[nodiscard]] graph::FlatDagBatch generate_flat_batch(
    const BatchConfig& config);

/// The same batch as owning Dags: `materialize(i)` of every entry of
/// generate_flat_batch(config), for callers that edit or serialise graphs.
[[nodiscard]] std::vector<graph::Dag> generate_batch(const BatchConfig& config);

/// Core counts evaluated throughout §5: m = 2, 4, 8, 16.
[[nodiscard]] std::vector<int> paper_core_counts();

/// Figure 6 sweeps C_off/vol from 1% to 70%.
[[nodiscard]] std::vector<double> ratio_grid_fig6();

/// Figures 8 and 9 sweep C_off/vol from 0.12% to 50%.
[[nodiscard]] std::vector<double> ratio_grid_fig89();

/// Figure 7 concentrates on the ratios the paper highlights (pessimism
/// crossovers between ~2% and ~50%).
[[nodiscard]] std::vector<double> ratio_grid_fig7();

}  // namespace hedra::exp
