#pragma once

/// \file fig12.h
/// Figure 12 (extension; not in the paper): the TASKSET acceptance-ratio
/// sweep the contention analysis unlocks.  For a grid of normalised
/// utilisations (Σ u_i = U·m), accelerator-class counts K, symmetric unit
/// counts n_d and core counts m, random sporadic task sets are generated
/// per point (taskset/gen.h) and admitted by the federated contention test
/// (taskset/contention_rta.h); every ADMITTED set is then executed on the
/// taskset simulator (taskset/sim.h) under the configured ready-queue
/// policy, and each observed per-job response time is checked against the
/// task's admitted bound with EXACT rational arithmetic — a single
/// violation would mean the carry-in interference argument is transcribed
/// wrongly, so the violation count must be zero across the whole grid (the
/// acceptance criterion of the taskset subsystem).
///
/// Built on Runner::sweep_items, the taskset-shaped generalisation of the
/// figure engine: batch generation (the RNG fork chain) runs serially per
/// point, admission + simulation fan out per set, rows reduce in grid
/// order — so `--jobs N` output is bit-identical to `--jobs 1`.

#include <cstdint>
#include <vector>

#include "gen/params.h"
#include "sim/scheduler.h"

namespace hedra::exp {

struct Fig12Config {
  /// Normalised total utilisation: each point targets Σ_i vol_i/T_i = U·m.
  std::vector<double> utilizations = {0.25, 0.50, 0.75};
  std::vector<int> devices = {1, 2};   ///< K accelerator classes
  std::vector<int> units = {1, 2};     ///< n_d, applied symmetrically
  std::vector<int> cores = {4, 8};     ///< m host cores
  int num_tasks = 4;
  double coff_ratio = 0.2;
  gen::HierarchicalParams params;      ///< per-task DAG shape (see .cpp)
  int tasksets_per_point = 20;
  int jobs_per_task = 3;               ///< releases simulated per task
  sim::Policy policy = sim::Policy::kBreadthFirst;
  std::uint64_t seed = 44;
  int jobs = 1;  ///< worker threads; <= 0 picks the hardware default

  Fig12Config();
};

/// One (U, K, n_d, m) cell.
struct Fig12Row {
  double utilization = 0.0;  ///< normalised target U (of U·m)
  int devices = 0;
  int units = 0;
  int m = 0;
  int tasksets = 0;
  int admitted = 0;             ///< sets the contention test accepts
  double acceptance = 0.0;      ///< admitted / tasksets
  double mean_cores_used = 0.0; ///< mean partitioned cores among admitted
  /// Mean over admitted tasks of bound/deadline — how tight admission was.
  double mean_bound_over_deadline = 0.0;
  /// Max over admitted jobs of observed/bound (exact check; <= 1 iff sound).
  double max_obs_over_bound = 0.0;
  int violations = 0;  ///< exact-rational bound violations (must be 0)
};

/// Per-(K, n_d, m) shape summary.
struct Fig12Summary {
  int devices = 0;
  int units = 0;
  int m = 0;
  /// Largest swept U with acceptance >= 50% (NaN if none) — the capacity
  /// headline of the admission test.
  double half_acceptance_util = 0.0;
  double max_obs_over_bound = 0.0;
  int violations = 0;  ///< total (must be 0)
};

struct Fig12Result {
  std::vector<Fig12Row> rows;
  std::vector<Fig12Summary> summaries;
};

[[nodiscard]] Fig12Result run_fig12(const Fig12Config& config);

}  // namespace hedra::exp
