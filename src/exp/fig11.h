#pragma once

/// \file fig11.h
/// Figure 11 (extension; not in the paper): the execution-unit-multiplicity
/// sweep the n_d generalisation unlocks.  For a fixed number K of
/// accelerator classes, a grid of total offloaded ratios and the paper's
/// core counts, random multi-device DAGs are generated once per (ratio)
/// point and then evaluated under every per-class unit vector of
/// `unit_vectors`: the generalised bound R_plat(n_d) (vol_d/n_d device
/// terms + mixed-weight chain walk) against the simulated makespan of every
/// work-conserving ready-queue policy running on those units
/// (sim::SimConfig::device_units) — fig10's sampler and cell reducer at
/// other unit vectors.
///
/// Because the SAME batch is reused for every vector, the per-row deltas
/// isolate the multiplicity effect: how much the bound tightens (vol_d/n_d
/// shrinks, the (n_d−1)/n_d chain weight grows) and how much the simulated
/// schedules actually speed up when devices stop serialising.  Soundness is
/// counted per cell with exact rationals and must be zero, exactly as in
/// fig10.
///
/// Built as a thin Runner::sweep config like figs 6–10, so `--jobs N`
/// output is bit-identical to `--jobs 1`.

#include <cstdint>
#include <string>
#include <vector>

#include "exp/fig10.h"

namespace hedra::exp {

struct Fig11Config {
  int devices = 2;  ///< K accelerator classes (fixed)
  /// The swept per-class unit vectors, each of size `devices` with entries
  /// >= 1: all-equal vectors give the symmetric n_d grid, and e.g.
  /// {{2, 1}, {3, 1}} one multi-unit class and one serial class per row.
  std::vector<std::vector<int>> unit_vectors = {{1, 1}, {2, 2}, {3, 3}};
  std::vector<double> ratios = {0.10, 0.20, 0.30, 0.40};
  std::vector<int> cores = paper_core_counts();
  gen::HierarchicalParams params =
      gen::HierarchicalParams::large_tasks_100_250();
  /// Offload nodes per class; >= 2 by default so a multi-unit device has
  /// parallelism to exploit.
  int offloads_per_device = 2;
  int dags_per_point = 25;
  std::uint64_t seed = 43;
  int jobs = 1;  ///< worker threads; <= 0 picks the hardware default
};

/// One (unit vector, ratio, m) cell.
struct Fig11Row : PlatformCell {
  /// The per-class unit vector of this row (all-equal for symmetric rows).
  std::vector<int> unit_vector;
  double mean_bound_single = 0.0;  ///< mean R_plat with n_d = 1 (reference)
};

/// Per-(unit vector, m) shape summary.
struct Fig11Summary {
  std::vector<int> unit_vector;  ///< per-class units of this summary
  int m = 0;
  double max_sim_over_bound = 0.0;  ///< over the whole ratio grid
  double mean_slack_pct = 0.0;      ///< mean of the cells' mean slack
  /// Mean 100·(R_plat(1) − R_plat(n))/R_plat(1): how much the bound
  /// tightens relative to the single-unit platform.
  double mean_bound_gain_pct = 0.0;
  int violations = 0;               ///< total (must be 0)
};

struct Fig11Result {
  std::vector<Fig11Row> rows;
  std::vector<Fig11Summary> summaries;
};

[[nodiscard]] Fig11Result run_fig11(const Fig11Config& config);

}  // namespace hedra::exp
