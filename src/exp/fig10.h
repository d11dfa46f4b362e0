#pragma once

/// \file fig10.h
/// Figure 10 (extension; not in the paper): the multi-device scenario sweep
/// the Platform model unlocks.  For K ∈ devices accelerator classes and a
/// grid of total offloaded ratios C_off/vol, random multi-device DAGs are
/// generated (gen::generate_multi_device_flat, offloaded volume split evenly
/// across devices), the generalised K-device chain bound R_plat
/// (analysis/platform_rta.h) is evaluated per core count m, and every
/// work-conserving ready-queue policy of the simulator is run against it.
///
/// Two claims are measured per (K, ratio, m) cell:
///   - soundness: no simulated makespan ever exceeds R_plat (violations are
///     counted with exact rational comparison and must be zero — the same
///     property the tests enforce, surfaced in the report);
///   - tightness: the mean slack between the bound and the *worst* policy's
///     makespan, showing how the Graham chain term grows with K and m.
///
/// Built as a thin Runner::sweep config like figs 6–9, so `--jobs N` output
/// is bit-identical to `--jobs 1`.

#include <cstdint>
#include <string>
#include <vector>

#include "exp/experiment.h"

namespace hedra::exp {

struct Fig10Config {
  std::vector<int> devices = {1, 2, 3, 4};  ///< K values swept
  std::vector<double> ratios = {0.05, 0.10, 0.20, 0.30, 0.40};
  std::vector<int> cores = paper_core_counts();
  gen::HierarchicalParams params =
      gen::HierarchicalParams::large_tasks_100_250();
  int offloads_per_device = 1;  ///< offload nodes per accelerator class
  int dags_per_point = 25;
  std::uint64_t seed = 42;
  int jobs = 1;  ///< worker threads; <= 0 picks the hardware default
};

/// One (K, ratio, m) cell.
struct Fig10Row {
  int devices = 0;
  double ratio = 0.0;
  int m = 0;
  double mean_bound = 0.0;  ///< mean R_plat over the batch
  /// Mean simulated makespan per ready-queue policy, aligned with
  /// sim::all_policies().
  std::vector<double> mean_makespan;
  double max_sim_over_bound = 0.0;  ///< max simulated/bound (soundness: <= 1)
  double mean_slack_pct = 0.0;  ///< mean 100·(bound − worst sim)/bound
  int violations = 0;  ///< exact-rational bound violations (must be 0)
};

/// Per-(K, m) shape summary.
struct Fig10Summary {
  int devices = 0;
  int m = 0;
  double max_sim_over_bound = 0.0;  ///< over the whole ratio grid
  double mean_slack_pct = 0.0;      ///< mean of the cells' mean slack
  int violations = 0;               ///< total (must be 0)
};

struct Fig10Result {
  std::vector<Fig10Row> rows;
  std::vector<Fig10Summary> summaries;
  std::vector<std::string> policy_names;  ///< column labels for the rows
};

[[nodiscard]] Fig10Result run_fig10(const Fig10Config& config);

}  // namespace hedra::exp
