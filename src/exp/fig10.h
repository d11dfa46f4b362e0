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

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/analysis_cache.h"
#include "exp/experiment.h"
#include "sim/scheduler.h"
#include "stats/descriptive.h"

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

/// One (ratio, m) cell of a platform sweep (fig10, and fig11 per unit
/// vector): the platform bound against every work-conserving policy.
struct PlatformCell {
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

/// One (K, ratio, m) cell.
struct Fig10Row : PlatformCell {
  int devices = 0;
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
};

[[nodiscard]] Fig10Result run_fig10(const Fig10Config& config);

/// One DAG's measurement at core count m and a per-class unit vector: the
/// platform bound and one simulated makespan per ready-queue policy.
struct PlatformSample {
  double bound = 0.0;
  std::vector<double> makespans;  ///< aligned with sim::all_policies()
  double worst = 0.0;             ///< max of makespans
  bool violated = false;          ///< some makespan exceeded the bound
};

/// The sampler of fig10 and fig11: R_plat(m, device_units) against every
/// policy simulated on `device_units` units per class (empty = one each).
[[nodiscard]] PlatformSample sample_platform(
    analysis::AnalysisCache& cache, int m,
    const std::vector<int>& device_units);

/// The cell reducer of fig10 and fig11: folds the batch's samples, where
/// `sample(i)` is DAG i's, into `cell` (whose ratio and m the caller sets).
template <typename SampleAt>
void reduce_platform_cell(std::size_t count, SampleAt&& sample,
                          PlatformCell& cell) {
  const auto n = static_cast<double>(count);
  cell.mean_makespan.assign(sim::all_policies().size(), 0.0);
  std::vector<double> bounds, slacks;
  bounds.reserve(count);
  slacks.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const PlatformSample& s = sample(i);
    bounds.push_back(s.bound);
    slacks.push_back(100.0 * (s.bound - s.worst) / s.bound);
    for (std::size_t p = 0; p < cell.mean_makespan.size(); ++p) {
      cell.mean_makespan[p] += s.makespans[p] / n;
    }
    cell.max_sim_over_bound =
        std::max(cell.max_sim_over_bound, s.worst / s.bound);
    if (s.violated) ++cell.violations;
  }
  cell.mean_bound = stats::mean(bounds);
  cell.mean_slack_pct = stats::mean(slacks);
}

}  // namespace hedra::exp
