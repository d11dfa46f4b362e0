#include "exp/fig10.h"

#include "exp/runner.h"

namespace hedra::exp {

PlatformSample sample_platform(analysis::AnalysisCache& cache, int m,
                               const std::vector<int>& device_units) {
  const Frac bound = cache.r_platform(m, device_units);
  PlatformSample sample;
  sample.bound = bound.to_double();
  sample.makespans.reserve(sim::all_policies().size());
  sim::SimConfig sim_config;
  sim_config.cores = m;
  sim_config.device_units = device_units;
  // The cache's arena view is shared across every policy and m of this DAG
  // (no Dag, no CSR snapshot is ever built), and per-run trace validation
  // is off in the Monte-Carlo loop — the makespan-only recorder path —
  // while the property tests simulate the same policies with validation
  // on.
  sim_config.validate = false;
  for (const auto policy : sim::all_policies()) {
    sim_config.policy = policy;
    const graph::Time observed =
        sim::simulated_makespan(cache.flat_view(), sim_config);
    sample.makespans.push_back(static_cast<double>(observed));
    sample.worst = std::max(sample.worst, static_cast<double>(observed));
    if (Frac(observed) > bound) sample.violated = true;
  }
  return sample;
}

Fig10Result run_fig10(const Fig10Config& config) {
  HEDRA_REQUIRE(!config.devices.empty(), "fig10 needs at least one K value");
  Runner runner(config.jobs);

  // One independently seeded ratio×cores grid per device count, stacked
  // device-major so rows come back K-major, ratio-, then m-minor.
  std::vector<SweepPoint> points;
  const auto device_seeds = batch_seeds(config.seed, config.devices.size());
  for (std::size_t i = 0; i < config.devices.size(); ++i) {
    GridSpec spec;
    spec.ratios = config.ratios;
    spec.cores = config.cores;
    spec.params = config.params;
    spec.params.num_devices = config.devices[i];
    spec.params.offloads_per_device = config.offloads_per_device;
    spec.dags_per_point = config.dags_per_point;
    spec.seed = device_seeds[i];
    const auto grid = make_grid(spec);
    points.insert(points.end(), grid.begin(), grid.end());
  }

  Fig10Result result;
  result.rows = runner.sweep(
      points,
      [](analysis::AnalysisCache& cache, int m) {
        return sample_platform(cache, m, {});
      },
      [](const SweepPoint& point, int m,
         const std::vector<PlatformSample>& samples) {
        Fig10Row row;
        row.devices = point.batch.params.num_devices;
        row.ratio = point.ratio;
        row.m = m;
        reduce_platform_cell(
            samples.size(),
            [&samples](std::size_t i) -> const PlatformSample& {
              return samples[i];
            },
            row);
        return row;
      });

  for (const int devices : config.devices) {
    for (const int m : config.cores) {
      Fig10Summary summary;
      summary.devices = devices;
      summary.m = m;
      std::vector<double> slacks;
      for (const auto& row : result.rows) {
        if (row.devices != devices || row.m != m) continue;
        summary.max_sim_over_bound =
            std::max(summary.max_sim_over_bound, row.max_sim_over_bound);
        summary.violations += row.violations;
        slacks.push_back(row.mean_slack_pct);
      }
      if (!slacks.empty()) summary.mean_slack_pct = stats::mean(slacks);
      result.summaries.push_back(summary);
    }
  }
  return result;
}

}  // namespace hedra::exp
