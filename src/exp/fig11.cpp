#include "exp/fig11.h"

#include "exp/runner.h"

namespace hedra::exp {

namespace {

/// Per-(DAG, m) measurements across every swept unit vector; the
/// single-unit reference bound is computed once per (DAG, m).
struct Fig11Sample {
  double bound_single = 0.0;
  std::vector<PlatformSample> per_units;  ///< aligned with unit_vectors
};


}  // namespace

Fig11Result run_fig11(const Fig11Config& config) {
  HEDRA_REQUIRE(config.devices >= 1, "fig11 needs at least one device class");
  HEDRA_REQUIRE(!config.unit_vectors.empty(),
                "fig11 needs at least one unit vector");
  const std::vector<std::vector<int>>& swept = config.unit_vectors;
  for (const auto& vec : swept) {
    HEDRA_REQUIRE(vec.size() == static_cast<std::size_t>(config.devices),
                  "every unit vector needs one entry per device class");
    for (const int units : vec) {
      HEDRA_REQUIRE(units >= 1, "unit counts must be >= 1");
    }
  }
  Runner runner(config.jobs);

  GridSpec spec;
  spec.ratios = config.ratios;
  spec.cores = config.cores;
  spec.params = config.params;
  spec.params.num_devices = config.devices;
  spec.params.offloads_per_device = config.offloads_per_device;
  spec.dags_per_point = config.dags_per_point;
  spec.seed = config.seed;
  const auto points = make_grid(spec);

  Fig11Result result;

  const auto cells = runner.sweep(
      points,
      [&swept](analysis::AnalysisCache& cache, int m) {
        Fig11Sample sample;
        sample.bound_single = cache.r_platform(m).to_double();
        sample.per_units.reserve(swept.size());
        for (const std::vector<int>& device_units : swept) {
          sample.per_units.push_back(sample_platform(cache, m, device_units));
        }
        return sample;
      },
      [&swept](const SweepPoint& point, int m,
               const std::vector<Fig11Sample>& samples) {
        std::vector<double> bounds_single;
        bounds_single.reserve(samples.size());
        for (const auto& sample : samples) {
          bounds_single.push_back(sample.bound_single);
        }
        // One row per swept unit vector for this (ratio, m) cell.
        std::vector<Fig11Row> rows;
        for (std::size_t ui = 0; ui < swept.size(); ++ui) {
          Fig11Row row;
          row.unit_vector = swept[ui];
          row.ratio = point.ratio;
          row.m = m;
          row.mean_bound_single = stats::mean(bounds_single);
          reduce_platform_cell(
              samples.size(),
              [&samples, ui](std::size_t i) -> const PlatformSample& {
                return samples[i].per_units[ui];
              },
              row);
          rows.push_back(std::move(row));
        }
        return rows;
      });
  for (const auto& cell : cells) {
    result.rows.insert(result.rows.end(), cell.begin(), cell.end());
  }

  for (const std::vector<int>& vec : swept) {
    for (const int m : config.cores) {
      Fig11Summary summary;
      summary.unit_vector = vec;
      summary.m = m;
      std::vector<double> slacks, gains;
      for (const auto& row : result.rows) {
        if (row.unit_vector != vec || row.m != m) continue;
        summary.max_sim_over_bound =
            std::max(summary.max_sim_over_bound, row.max_sim_over_bound);
        summary.violations += row.violations;
        slacks.push_back(row.mean_slack_pct);
        gains.push_back(100.0 * (row.mean_bound_single - row.mean_bound) /
                        row.mean_bound_single);
      }
      if (!slacks.empty()) {
        summary.mean_slack_pct = stats::mean(slacks);
        summary.mean_bound_gain_pct = stats::mean(gains);
      }
      result.summaries.push_back(summary);
    }
  }
  return result;
}

}  // namespace hedra::exp
