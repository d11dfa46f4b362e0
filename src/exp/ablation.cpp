#include "exp/ablation.h"

#include <algorithm>
#include <array>

#include "analysis/multi_offload.h"
#include "analysis/naive.h"
#include "exp/runner.h"

namespace hedra::exp {

namespace {

const std::vector<double> kRatios{0.02, 0.10, 0.28, 0.50};

std::vector<SweepPoint> ratio_points(int dags, std::uint64_t seed,
                                     const std::vector<int>& cores,
                                     bool fork_seeds) {
  std::vector<SweepPoint> points;
  const auto seeds = batch_seeds(seed, kRatios.size());
  for (std::size_t i = 0; i < kRatios.size(); ++i) {
    SweepPoint point;
    point.batch.params.min_nodes = 100;
    point.batch.params.max_nodes = 250;
    point.batch.coff_ratio = kRatios[i];
    point.batch.count = dags;
    point.batch.seed = fork_seeds ? seeds[i] : seed;
    point.cores = cores;
    point.ratio = kRatios[i];
    points.push_back(std::move(point));
  }
  return points;
}

std::vector<std::vector<PolicyAblationRow>> policy_ablation(
    const AblationConfig& config, Runner& runner) {
  const std::vector<sim::Policy>& policies = sim::all_policies();
  struct Sample {
    std::array<double, 5> t_orig{};
    std::array<double, 5> t_trans{};
  };
  return runner.sweep(
      ratio_points(config.dags_per_point, config.seed, {8}, true),
      [&policies](analysis::AnalysisCache& cache, int m) {
        Sample s;
        for (std::size_t p = 0; p < policies.size(); ++p) {
          sim::SimConfig sim_config;
          sim_config.cores = m;
          sim_config.policy = policies[p];
          // Monte-Carlo loop: share the cache's CSR snapshots of τ and τ'
          // across every policy and skip per-run trace validation.
          sim_config.validate = false;
          s.t_orig[p] = static_cast<double>(
              sim::simulated_makespan(cache.flat_view(), sim_config));
          s.t_trans[p] = static_cast<double>(
              sim::simulated_makespan(cache.transformed_view(), sim_config));
        }
        return s;
      },
      [&policies](const SweepPoint& point, int,
                  const std::vector<Sample>& samples) {
        std::vector<PolicyAblationRow> group;
        for (std::size_t p = 0; p < policies.size(); ++p) {
          PolicyAblationRow row{point.ratio, policies[p], 0.0, 0.0};
          for (const Sample& s : samples) {
            row.avg_original += s.t_orig[p] / samples.size();
            row.avg_transformed += s.t_trans[p] / samples.size();
          }
          group.push_back(row);
        }
        return group;
      });
}

std::vector<AnalysisAblationRow> analysis_ablation(
    const AblationConfig& config, Runner& runner) {
  struct Sample {
    double hom, het, best, chain, naive;
  };
  return runner.sweep(
      ratio_points(config.dags_per_point, config.seed + 17, {2, 16}, false),
      [](analysis::AnalysisCache& cache, int m) {
        const double hom = cache.r_hom(m).to_double();
        const double het = cache.r_het(m).to_double();
        return Sample{
            hom, het, std::min(hom, het),
            analysis::rta_multi_offload(cache.original(), m).to_double(),
            analysis::rta_naive_subtraction(cache.original(), m).to_double()};
      },
      [](const SweepPoint& point, int m, const std::vector<Sample>& samples) {
        AnalysisAblationRow row{point.ratio, m};
        for (const Sample& s : samples) {
          row.hom += s.hom / samples.size();
          row.het += s.het / samples.size();
          row.best += s.best / samples.size();
          row.chain += s.chain / samples.size();
          row.naive += s.naive / samples.size();
        }
        return row;
      });
}

}  // namespace

AblationResult run_ablation(const AblationConfig& config) {
  Runner runner(config.jobs);
  AblationResult result;
  result.policies = policy_ablation(config, runner);
  result.analyses = analysis_ablation(config, runner);
  return result;
}

}  // namespace hedra::exp
