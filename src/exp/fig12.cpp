#include "exp/fig12.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "exp/runner.h"
#include "stats/descriptive.h"
#include "taskset/contention_rta.h"
#include "taskset/gen.h"
#include "taskset/sim.h"
#include "util/fraction.h"

namespace hedra::exp {

namespace {

/// One grid point: a fully specified taskset-batch recipe plus its cell
/// coordinates.  Unlike SweepPoint the platform (and with it m) is part of
/// the batch itself, so each point carries a single core count.
struct Fig12Point {
  double utilization = 0.0;
  int devices = 0;
  int units = 0;
  int m = 0;
  std::uint64_t seed = 0;
};

/// One batch item: the generated set plus a forked seed for the simulator's
/// kRandom policy (unused by the deterministic policies but always derived,
/// so switching policies never reshuffles the batch RNG stream).
struct Fig12Item {
  taskset::TaskSet set;
  std::uint64_t sim_seed = 0;
};

/// Per-set measurements.
struct Fig12Sample {
  bool admitted = false;
  int cores_used = 0;
  double mean_bound_over_deadline = 0.0;
  double max_obs_over_bound = 0.0;
  int violations = 0;
};

}  // namespace

Fig12Config::Fig12Config() {
  // Small tasks keep the per-set admission + multi-job simulation cheap
  // enough for a Monte-Carlo grid; the node window stays well above the
  // K·offloads+2 placement minimum for every swept K.
  params = gen::HierarchicalParams::small_tasks();
  params.max_depth = 3;
  params.n_par = 4;
  params.min_nodes = 10;
  params.max_nodes = 40;
  params.wcet_max = 50;
}

Fig12Result run_fig12(const Fig12Config& config) {
  HEDRA_REQUIRE(!config.utilizations.empty(), "fig12 needs utilisations");
  HEDRA_REQUIRE(!config.devices.empty(), "fig12 needs device counts");
  HEDRA_REQUIRE(!config.units.empty(), "fig12 needs unit counts");
  HEDRA_REQUIRE(!config.cores.empty(), "fig12 needs core counts");
  HEDRA_REQUIRE(config.tasksets_per_point >= 1,
                "fig12 needs at least one task set per point");
  for (const double u : config.utilizations) {
    HEDRA_REQUIRE(u > 0.0, "utilisations must be positive");
  }
  for (const int units : config.units) {
    HEDRA_REQUIRE(units >= 1, "unit counts must be >= 1");
  }
  Runner runner(config.jobs);

  std::vector<Fig12Point> points;
  for (const int devices : config.devices) {
    for (const int units : config.units) {
      for (const int m : config.cores) {
        for (const double utilization : config.utilizations) {
          points.push_back(Fig12Point{utilization, devices, units, m, 0});
        }
      }
    }
  }
  const auto seeds = batch_seeds(config.seed, points.size());
  for (std::size_t i = 0; i < points.size(); ++i) points[i].seed = seeds[i];

  const auto make_batch = [&config](const Fig12Point& point) {
    taskset::TaskSetGenConfig gen_config;
    gen_config.num_tasks = config.num_tasks;
    gen_config.total_utilization = point.utilization * point.m;
    gen_config.dag_params = config.params;
    gen_config.dag_params.num_devices = point.devices;
    gen_config.coff_ratio = config.coff_ratio;
    gen_config.cores = point.m;
    gen_config.device_units.assign(static_cast<std::size_t>(point.devices),
                                   point.units);
    std::vector<Fig12Item> batch;
    batch.reserve(static_cast<std::size_t>(config.tasksets_per_point));
    Rng master(point.seed);
    for (int k = 0; k < config.tasksets_per_point; ++k) {
      Rng set_rng = master.fork();
      Fig12Item item;
      item.set = taskset::generate_task_set(gen_config, set_rng);
      item.sim_seed = set_rng.next_u64();
      batch.push_back(std::move(item));
    }
    return batch;
  };

  const auto per_item = [&config](Fig12Item& item, const Fig12Point&) {
    Fig12Sample sample;
    const taskset::ContentionAnalysis admission =
        taskset::contention_rta(item.set);
    sample.admitted = admission.schedulable;
    sample.cores_used = admission.cores_used;
    if (!admission.schedulable) return sample;

    std::vector<double> ratios;
    std::vector<int> cores_per_task;
    ratios.reserve(admission.tasks.size());
    cores_per_task.reserve(admission.tasks.size());
    for (std::size_t i = 0; i < admission.tasks.size(); ++i) {
      cores_per_task.push_back(admission.tasks[i].cores);
      ratios.push_back(admission.tasks[i].response.to_double() /
                       static_cast<double>(item.set[i].deadline()));
    }
    sample.mean_bound_over_deadline = stats::mean(ratios);

    taskset::TasksetSimConfig sim_config;
    sim_config.policy = config.policy;
    sim_config.seed = item.sim_seed;
    sim_config.jobs_per_task = config.jobs_per_task;
    const taskset::TasksetSimResult sim =
        taskset::simulate_taskset(item.set, cores_per_task, sim_config);
    for (std::size_t i = 0; i < admission.tasks.size(); ++i) {
      const Frac& bound = admission.tasks[i].response;
      const graph::Time observed = sim.tasks[i].worst_response;
      // Soundness is decided in exact rationals; the double ratio is
      // reporting only.
      if (Frac(observed) > bound) ++sample.violations;
      sample.max_obs_over_bound =
          std::max(sample.max_obs_over_bound,
                   static_cast<double>(observed) / bound.to_double());
    }
    return sample;
  };

  const auto reduce = [&config](const Fig12Point& point,
                                const std::vector<Fig12Sample>& samples) {
    Fig12Row row;
    row.utilization = point.utilization;
    row.devices = point.devices;
    row.units = point.units;
    row.m = point.m;
    row.tasksets = static_cast<int>(samples.size());
    std::vector<double> cores_used, tightness;
    for (const Fig12Sample& sample : samples) {
      if (!sample.admitted) continue;
      ++row.admitted;
      cores_used.push_back(static_cast<double>(sample.cores_used));
      tightness.push_back(sample.mean_bound_over_deadline);
      row.violations += sample.violations;
      row.max_obs_over_bound =
          std::max(row.max_obs_over_bound, sample.max_obs_over_bound);
    }
    row.acceptance = static_cast<double>(row.admitted) /
                     static_cast<double>(config.tasksets_per_point);
    if (!cores_used.empty()) {
      row.mean_cores_used = stats::mean(cores_used);
      row.mean_bound_over_deadline = stats::mean(tightness);
    }
    return row;
  };

  Fig12Result result;
  result.rows = runner.sweep_items(points, make_batch, per_item, reduce);

  for (const int devices : config.devices) {
    for (const int units : config.units) {
      for (const int m : config.cores) {
        Fig12Summary summary;
        summary.devices = devices;
        summary.units = units;
        summary.m = m;
        summary.half_acceptance_util =
            std::numeric_limits<double>::quiet_NaN();
        for (const Fig12Row& row : result.rows) {
          if (row.devices != devices || row.units != units || row.m != m) {
            continue;
          }
          summary.violations += row.violations;
          summary.max_obs_over_bound =
              std::max(summary.max_obs_over_bound, row.max_obs_over_bound);
          if (row.acceptance >= 0.5 &&
              (std::isnan(summary.half_acceptance_util) ||
               row.utilization > summary.half_acceptance_util)) {
            summary.half_acceptance_util = row.utilization;
          }
        }
        result.summaries.push_back(summary);
      }
    }
  }
  return result;
}

}  // namespace hedra::exp
