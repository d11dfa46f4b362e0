/// \file sweep.cpp
/// The `sweep` workload: the figure path.  One round is one fig10 grid
/// (exp::run_fig10: K in 1..4, the ratio grid, m in {2,4,8,16}, n in
/// [100,250], all five policies) plus one fig12 grid (exp::run_fig12:
/// U x K x n_d x m task sets), both at jobs=1.
///
/// Referees: every row has zero exact-rational violations, the grids are
/// complete (every cell present, which is what a Runner reporting
/// kComplete emits), and every timed round reproduces the rows of the
/// set-up round bit for bit.
///
/// The traced run replays the same round through the public layer calls
/// (generate_flat_batch, analyze_platform_batch, simulated_makespan,
/// generate_task_set, contention_rta, simulate_taskset), timing each, and
/// must reproduce the untraced rows exactly — so its layer numbers break
/// down the very work the end-to-end number measured.

#include <sched.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/analysis_cache.h"
#include "analysis/batch_kernels.h"
#include "common.h"
#include "exp/fig10.h"
#include "exp/fig12.h"
#include "exp/runner.h"
#include "sim/scheduler.h"
#include "stats/descriptive.h"
#include "taskset/contention_rta.h"
#include "taskset/gen.h"
#include "taskset/sim.h"
#include "util/deadline.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using hedra::Frac;
using hedra::exp::Fig10Config;
using hedra::exp::Fig10Row;
using hedra::exp::Fig12Config;
using hedra::exp::Fig12Row;

// Round size: small enough that a run holds ~100 best-of-kRepeats samples
// (so the p90 has >= 10 samples beyond it), large enough that per-call
// overheads stay a minor share of each layer.
constexpr int kFig10DagsPerPoint = 4;
constexpr int kFig12SetsPerPoint = 2;
constexpr int kSetupReps = 3;
constexpr int kRepeats = 4;  ///< rounds per latency sample (best of)
constexpr double kTailPct = 90.0;

struct Round {
  std::vector<Fig10Row> fig10;
  std::vector<Fig12Row> fig12;
};

struct Configs {
  Fig10Config fig10;
  Fig12Config fig12;

  [[nodiscard]] std::size_t fig10_cells() const {
    return fig10.devices.size() * fig10.ratios.size() * fig10.cores.size();
  }
  [[nodiscard]] std::size_t fig12_cells() const {
    return fig12.utilizations.size() * fig12.devices.size() *
           fig12.units.size() * fig12.cores.size();
  }
  [[nodiscard]] double items() const {
    return static_cast<double>(fig10.devices.size() * fig10.ratios.size() *
                               static_cast<std::size_t>(fig10.dags_per_point)) +
           static_cast<double>(fig12_cells() *
                               static_cast<std::size_t>(
                                   fig12.tasksets_per_point));
  }
};

Configs make_configs(std::uint64_t seed) {
  hedra::Rng rng(seed);
  Configs c;
  c.fig10.dags_per_point = kFig10DagsPerPoint;
  c.fig10.seed = rng.next_u64();
  c.fig10.jobs = 1;
  c.fig12.tasksets_per_point = kFig12SetsPerPoint;
  c.fig12.seed = rng.next_u64();
  c.fig12.jobs = 1;
  return c;
}

Round run_round(const Configs& c) {
  Round round;
  round.fig10 = hedra::exp::run_fig10(c.fig10).rows;
  round.fig12 = hedra::exp::run_fig12(c.fig12).rows;
  return round;
}

bool same_rows(const Fig10Row& a, const Fig10Row& b) {
  return a.devices == b.devices && a.ratio == b.ratio && a.m == b.m &&
         a.mean_bound == b.mean_bound && a.mean_makespan == b.mean_makespan &&
         a.max_sim_over_bound == b.max_sim_over_bound &&
         a.mean_slack_pct == b.mean_slack_pct && a.violations == b.violations;
}

bool same_rows(const Fig12Row& a, const Fig12Row& b) {
  return a.utilization == b.utilization && a.devices == b.devices &&
         a.units == b.units && a.m == b.m && a.tasksets == b.tasksets &&
         a.admitted == b.admitted && a.acceptance == b.acceptance &&
         a.mean_cores_used == b.mean_cores_used &&
         a.mean_bound_over_deadline == b.mean_bound_over_deadline &&
         a.max_obs_over_bound == b.max_obs_over_bound &&
         a.violations == b.violations;
}

template <typename Row>
bool same_grid(const std::vector<Row>& a, const std::vector<Row>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [](const Row& x, const Row& y) { return same_rows(x, y); });
}

/// Referee of one round: complete grids, zero violations, and (when a
/// reference is given) rows identical to it.
void check_round(const Configs& c, const Round& round, const Round* reference,
                 const char* what, Result& result) {
  bool complete = round.fig10.size() == c.fig10_cells() &&
                  round.fig12.size() == c.fig12_cells();
  int violations = 0;
  for (const auto& row : round.fig10) violations += row.violations;
  for (const auto& row : round.fig12) violations += row.violations;
  result.check(complete, std::string(what) + ": a grid is incomplete");
  result.check(violations == 0, std::string(what) + ": " +
                                    std::to_string(violations) +
                                    " exact-rational bound violations");
  if (reference != nullptr) {
    result.check(same_grid(round.fig10, reference->fig10) &&
                     same_grid(round.fig12, reference->fig12),
                 std::string(what) + ": rows differ from the set-up round");
  }
}

/// Nanoseconds per layer accumulated by the traced replay.
struct LayerTimes {
  std::int64_t gen = 0, analysis = 0, sim = 0;
  std::int64_t ts_gen = 0, ts_rta = 0, ts_sim = 0;
  std::uint64_t dags = 0, sims = 0, sets = 0, sets_simulated = 0;
};

/// Returns `body()`, adding its monotonic-clock duration (ns) to `acc`.
template <typename Body>
auto timed(std::int64_t& acc, Body&& body) {
  const std::int64_t t0 = hedra::util::monotonic_now_ns();
  auto value = body();
  acc += hedra::util::monotonic_now_ns() - t0;
  return value;
}

/// exp::run_fig10's rows, recomputed through the public layer calls.
std::vector<Fig10Row> replay_fig10(const Fig10Config& config,
                                   LayerTimes& t) {
  std::vector<hedra::exp::SweepPoint> points;
  const auto device_seeds =
      hedra::exp::batch_seeds(config.seed, config.devices.size());
  for (std::size_t i = 0; i < config.devices.size(); ++i) {
    hedra::exp::GridSpec spec;
    spec.ratios = config.ratios;
    spec.cores = config.cores;
    spec.params = config.params;
    spec.params.num_devices = config.devices[i];
    spec.params.offloads_per_device = config.offloads_per_device;
    spec.dags_per_point = config.dags_per_point;
    spec.seed = device_seeds[i];
    const auto grid = hedra::exp::make_grid(spec);
    points.insert(points.end(), grid.begin(), grid.end());
  }
  const auto& policies = hedra::sim::all_policies();
  std::vector<Fig10Row> rows;
  for (const auto& point : points) {
    const hedra::graph::FlatDagBatch batch = timed(
        t.gen, [&] { return hedra::exp::generate_flat_batch(point.batch); });
    const hedra::analysis::PlatformBatchAnalysis platform =
        timed(t.analysis, [&] {
          return hedra::analysis::analyze_platform_batch(batch, point.cores);
        });
    t.dags += batch.size();
    // samples[mi][di]: bound, per-policy makespans, worst, violated.
    struct Sample {
      double bound = 0.0;
      std::vector<double> makespans;
      double worst = 0.0;
      bool violated = false;
    };
    std::vector<std::vector<Sample>> samples(
        point.cores.size(), std::vector<Sample>(batch.size()));
    for (std::size_t di = 0; di < batch.size(); ++di) {
      hedra::analysis::AnalysisCache cache(batch, di);
      for (std::size_t mi = 0; mi < point.cores.size(); ++mi) {
        const Frac& bound = platform.bound(di, mi);
        Sample& sample = samples[mi][di];
        sample.bound = bound.to_double();
        for (const auto policy : policies) {
          hedra::sim::SimConfig sim_config;
          sim_config.cores = point.cores[mi];
          sim_config.policy = policy;
          sim_config.validate = false;
          const hedra::graph::Time observed = timed(t.sim, [&] {
            return hedra::sim::simulated_makespan(cache.flat_view(),
                                                  sim_config);
          });
          ++t.sims;
          sample.makespans.push_back(static_cast<double>(observed));
          sample.worst =
              std::max(sample.worst, static_cast<double>(observed));
          if (Frac(observed) > bound) sample.violated = true;
        }
      }
    }
    for (std::size_t mi = 0; mi < point.cores.size(); ++mi) {
      Fig10Row row;
      row.devices = point.batch.params.num_devices;
      row.ratio = point.ratio;
      row.m = point.cores[mi];
      row.mean_makespan.assign(policies.size(), 0.0);
      std::vector<double> bounds, slacks;
      for (const auto& sample : samples[mi]) {
        bounds.push_back(sample.bound);
        slacks.push_back(100.0 * (sample.bound - sample.worst) /
                         sample.bound);
        for (std::size_t p = 0; p < policies.size(); ++p) {
          row.mean_makespan[p] += sample.makespans[p] /
                                  static_cast<double>(samples[mi].size());
        }
        row.max_sim_over_bound =
            std::max(row.max_sim_over_bound, sample.worst / sample.bound);
        if (sample.violated) ++row.violations;
      }
      row.mean_bound = hedra::stats::mean(bounds);
      row.mean_slack_pct = hedra::stats::mean(slacks);
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

/// exp::run_fig12's rows, recomputed through the public layer calls.
std::vector<Fig12Row> replay_fig12(const Fig12Config& config,
                                   LayerTimes& t) {
  struct Point {
    double utilization;
    int devices, units, m;
    std::uint64_t seed;
  };
  std::vector<Point> points;
  for (const int devices : config.devices) {
    for (const int units : config.units) {
      for (const int m : config.cores) {
        for (const double utilization : config.utilizations) {
          points.push_back(Point{utilization, devices, units, m, 0});
        }
      }
    }
  }
  const auto seeds = hedra::exp::batch_seeds(config.seed, points.size());
  for (std::size_t i = 0; i < points.size(); ++i) points[i].seed = seeds[i];

  std::vector<Fig12Row> rows;
  for (const Point& point : points) {
    hedra::taskset::TaskSetGenConfig gen_config;
    gen_config.num_tasks = config.num_tasks;
    gen_config.total_utilization = point.utilization * point.m;
    gen_config.dag_params = config.params;
    gen_config.dag_params.num_devices = point.devices;
    gen_config.coff_ratio = config.coff_ratio;
    gen_config.cores = point.m;
    gen_config.device_units.assign(static_cast<std::size_t>(point.devices),
                                   point.units);
    Fig12Row row;
    row.utilization = point.utilization;
    row.devices = point.devices;
    row.units = point.units;
    row.m = point.m;
    row.tasksets = config.tasksets_per_point;
    std::vector<double> cores_used, tightness;
    hedra::Rng master(point.seed);
    for (int k = 0; k < config.tasksets_per_point; ++k) {
      hedra::Rng set_rng = master.fork();
      const hedra::taskset::TaskSet set = timed(t.ts_gen, [&] {
        return hedra::taskset::generate_task_set(gen_config, set_rng);
      });
      const std::uint64_t sim_seed = set_rng.next_u64();
      ++t.sets;
      const hedra::taskset::ContentionAnalysis admission =
          timed(t.ts_rta, [&] { return hedra::taskset::contention_rta(set); });
      if (!admission.schedulable) continue;
      ++row.admitted;
      cores_used.push_back(static_cast<double>(admission.cores_used));
      std::vector<double> ratios;
      std::vector<int> cores_per_task;
      for (std::size_t i = 0; i < admission.tasks.size(); ++i) {
        cores_per_task.push_back(admission.tasks[i].cores);
        ratios.push_back(admission.tasks[i].response.to_double() /
                         static_cast<double>(set[i].deadline()));
      }
      tightness.push_back(hedra::stats::mean(ratios));
      hedra::taskset::TasksetSimConfig sim_config;
      sim_config.policy = config.policy;
      sim_config.seed = sim_seed;
      sim_config.jobs_per_task = config.jobs_per_task;
      const hedra::taskset::TasksetSimResult sim = timed(t.ts_sim, [&] {
        return hedra::taskset::simulate_taskset(set, cores_per_task,
                                                sim_config);
      });
      ++t.sets_simulated;
      double max_ratio = 0.0;
      for (std::size_t i = 0; i < admission.tasks.size(); ++i) {
        const Frac& bound = admission.tasks[i].response;
        const hedra::graph::Time observed = sim.tasks[i].worst_response;
        if (Frac(observed) > bound) ++row.violations;
        max_ratio = std::max(max_ratio, static_cast<double>(observed) /
                                            bound.to_double());
      }
      row.max_obs_over_bound = std::max(row.max_obs_over_bound, max_ratio);
    }
    row.acceptance = static_cast<double>(row.admitted) /
                     static_cast<double>(config.tasksets_per_point);
    if (!cores_used.empty()) {
      row.mean_cores_used = hedra::stats::mean(cores_used);
      row.mean_bound_over_deadline = hedra::stats::mean(tightness);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace

Result run_sweep(const Options& options) {
  Result result;
  const Configs configs = make_configs(options.seed);

  // Set-up: the reference round, repeated; every repetition must agree.
  Round reference;
  std::vector<double> setup_walls;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double t0 = now_s();
    Round round = run_round(configs);
    setup_walls.push_back(now_s() - t0);
    check_round(configs, round, rep == 0 ? nullptr : &reference, "set-up",
                result);
    if (rep == 0) reference = std::move(round);
  }
  result.metrics["setup_s"] = median(setup_walls);

  // Each latency sample is the best of kRepeats back-to-back repeats of the
  // identical round, each pinned to the next allowed CPU in turn: the work
  // is deterministic, so the spread between repeats is interference from
  // other tenants of the machine, which on a shared host slows single CPUs
  // for seconds at a time.  The best-of filters it (the timeit convention).
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof allowed, &allowed);
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  std::vector<double> plain_walls;  // every untraced round
  std::vector<double> best_ms;      // one sample per kRepeats rounds
  std::vector<double> traced_walls;
  LayerTimes layers;
  const double end = now_s() + options.seconds;
  while (now_s() < end || best_ms.empty()) {
    double best = 0.0;
    for (int r = 0; r < kRepeats; ++r) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[static_cast<std::size_t>(r) % cpus.size()], &one);
      sched_setaffinity(0, sizeof one, &one);
      const double t0 = now_s();
      const Round round = run_round(configs);
      const double wall = now_s() - t0;
      plain_walls.push_back(wall);
      best = r == 0 ? wall : std::min(best, wall);
      check_round(configs, round, &reference, "round", result);
    }
    best_ms.push_back(1000.0 * best);
    sched_setaffinity(0, sizeof allowed, &allowed);
    if (!options.trace) continue;

    // Traced replay, alternating with the untraced rounds so both see the
    // same machine state; its overhead is the obs.trace_overhead_pct.
    const double r0 = now_s();
    Round replay;
    replay.fig10 = replay_fig10(configs.fig10, layers);
    replay.fig12 = replay_fig12(configs.fig12, layers);
    traced_walls.push_back(now_s() - r0);
    check_round(configs, replay, &reference, "traced replay", result);
  }

  result.metrics["items_per_s"] = 1000.0 * configs.items() / median(best_ms);
  result.metrics["latency_p50_ms"] = percentile(best_ms, 50.0);
  result.metrics["latency_tail_ms"] = percentile(best_ms, kTailPct);
  result.metrics["peak_rss_mb"] = self_peak_rss_mb();
  result.metrics["bench.latency_samples"] = static_cast<double>(best_ms.size());
  result.metrics["bench.latency_tail_pct"] = kTailPct;

  if (options.trace) {
    const double replay_ns = 1e9 * [&] {
      double sum = 0.0;
      for (const double w : traced_walls) sum += w;
      return sum;
    }();
    const auto per = [](std::int64_t ns, std::uint64_t n) {
      return n == 0 ? 0.0 : 1e-3 * static_cast<double>(ns) /
                                 static_cast<double>(n);
    };
    result.metrics["gen.us_per_dag"] = per(layers.gen, layers.dags);
    result.metrics["analysis.us_per_dag"] = per(layers.analysis, layers.dags);
    result.metrics["sim.us_per_sim"] = per(layers.sim, layers.sims);
    result.metrics["sim.share"] = static_cast<double>(layers.sim) / replay_ns;
    result.metrics["taskset.gen_us_per_set"] = per(layers.ts_gen, layers.sets);
    result.metrics["taskset.rta_us_per_set"] = per(layers.ts_rta, layers.sets);
    result.metrics["taskset.sim_us_per_set"] =
        per(layers.ts_sim, layers.sets_simulated);
    const double attributed =
        static_cast<double>(layers.gen + layers.analysis + layers.sim +
                            layers.ts_gen + layers.ts_rta + layers.ts_sim);
    result.metrics["exp.unattributed_share"] =
        std::max(0.0, 1.0 - attributed / replay_ns);
    result.metrics["obs.trace_overhead_pct"] =
        100.0 * (median(traced_walls) / median(plain_walls) - 1.0);
  }
  return result;
}

}  // namespace perfbench
