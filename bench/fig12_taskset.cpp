/// \file fig12_taskset.cpp
/// Figure 12 (extension): taskset-level schedulability under
/// shared-accelerator contention.  Sweeps normalised utilisation × K
/// accelerator classes × n_d units × m host cores; per cell, random
/// sporadic task sets are admitted by the federated contention test
/// (taskset/contention_rta) and every admitted set is executed on the
/// taskset simulator with shared per-device unit pools — observed per-job
/// response times are checked against the admitted bounds in exact rational
/// arithmetic (violations must be zero across the grid).

#include <iostream>

#include "exp/fig12.h"
#include "exp/report.h"
#include "util/cli.h"
#include "util/error.h"

int main(int argc, char** argv) {
  hedra::ArgParser parser("fig12_taskset",
                          "Figure 12: taskset admission vs contention");
  const auto* tasksets =
      parser.add_int("tasksets", 20, "task sets per parameter point");
  const auto* tasks = parser.add_int("tasks", 4, "tasks per set");
  const auto* seed = parser.add_int("seed", 44, "master RNG seed");
  const auto* max_devices =
      parser.add_int("max-devices", 2, "sweep K = 1..max accelerator classes");
  const auto* max_units = parser.add_int(
      "max-units", 2, "sweep n_d = 1..max units per accelerator class");
  const auto* sim_jobs =
      parser.add_int("jobs-per-task", 3, "releases simulated per task");
  const auto* coff =
      parser.add_real("coff-ratio", 0.2, "target C_off/vol per task");
  const auto* csv = parser.add_string("csv", "", "also write results to CSV");
  const auto* quick = parser.add_flag(
      "quick", "smoke mode: tiny grid and batches (for CI)");
  const auto* jobs = parser.add_int(
      "jobs", 0, "worker threads (0 = all hardware threads)");
  try {
    if (!parser.parse(argc, argv)) return 0;
    HEDRA_REQUIRE(*max_devices >= 1, "--max-devices must be >= 1");
    HEDRA_REQUIRE(*max_units >= 1, "--max-units must be >= 1");

    hedra::exp::Fig12Config config;
    config.tasksets_per_point = static_cast<int>(*tasksets);
    config.num_tasks = static_cast<int>(*tasks);
    config.seed = static_cast<std::uint64_t>(*seed);
    config.jobs = static_cast<int>(*jobs);
    config.jobs_per_task = static_cast<int>(*sim_jobs);
    config.coff_ratio = *coff;
    config.devices.clear();
    for (int k = 1; k <= static_cast<int>(*max_devices); ++k) {
      config.devices.push_back(k);
    }
    config.units.clear();
    for (int n = 1; n <= static_cast<int>(*max_units); ++n) {
      config.units.push_back(n);
    }
    if (*quick) {
      config.utilizations = {0.25, 0.75};
      config.devices = {1, 2};
      config.units = {1, 2};
      config.cores = {4};
      config.tasksets_per_point = 4;
      config.num_tasks = 3;
      config.jobs_per_task = 2;
    }

    const auto result = hedra::exp::run_fig12(config);
    std::cout << "== Figure 12: sporadic taskset admission under "
                 "shared-accelerator contention ==\n"
              << config.num_tasks << " tasks/set, "
              << config.tasksets_per_point << " sets/point, K in [1, "
              << config.devices.back() << "], n_d in [1, "
              << config.units.back() << "], " << config.jobs_per_task
              << " jobs/task simulated, seed " << config.seed << "\n\n";
    std::cout << hedra::exp::render_fig12(result);
    int violations = 0;
    for (const auto& summary : result.summaries) {
      violations += summary.violations;
    }
    if (!csv->empty()) {
      hedra::exp::write_fig12_csv(result, *csv);
      std::cout << "\nCSV written to " << *csv << "\n";
    }
    if (violations != 0) {
      std::cerr << "error: " << violations
                << " bound violation(s) — the contention analysis is "
                   "unsound\n";
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
