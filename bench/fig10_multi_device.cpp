/// \file fig10_multi_device.cpp
/// Figure 10 (extension): the multi-device sweep the Platform model unlocks.
/// For K = 1..max accelerator device classes and a grid of total offloaded
/// ratios, compares the generalised K-device chain bound R_plat against the
/// simulated makespan of every work-conserving ready-queue policy, per core
/// count m.  Soundness (no policy above the bound, exact rationals) and
/// tightness (mean slack vs the worst policy) are reported per (K, m).

#include <iostream>

#include "exp/fig10.h"
#include "exp/report.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  hedra::ArgParser parser("fig10_multi_device",
                          "Figure 10: K-device platform bound vs simulation");
  const auto* dags = parser.add_int("dags", 25, "DAGs per parameter point");
  const auto* seed = parser.add_int("seed", 42, "master RNG seed");
  const auto* max_devices =
      parser.add_int("max-devices", 4, "sweep K = 1..max accelerator devices");
  const auto* per_device =
      parser.add_int("per-device", 1, "offload nodes per device");
  const auto* min_nodes = parser.add_int("min-nodes", 100, "minimum DAG size");
  const auto* max_nodes = parser.add_int("max-nodes", 250, "maximum DAG size");
  const auto* csv = parser.add_string("csv", "", "also write results to CSV");
  const auto* jobs = parser.add_int(
      "jobs", 0, "worker threads (0 = all hardware threads)");
  try {
    if (!parser.parse(argc, argv)) return 0;

    hedra::exp::Fig10Config config;
    config.dags_per_point = static_cast<int>(*dags);
    config.seed = static_cast<std::uint64_t>(*seed);
    config.jobs = static_cast<int>(*jobs);
    config.offloads_per_device = static_cast<int>(*per_device);
    config.params.min_nodes = static_cast<int>(*min_nodes);
    config.params.max_nodes = static_cast<int>(*max_nodes);
    config.devices.clear();
    for (int k = 1; k <= static_cast<int>(*max_devices); ++k) {
      config.devices.push_back(k);
    }

    const auto result = hedra::exp::run_fig10(config);
    std::cout << "== Figure 10: K-device platform bound vs every "
                 "work-conserving policy ==\n"
              << "K in [1, " << *max_devices << "], " << *per_device
              << " offload(s)/device, n in [" << *min_nodes << ", "
              << *max_nodes << "], " << *dags << " DAGs/point, seed " << *seed
              << "\n\n";
    std::cout << hedra::exp::render_fig10(result);
    if (!csv->empty()) {
      hedra::exp::write_fig10_csv(result, *csv);
      std::cout << "\nCSV written to " << *csv << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
