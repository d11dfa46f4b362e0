/// \file fig11_units.cpp
/// Figure 11 (extension): the execution-unit-multiplicity sweep the n_d
/// generalisation unlocks.  For K accelerator classes with n ∈ units
/// execution units each (applied symmetrically) and a grid of total
/// offloaded ratios, compares the generalised platform bound R_plat(n_d) —
/// vol_d/n_d device terms plus the mixed (units−1)/units weighted chain —
/// against the simulated makespan of every work-conserving ready-queue
/// policy running on the same multi-unit platform, per core count m.  The
/// same DAG batch is reused across unit counts, so the deltas isolate the
/// multiplicity effect; soundness (exact rationals) and bound tightening vs
/// n_d = 1 are reported per (n_d, m).

#include <iostream>

#include "exp/fig11.h"
#include "exp/report.h"
#include "util/cli.h"
#include "util/strings.h"

int main(int argc, char** argv) {
  hedra::ArgParser parser("fig11_units",
                          "Figure 11: unit multiplicity vs bound and sim");
  const auto* dags = parser.add_int("dags", 25, "DAGs per parameter point");
  const auto* seed = parser.add_int("seed", 43, "master RNG seed");
  const auto* devices =
      parser.add_int("devices", 2, "K accelerator device classes");
  const auto* max_units = parser.add_int(
      "max-units", 3, "sweep n_d = 1..max units per accelerator class");
  const auto* unit_vectors = parser.add_string(
      "unit-vectors", "",
      "sweep explicit per-class unit vectors instead of the symmetric "
      "1..max-units grid, e.g. '2,1;3,1' (one comma-separated vector per "
      "';'-separated entry, one entry value per device class)");
  const auto* per_device =
      parser.add_int("per-device", 2, "offload nodes per device");
  const auto* min_nodes = parser.add_int("min-nodes", 100, "minimum DAG size");
  const auto* max_nodes = parser.add_int("max-nodes", 250, "maximum DAG size");
  const auto* csv = parser.add_string("csv", "", "also write results to CSV");
  const auto* jobs = parser.add_int(
      "jobs", 0, "worker threads (0 = all hardware threads)");
  try {
    if (!parser.parse(argc, argv)) return 0;

    hedra::exp::Fig11Config config;
    config.dags_per_point = static_cast<int>(*dags);
    config.seed = static_cast<std::uint64_t>(*seed);
    config.jobs = static_cast<int>(*jobs);
    config.devices = static_cast<int>(*devices);
    config.offloads_per_device = static_cast<int>(*per_device);
    config.params.min_nodes = static_cast<int>(*min_nodes);
    config.params.max_nodes = static_cast<int>(*max_nodes);
    config.units.clear();
    for (int n = 1; n <= static_cast<int>(*max_units); ++n) {
      config.units.push_back(n);
    }
    if (!unit_vectors->empty()) {
      for (const auto& entry : hedra::split(*unit_vectors, ';')) {
        std::vector<int> vec;
        for (const auto& value : hedra::split(hedra::trim(entry), ',')) {
          vec.push_back(static_cast<int>(hedra::parse_int(hedra::trim(value))));
        }
        config.unit_vectors.push_back(std::move(vec));
      }
    }

    const auto result = hedra::exp::run_fig11(config);
    std::cout << "== Figure 11: per-device multiplicity n_d vs the "
                 "generalised platform bound ==\n"
              << "K = " << *devices << ", "
              << (unit_vectors->empty()
                      ? "n_d in [1, " + std::to_string(*max_units) + "]"
                      : "unit vectors " + *unit_vectors)
              << ", " << *per_device << " offload(s)/device, n in ["
              << *min_nodes << ", " << *max_nodes << "], " << *dags
              << " DAGs/point, seed " << *seed << "\n\n";
    std::cout << hedra::exp::render_fig11(result);
    if (!csv->empty()) {
      hedra::exp::write_fig11_csv(result, *csv);
      std::cout << "\nCSV written to " << *csv << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
