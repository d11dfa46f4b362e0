/// \file fig8_scenarios.cpp
/// Reproduces Figure 8 (§5.4): occurrence percentage of Theorem 1's
/// execution scenarios (S1 / S2.1 / S2.2) when sweeping C_off/vol from
/// 0.12% to 50% on m = 2/4/8/16.
///
/// Paper shape: S1 dominates below ~8% (v_off off the critical path,
/// m-independent), S2.2 takes over as v_off turns critical, S2.1 rises once
/// C_off exceeds R_hom(G_par) — earlier for larger m; the S2.1/S2.2
/// crossover falls near 32/20/14/10% of vol for m = 2/4/8/16.

#include <iostream>

#include "exp/fig8.h"
#include "exp/report.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  hedra::ArgParser parser("fig8_scenarios",
                          "Figure 8: scenario occurrence percentages");
  const auto* dags = parser.add_int("dags", 100, "DAGs per parameter point");
  const auto* seed = parser.add_int("seed", 42, "master RNG seed");
  const auto* min_nodes = parser.add_int("min-nodes", 100, "minimum DAG size");
  const auto* max_nodes = parser.add_int("max-nodes", 250, "maximum DAG size");
  const auto* csv = parser.add_string("csv", "", "also write results to CSV");
  const auto* jobs = parser.add_int(
      "jobs", 0, "worker threads (0 = all hardware threads)");
  try {
    if (!parser.parse(argc, argv)) return 0;

    hedra::exp::Fig8Config config;
    config.dags_per_point = static_cast<int>(*dags);
    config.seed = static_cast<std::uint64_t>(*seed);
    config.jobs = static_cast<int>(*jobs);
    config.params.min_nodes = static_cast<int>(*min_nodes);
    config.params.max_nodes = static_cast<int>(*max_nodes);

    const auto result = hedra::exp::run_fig8(config);
    std::cout << "== Figure 8: occurrence of Theorem 1 scenarios ==\n"
              << "n in [" << *min_nodes << ", " << *max_nodes << "], "
              << *dags << " DAGs/point, seed " << *seed << "\n\n";
    std::cout << hedra::exp::render_fig8(result);
    if (!csv->empty()) {
      hedra::exp::write_fig8_csv(result, *csv);
      std::cout << "\nCSV written to " << *csv << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
