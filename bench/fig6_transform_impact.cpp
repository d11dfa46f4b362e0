/// \file fig6_transform_impact.cpp
/// Reproduces Figure 6 (§5.2): percentage change of the average simulated
/// execution time of the original task τ with respect to the transformed
/// task τ', under the GOMP-style work-conserving breadth-first scheduler,
/// for m = 2/4/8/16 and C_off/vol from 1% to 70%.
///
/// Paper shape to compare against: the transformation *hurts* for small
/// offloads (τ faster by ~3% at m=2 ... ~15% at m=16 when C_off = 1% of
/// vol), crossovers near 11/8/6/4.5% of vol for m = 2/4/8/16, then the
/// transformation wins (τ slower by ~24% at m=2 around C_off = 28%).

#include <cstdio>
#include <iostream>

#include "exp/fig6.h"
#include "exp/report.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  hedra::ArgParser parser(
      "fig6_transform_impact",
      "Figure 6: average-performance impact of the DAG transformation");
  const auto* dags = parser.add_int("dags", 100, "DAGs per parameter point");
  const auto* seed = parser.add_int("seed", 42, "master RNG seed");
  const auto* min_nodes = parser.add_int("min-nodes", 100, "minimum DAG size");
  const auto* max_nodes = parser.add_int("max-nodes", 250, "maximum DAG size");
  const auto* csv = parser.add_string("csv", "", "also write results to CSV");
  const auto* jobs = parser.add_int(
      "jobs", 0, "worker threads (0 = all hardware threads)");
  try {
    if (!parser.parse(argc, argv)) return 0;

    hedra::exp::Fig6Config config;
    config.dags_per_point = static_cast<int>(*dags);
    config.seed = static_cast<std::uint64_t>(*seed);
    config.jobs = static_cast<int>(*jobs);
    config.params.min_nodes = static_cast<int>(*min_nodes);
    config.params.max_nodes = static_cast<int>(*max_nodes);

    const auto result = hedra::exp::run_fig6(config);
    std::cout << "== Figure 6: % change of avg execution time of tau vs tau' "
                 "(breadth-first scheduler) ==\n"
              << "n in [" << *min_nodes << ", " << *max_nodes << "], "
              << *dags << " DAGs/point, seed " << *seed << "\n\n";
    std::cout << hedra::exp::render_fig6(result);
    if (!csv->empty()) {
      hedra::exp::write_fig6_csv(result, *csv);
      std::cout << "\nCSV written to " << *csv << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
