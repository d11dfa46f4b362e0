/// \file fig9_hom_vs_het.cpp
/// Reproduces Figure 9 and the §5.4 in-text maxima: percentage change of
/// R_hom(τ) with respect to R_het(τ') across C_off/vol and m.
///
/// Paper shape: R_hom is better only below C_off ≈ 1.6/3.4/4.6/5% of vol
/// (sync-point penalty); beyond that R_het wins, peaking at ~70/55/40/30%
/// when C_off = R_hom(G_par), with maximum observed differences of
/// 95.0/82.5/65.3/47.7% for m = 2/4/8/16.

#include <iostream>

#include "exp/fig9.h"
#include "exp/report.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  hedra::ArgParser parser("fig9_hom_vs_het",
                          "Figure 9: R_hom vs R_het percentage change");
  const auto* dags = parser.add_int("dags", 100, "DAGs per parameter point");
  const auto* seed = parser.add_int("seed", 42, "master RNG seed");
  const auto* min_nodes = parser.add_int("min-nodes", 100, "minimum DAG size");
  const auto* max_nodes = parser.add_int("max-nodes", 250, "maximum DAG size");
  const auto* csv = parser.add_string("csv", "", "also write results to CSV");
  const auto* jobs = parser.add_int(
      "jobs", 0, "worker threads (0 = all hardware threads)");
  try {
    if (!parser.parse(argc, argv)) return 0;

    hedra::exp::Fig9Config config;
    config.dags_per_point = static_cast<int>(*dags);
    config.seed = static_cast<std::uint64_t>(*seed);
    config.jobs = static_cast<int>(*jobs);
    config.params.min_nodes = static_cast<int>(*min_nodes);
    config.params.max_nodes = static_cast<int>(*max_nodes);

    const auto result = hedra::exp::run_fig9(config);
    std::cout << "== Figure 9 + §5.4 maxima: % change of R_hom w.r.t. R_het "
                 "==\n"
              << "n in [" << *min_nodes << ", " << *max_nodes << "], "
              << *dags << " DAGs/point, seed " << *seed << "\n\n";
    std::cout << hedra::exp::render_fig9(result);
    if (!csv->empty()) {
      hedra::exp::write_fig9_csv(result, *csv);
      std::cout << "\nCSV written to " << *csv << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
