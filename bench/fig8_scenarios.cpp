/// \file fig8_scenarios.cpp
/// Reproduces Figure 8 (§5.4): occurrence percentage of Theorem 1's
/// execution scenarios (S1 / S2.1 / S2.2) when sweeping C_off/vol from
/// 0.12% to 50% on m = 2/4/8/16.
///
/// Paper shape: S1 dominates below ~8% (v_off off the critical path,
/// m-independent), S2.2 takes over as v_off turns critical, S2.1 rises once
/// C_off exceeds R_hom(G_par) — earlier for larger m; the S2.1/S2.2
/// crossover falls near 32/20/14/10% of vol for m = 2/4/8/16.

#include "exp/figures.h"

int main(int argc, char** argv) {
  return hedra::exp::run_figure(hedra::exp::fig8_figure(), argc, argv);
}
