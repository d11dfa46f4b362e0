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

#include "exp/figures.h"

int main(int argc, char** argv) {
  return hedra::exp::run_figure(hedra::exp::fig11_figure(), argc, argv);
}
