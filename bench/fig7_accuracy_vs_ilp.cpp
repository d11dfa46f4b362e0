/// \file fig7_accuracy_vs_ilp.cpp
/// Reproduces Figure 7 (§5.3): increment of R_hom(τ) and R_het(τ') over the
/// true minimum makespan of τ on m cores + 1 accelerator.  The paper used a
/// CPLEX ILP limited to small tasks; hedra uses its exact branch-and-bound
/// solver (see DESIGN.md), which proves optimality on these sizes.  The
/// "proven optimal" column reports the fraction of instances the solver
/// closed within its budget.
///
/// Paper shape: R_het pessimism starts high for tiny C_off (19%/54% above
/// the optimum for m=2/8) and decays below 1% once C_off reaches ~48%/24.5%
/// of vol; R_hom is more accurate only below ~3.1%/11.2%.

#include "exp/figures.h"

int main(int argc, char** argv) {
  return hedra::exp::run_figure(hedra::exp::fig7_figure(), argc, argv);
}
