/// \file ablation_policies.cpp
/// Ablation bench (hedra design-choice study, not a paper figure):
///
/// 1. Scheduler-policy ablation.  Figure 6 uses GOMP's breadth-first policy;
///    here every work-conserving policy is run on τ and τ' to show how much
///    of the transformation's average-case benefit is scheduler-dependent.
///    A critical-path-first scheduler already avoids many of the bad
///    schedules that v_sync rules out, so the transformation's win shrinks.
///
/// 2. Analysis-variant ablation.  For the same instances: R_hom (Eq. 1),
///    R_het (Theorem 1), min(R_hom, R_het), the unsound naive subtraction
///    (§3.2, reported for reference only), and the two-resource chain bound
///    of analysis/multi_offload.h.
///
/// Both ablations run on the exp::Runner engine (--jobs N fans the per-DAG
/// work out over a thread pool; output is identical for any N).

#include "exp/figures.h"

int main(int argc, char** argv) {
  return hedra::exp::run_figure(hedra::exp::ablation_figure(), argc, argv);
}
