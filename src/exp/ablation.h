#pragma once

/// \file ablation.h
/// The ablation study behind `ablation_policies` (a design-choice study,
/// not a paper figure), on the Runner engine:
///
/// 1. Scheduler policies: every work-conserving policy simulates τ and τ'
///    at m = 8, showing how much of the transformation's average-case
///    benefit is scheduler-dependent.
/// 2. Analysis variants: mean R_hom (Eq. 1), R_het (Theorem 1), their
///    minimum, the chain bound (analysis/platform_rta.h, which on these
///    single-offload DAGs is the two-resource bound vol_host/m + C_off +
///    max_host_path·(m−1)/m) and the unsound naive subtraction (§3.2, for
///    reference only) at m = 2 and 16.  It reuses one batch seed across
///    ratios on purpose: the same underlying graphs at different C_off make
///    the columns paired.

#include <cstdint>
#include <vector>

#include "sim/scheduler.h"

namespace hedra::exp {

struct AblationConfig {
  int dags_per_point = 40;
  std::uint64_t seed = 42;
  int jobs = 1;  ///< worker threads; <= 0 picks the hardware default
};

/// Mean simulated makespans of τ and τ' under one policy at one ratio.
struct PolicyAblationRow {
  double ratio = 0.0;
  sim::Policy policy = sim::Policy::kBreadthFirst;
  double avg_original = 0.0;
  double avg_transformed = 0.0;
};

/// Mean bound of each analysis variant in one (ratio, m) cell.
struct AnalysisAblationRow {
  double ratio = 0.0;
  int m = 0;
  double hom = 0.0, het = 0.0, best = 0.0, chain = 0.0, naive = 0.0;
};

struct AblationResult {
  /// One group of rows per ratio, one row per policy.
  std::vector<std::vector<PolicyAblationRow>> policies;
  std::vector<AnalysisAblationRow> analyses;
};

[[nodiscard]] AblationResult run_ablation(const AblationConfig& config);

}  // namespace hedra::exp
