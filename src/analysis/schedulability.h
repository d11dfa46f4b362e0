#pragma once

/// \file schedulability.h
/// Schedulability verification: a task τ is schedulable on m cores (plus the
/// accelerator) if its response-time upper bound does not exceed its
/// relative deadline D (§3.1).

#include "analysis/platform_rta.h"
#include "analysis/rta_heterogeneous.h"
#include "model/task.h"

namespace hedra::analysis {

/// Which analysis produces the bound.
enum class AnalysisKind {
  kHomogeneous,    ///< Eq. 1 on the original DAG (baseline, [19])
  kHeterogeneous,  ///< Theorem 1 on the transformed DAG (this paper)
  kBest,           ///< min of the two (both are sound)
  kPlatform,       ///< K-device chain bound R_plat (analysis/platform_rta.h)
};

/// Outcome of a schedulability test.
struct SchedulabilityReport {
  AnalysisKind kind = AnalysisKind::kBest;
  Frac bound;              ///< response-time upper bound
  graph::Time deadline = 0;
  bool schedulable = false;
  /// Scenario of Theorem 1; meaningful for kHeterogeneous/kBest when the
  /// heterogeneous bound was evaluated.
  Scenario scenario = Scenario::kS1;
  /// kPlatform only: the accelerator class with the largest volume term
  /// vol_d/n_d (0 when no device term dominates any work, i.e. K = 0 or no
  /// offloaded volume), and that term's value — the placement knob to turn
  /// first when the task misses its deadline.
  graph::DeviceId dominating_device = 0;
  Frac dominating_device_term;
};

/// Verifies R(τ) <= D using the requested analysis.  For kHomogeneous the
/// offload node is treated as a host node, exactly as the paper's baseline
/// does; kPlatform infers the smallest supporting single-unit platform
/// (model::platform_for).  Throws if the DAG violates the heterogeneous
/// model preconditions and a heterogeneous analysis is requested.
[[nodiscard]] SchedulabilityReport check_schedulability(
    const model::DagTask& task, int m, AnalysisKind kind = AnalysisKind::kBest);

}  // namespace hedra::analysis
