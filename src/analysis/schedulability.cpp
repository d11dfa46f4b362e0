#include "analysis/schedulability.h"

namespace hedra::analysis {

SchedulabilityReport check_schedulability(const model::DagTask& task, int m,
                                          AnalysisKind kind) {
  SchedulabilityReport report;
  report.kind = kind;
  report.deadline = task.deadline();
  switch (kind) {
    case AnalysisKind::kHomogeneous:
      report.bound = rta_homogeneous(task.dag(), m);
      break;
    case AnalysisKind::kHeterogeneous: {
      const auto analysis = analyze_heterogeneous(task.dag(), m);
      report.bound = analysis.r_het;
      report.scenario = analysis.scenario;
      break;
    }
    case AnalysisKind::kBest: {
      const auto analysis = analyze_heterogeneous(task.dag(), m);
      report.bound = frac_min(analysis.r_het, analysis.r_hom);
      report.scenario = analysis.scenario;
      break;
    }
    case AnalysisKind::kPlatform: {
      const auto analysis =
          analyze_platform(task.dag(), model::platform_for(task.dag(), m));
      report.bound = analysis.bound;
      // The accelerator class whose vol_d/n_d term is largest (smallest
      // device id tie-breaks; devices with no work never dominate).
      for (const auto& term : analysis.devices) {
        if (term.volume > 0 && term.term > report.dominating_device_term) {
          report.dominating_device = term.device;
          report.dominating_device_term = term.term;
        }
      }
      break;
    }
  }
  report.schedulable = report.bound <= Frac(task.deadline());
  return report;
}

}  // namespace hedra::analysis
