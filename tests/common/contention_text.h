#pragma once

/// \file contention_text.h
/// Text renderings of a taskset::ContentionAnalysis that the tests compare
/// byte for byte: two analyses of the same set agree on every verdict,
/// bound, iteration count and dominant competitor iff their explain()
/// texts are equal, and on their fixpoint work iff their
/// explain_fixpoint() texts are equal.

#include <cstddef>
#include <sstream>
#include <string>

#include "taskset/contention_rta.h"
#include "taskset/taskset.h"
#include "util/deadline.h"
#include "util/error.h"
#include "util/fraction.h"

namespace hedra::testing {

/// One line of fixpoint work: solve and iteration totals, the
/// int-path/frac-path split, the truncation count and how many verdicts
/// were reused.
inline std::string explain_fixpoint(
    const taskset::ContentionAnalysis& analysis) {
  const taskset::FixpointTelemetry& t = analysis.telemetry;
  std::ostringstream os;
  os << "rta fixpoint: solves=" << t.fixpoint_solves << " (int_path="
     << t.int_path << " frac_path=" << t.frac_path << ") iterations="
     << t.iterations << " seed_evals=" << t.seed_evals << " truncated="
     << t.truncated << " reused=" << t.reused << "\n";
  return os.str();
}

/// Per-task allocation and bound vs deadline, and — for the tightest task —
/// the dominating (competitor task, device) pair, i.e. the contention edge
/// to relieve first when the set is rejected.
inline std::string explain(const taskset::ContentionAnalysis& analysis,
                           const taskset::TaskSet& set) {
  HEDRA_REQUIRE(analysis.tasks.size() == set.size(),
                "analysis does not match the task set");
  std::ostringstream os;
  os << "taskset admission ("
     << set.platform().describe() << "): "
     << (analysis.schedulable ? "SCHEDULABLE" : "NOT SCHEDULABLE");
  if (analysis.outcome == util::Outcome::kBudgetExhausted) {
    os << " (budget exhausted: truncated tasks are not PROVEN infeasible)";
  }
  os << ", " << analysis.cores_used << "/" << set.platform().cores
     << " host cores partitioned\n";

  // The tightest task — the first unschedulable one, or the admitted task
  // with the largest R/D — names the contention edge to relieve first.
  std::size_t tightest = 0;
  bool found_failing = false;
  Frac best_ratio(-1);
  for (std::size_t i = 0; i < analysis.tasks.size(); ++i) {
    const taskset::TaskAdmission& task = analysis.tasks[i];
    if (!task.schedulable && !found_failing) {
      tightest = i;
      found_failing = true;
    }
    if (!found_failing) {
      const Frac ratio = task.response / Frac(set[i].deadline());
      if (ratio > best_ratio) {
        best_ratio = ratio;
        tightest = i;
      }
    }
  }

  for (std::size_t i = 0; i < analysis.tasks.size(); ++i) {
    const taskset::TaskAdmission& task = analysis.tasks[i];
    os << "  " << task.name << ": ";
    if (task.cores == 0) {
      os << "no host cores left -> NOT schedulable\n";
      continue;
    }
    os << task.cores << " core" << (task.cores == 1 ? "" : "s") << ", R = "
       << task.response << " (= " << task.response.to_double() << ") vs D = "
       << set[i].deadline() << " -> ";
    if (task.outcome == util::Outcome::kBudgetExhausted) {
      os << "BUDGET EXHAUSTED (analysis truncated after " << task.iterations
         << " iterations; treated as NOT schedulable, not proven infeasible)";
    } else {
      os << (task.schedulable ? "schedulable" : "NOT schedulable");
      if (task.iterations > 1) {
        os << " after " << task.iterations << " contention iterations";
      }
    }
    os << "\n";
  }

  const taskset::TaskAdmission& tight = analysis.tasks[tightest];
  const taskset::DeviceContention* dominant = nullptr;
  for (const taskset::DeviceContention& device : tight.devices) {
    if (device.interference == Frac()) continue;
    if (dominant == nullptr || device.interference > dominant->interference) {
      dominant = &device;
    }
  }
  if (dominant != nullptr) {
    os << "  dominating contention: task "
       << set[dominant->dominant_competitor].name() << " on device "
       << set.platform().device_name(dominant->device) << " (d"
       << dominant->device << ") adds " << dominant->interference
       << " ticks to " << tight.name << "'s bound\n";
  } else {
    os << "  no device contention: every per-task bound is the isolated "
          "platform bound\n";
  }
  return os.str();
}

}  // namespace hedra::testing
