#pragma once

/// \file contention_oracle.h
/// Test-only oracle: the whole-set contention admission test as it stood
/// before the analysis became incremental — every task, every core count,
/// every competitor re-derived from scratch, with n_jobs computed for all
/// n tasks in every fixpoint iteration.  The library's engine must produce
/// the same ContentionAnalysis (verdicts, bounds, iteration counts,
/// dominant competitors) whatever prior state it reuses, so the tests
/// compare testing::explain() (common/contention_text.h) of the two byte
/// for byte.
///
/// Unlimited budget, no fault seams and no metric flushes: the oracle is a
/// referee, so nothing may cut it short or perturb it.  Its telemetry
/// counts solves, iterations and seed evaluations exactly as the original
/// did, which pins the from-scratch counts of the library's engine.

#include <algorithm>
#include <numeric>
#include <optional>
#include <vector>

#include "common/chain_walk_oracle.h"
#include "taskset/contention_rta.h"
#include "taskset/taskset.h"

namespace hedra::testing::oracle {

using graph::Time;
using taskset::ContentionAnalysis;
using taskset::DagTask;
using taskset::Platform;
using taskset::TaskSet;

struct SetQuantities {
  std::vector<int> units;
  std::vector<Frac> speedups;
  std::vector<std::vector<Time>> volume;
  std::vector<std::vector<Frac>> unit_volume;
  Time base_scale = 0;
  std::vector<std::vector<Time>> scaled_uv;
  __int128 step_weight = 0;
  __int128 timing_max = 0;
};

constexpr Time kMaxScale = Time{1} << 20;
constexpr __int128 kMaxMagnitude = __int128{1} << 56;
constexpr int kMaxIterations = 1000;

inline Time task_volume_on(const DagTask& task, graph::DeviceId device) {
  if (!task.has_flat_view()) return task.dag().volume_on(device);
  const graph::FlatView view = task.flat_view();
  Time volume = 0;
  for (graph::NodeId v = 0; v < view.num_nodes(); ++v) {
    if (view.device(v) == device) volume += view.wcet(v);
  }
  return volume;
}

inline SetQuantities measure(const TaskSet& set) {
  SetQuantities q;
  const Platform& platform = set.platform();
  const auto num_devices = static_cast<std::size_t>(platform.num_devices());
  q.units.resize(num_devices);
  q.speedups.resize(num_devices, Frac(1));
  for (std::size_t d = 0; d < num_devices; ++d) {
    const auto device = static_cast<graph::DeviceId>(d + 1);
    q.units[d] = platform.units_of(device);
    q.speedups[d] = platform.speedup_of(device);
  }
  q.volume.resize(set.size());
  q.unit_volume.resize(set.size());
  for (std::size_t i = 0; i < set.size(); ++i) {
    q.volume[i].resize(num_devices, 0);
    q.unit_volume[i].resize(num_devices);
    for (std::size_t d = 0; d < num_devices; ++d) {
      q.volume[i][d] =
          task_volume_on(set[i], static_cast<graph::DeviceId>(d + 1));
      Frac uv(q.volume[i][d], q.units[d]);
      if (q.speedups[d] != Frac(1)) uv = uv / q.speedups[d];
      q.unit_volume[i][d] = uv;
    }
  }
  Time base = 1;
  for (const auto& task_uv : q.unit_volume) {
    for (const Frac& uv : task_uv) {
      base = std::lcm(base, uv.den());
      if (base > kMaxScale) return q;
    }
  }
  Time d_max = 0;
  for (const DagTask& task : set) {
    d_max = std::max(d_max, task.deadline());
    q.timing_max = std::max(q.timing_max, __int128{task.deadline()});
    q.timing_max = std::max(q.timing_max, __int128{task.period()});
  }
  q.scaled_uv.resize(set.size());
  for (std::size_t j = 0; j < set.size(); ++j) {
    const __int128 n_jobs_max =
        (__int128{d_max} + set[j].deadline()) / set[j].period() + 1;
    q.scaled_uv[j].resize(num_devices);
    for (std::size_t d = 0; d < num_devices; ++d) {
      const Frac& uv = q.unit_volume[j][d];
      q.scaled_uv[j][d] = uv.num() * (base / uv.den());
      q.step_weight += __int128{q.scaled_uv[j][d]} * n_jobs_max;
    }
  }
  q.base_scale = base;
  return q;
}

struct FixpointResult {
  Frac response;
  bool converged = false;
  bool truncated = false;
  int iterations = 0;
  std::vector<Frac> per_device;
  std::vector<std::size_t> dominant;
};

inline FixpointResult fixpoint_frac(const TaskSet& set,
                                    const SetQuantities& q, std::size_t index,
                                    const Frac& seed, Time deadline) {
  FixpointResult out;
  out.per_device.assign(q.units.size(), Frac());
  out.dominant.assign(q.units.size(), index);
  Frac response = seed;
  for (int k = 1; k <= kMaxIterations; ++k) {
    out.iterations = k;
    std::vector<Time> n_jobs(set.size(), 0);
    for (std::size_t j = 0; j < set.size(); ++j) {
      if (j == index) continue;
      n_jobs[j] = (response + Frac(set[j].deadline())).floor() /
                      set[j].period() +
                  1;
    }
    Frac total;
    for (std::size_t d = 0; d < q.units.size(); ++d) {
      if (q.volume[index][d] == 0) continue;
      Frac device_total;
      Frac best;
      std::size_t best_task = index;
      for (std::size_t j = 0; j < set.size(); ++j) {
        if (j == index || q.volume[j][d] == 0) continue;
        const Frac contribution = Frac(n_jobs[j]) * q.unit_volume[j][d];
        device_total += contribution;
        if (best_task == index || contribution > best) {
          best = contribution;
          best_task = j;
        }
      }
      total += device_total;
      out.per_device[d] = device_total;
      out.dominant[d] = best_task;
    }
    const Frac next = seed + total;
    if (next == response) {
      out.response = response;
      out.converged = true;
      return out;
    }
    response = next;
    if (response > Frac(deadline)) {
      out.response = response;
      return out;
    }
  }
  out.response = response;
  out.truncated = true;
  return out;
}

inline FixpointResult fixpoint_int(const TaskSet& set, const SetQuantities& q,
                                   Time L, Time f, std::size_t index,
                                   const Frac& seed, Time deadline) {
  const Time seed_scaled = seed.num() * (L / seed.den());
  const Time deadline_scaled = deadline * L;
  const std::size_t num_tasks = set.size();
  const std::size_t num_devices = q.units.size();
  FixpointResult out;
  out.dominant.assign(num_devices, index);
  std::vector<Time> per_device(num_devices, 0);
  std::vector<Time> n_jobs(num_tasks, 0);
  Time response = seed_scaled;
  bool crossed = false;
  for (int k = 1; k <= kMaxIterations; ++k) {
    out.iterations = k;
    for (std::size_t j = 0; j < num_tasks; ++j) {
      if (j == index) continue;
      n_jobs[j] =
          (response + set[j].deadline() * L) / (set[j].period() * L) + 1;
    }
    Time total = 0;
    for (std::size_t d = 0; d < num_devices; ++d) {
      if (q.volume[index][d] == 0) continue;
      Time device_total = 0;
      Time best = 0;
      std::size_t best_task = index;
      for (std::size_t j = 0; j < num_tasks; ++j) {
        if (j == index || q.volume[j][d] == 0) continue;
        const Time contribution = n_jobs[j] * q.scaled_uv[j][d] * f;
        device_total += contribution;
        if (best_task == index || contribution > best) {
          best = contribution;
          best_task = j;
        }
      }
      total += device_total;
      per_device[d] = device_total;
      out.dominant[d] = best_task;
    }
    const Time next = seed_scaled + total;
    if (next == response) {
      out.converged = true;
      break;
    }
    response = next;
    if (response > deadline_scaled) {
      crossed = true;
      break;
    }
  }
  if (!out.converged && !crossed) out.truncated = true;
  out.response = Frac(response, L);
  out.per_device.resize(num_devices);
  for (std::size_t d = 0; d < num_devices; ++d) {
    out.per_device[d] = Frac(per_device[d], L);
  }
  return out;
}

inline FixpointResult fixpoint(const TaskSet& set, const SetQuantities& q,
                               std::size_t index, const Frac& seed,
                               Time deadline,
                               taskset::FixpointTelemetry& telemetry) {
  bool int_path = false;
  std::optional<FixpointResult> result;
  if (q.base_scale > 0) {
    const Time f = seed.den() / std::gcd(q.base_scale, seed.den());
    const Time L = q.base_scale * f;
    if (L <= kMaxScale) {
      const __int128 seed_scaled = __int128{seed.num()} * (L / seed.den());
      if (seed_scaled >= 0 &&
          seed_scaled + __int128{f} * q.step_weight <= kMaxMagnitude &&
          q.timing_max * L <= kMaxMagnitude) {
        int_path = true;
        result = fixpoint_int(set, q, L, f, index, seed, deadline);
      }
    }
  }
  if (!result) result = fixpoint_frac(set, q, index, seed, deadline);
  ++telemetry.fixpoint_solves;
  if (int_path) {
    ++telemetry.int_path;
  } else {
    ++telemetry.frac_path;
  }
  telemetry.iterations += static_cast<std::uint64_t>(result->iterations);
  if (result->truncated) ++telemetry.truncated;
  return *result;
}

/// R_i(m) from the Dag-side reference of the platform bound.
inline Frac seed_bound(const DagTask& task, const SetQuantities& q, int m) {
  return reference_platform_bound(task.dag(), m, q.units, q.speedups);
}

/// The from-scratch admission test.  Requires a validated, non-empty set.
inline ContentionAnalysis contention_rta(const TaskSet& set) {
  const SetQuantities q = measure(set);
  ContentionAnalysis out;
  out.schedulable = true;
  int remaining = set.platform().cores;
  for (std::size_t i = 0; i < set.size(); ++i) {
    taskset::TaskAdmission admission;
    admission.name = set[i].name();
    const Time deadline = set[i].deadline();
    FixpointResult best;
    int assigned = 0;
    for (int m = 1; m <= remaining; ++m) {
      const Frac seed = seed_bound(set[i], q, m);
      ++out.telemetry.seed_evals;
      FixpointResult result =
          fixpoint(set, q, i, seed, deadline, out.telemetry);
      if (result.converged && result.response <= Frac(deadline)) {
        best = std::move(result);
        assigned = m;
        break;
      }
      if (result.truncated || m == remaining) {
        best = std::move(result);
        if (best.truncated) break;
      }
    }
    admission.cores = assigned > 0 ? assigned : remaining;
    admission.schedulable = assigned > 0;
    admission.response = best.response;
    admission.iterations = best.iterations;
    admission.outcome = best.truncated ? util::Outcome::kBudgetExhausted
                                       : util::Outcome::kComplete;
    if (best.truncated) out.outcome = util::Outcome::kBudgetExhausted;
    for (std::size_t d = 0; d < best.per_device.size(); ++d) {
      if (q.volume[i][d] == 0 && best.per_device[d] == Frac()) continue;
      taskset::DeviceContention contention;
      contention.device = static_cast<graph::DeviceId>(d + 1);
      contention.own_volume = q.volume[i][d];
      contention.interference = best.per_device[d];
      contention.dominant_competitor = best.dominant[d];
      admission.devices.push_back(std::move(contention));
    }
    if (assigned > 0) {
      remaining -= assigned;
      out.cores_used += assigned;
    } else {
      out.schedulable = false;
    }
    out.tasks.push_back(std::move(admission));
  }
  return out;
}

}  // namespace hedra::testing::oracle
