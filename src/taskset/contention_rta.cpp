#include "taskset/contention_rta.h"

#include <algorithm>
#include <numeric>
#include <optional>

#include "analysis/platform_rta.h"
#include "graph/flat_dag.h"
#include "obs/metrics.h"
#include "util/fault.h"

namespace hedra::taskset {

namespace {

/// The tasks with work on one accelerator class, ascending by index, with
/// their precomputed per-job interference vol_{j,d}/(n_d·s_d) — the
/// innermost fixpoint loop multiplies those by integer job counts instead
/// of re-deriving the fraction every iteration.  A task's competitors on
/// the class are exactly these tasks minus itself, so the fixpoint walks
/// only them, never the whole set.
struct DeviceUsers {
  std::vector<std::size_t> tasks;
  std::vector<Frac> unit_volume;         ///< parallel to tasks
  std::vector<graph::Time> scaled_uv;    ///< unit_volume·B (integer path)
};

/// Per-set quantities shared by every fixpoint evaluation: the platform's
/// unit/speedup vectors, each task's per-device volumes and each class's
/// users.
struct SetQuantities {
  std::vector<int> units;                 ///< n_d, indexed d−1
  std::vector<Frac> speedups;             ///< s_d, indexed d−1
  std::size_t num_devices = 0;
  std::vector<graph::Time> volume;        ///< [task·num_devices + d−1]
  std::vector<DeviceUsers> users;         ///< indexed d−1

  // Integer-fixpoint precomputation (see fixpoint_int): every unit volume
  // as an integer at the common base scale B = lcm of their denominators,
  // plus __int128 magnitude bounds so each fixpoint call can clear the
  // overflow guard with a handful of multiplies instead of re-scanning.
  graph::Time base_scale = 0;  ///< B; 0 = unusable, take the Frac path
  __int128 step_weight = 0;  ///< Σ_{j,d} uv·B · n_jobs_max_j
  __int128 timing_max = 0;   ///< max_j max(D_j, T_j), and the set's D_max

  [[nodiscard]] graph::Time volume_of(std::size_t task,
                                      std::size_t d) const {
    return volume[task * num_devices + d];
  }
};

constexpr graph::Time kMaxScale = graph::Time{1} << 20;
// Headroom: one fixpoint step past the deadline must not overflow int64.
constexpr __int128 kMaxMagnitude = __int128{1} << 56;

/// vol_d(G) for every device d, written to out[0..num_devices), in one
/// pass over the nodes — from the arena view when the task is arena-backed
/// (the fig12 pipeline never materialises a Dag for this).
void task_volumes(const DagTask& task, std::size_t num_devices,
                  graph::Time* out) {
  std::fill(out, out + num_devices, graph::Time{0});
  const auto add = [&](graph::DeviceId device, graph::Time wcet) {
    if (device != graph::kHostDevice &&
        static_cast<std::size_t>(device) <= num_devices) {
      out[device - 1] += wcet;
    }
  };
  if (task.has_flat_view()) {
    const graph::FlatView view = task.flat_view();
    for (graph::NodeId v = 0; v < view.num_nodes(); ++v) {
      add(view.device(v), view.wcet(v));
    }
    return;
  }
  const graph::Dag& dag = task.dag();
  for (graph::NodeId v = 0; v < dag.num_nodes(); ++v) {
    add(dag.device(v), dag.wcet(v));
  }
}

/// The platform vectors of `set`, with room for its per-task volumes.
SetQuantities set_quantities(const TaskSet& set) {
  SetQuantities q;
  const Platform& platform = set.platform();
  q.num_devices = static_cast<std::size_t>(platform.num_devices());
  q.units.resize(q.num_devices);
  q.speedups.resize(q.num_devices, Frac(1));
  for (std::size_t d = 0; d < q.num_devices; ++d) {
    const auto device = static_cast<graph::DeviceId>(d + 1);
    q.units[d] = platform.units_of(device);
    q.speedups[d] = platform.speedup_of(device);
  }
  q.volume.resize(set.size() * q.num_devices);
  return q;
}

/// Fills the per-class user lists, their unit volumes, and the integer
/// fast path's base scale and magnitude bounds from q.volume.
void index_users(const TaskSet& set, SetQuantities& q) {
  q.users.assign(q.num_devices, DeviceUsers{});
  for (std::size_t d = 0; d < q.num_devices; ++d) {
    DeviceUsers& users = q.users[d];
    for (std::size_t j = 0; j < set.size(); ++j) {
      const graph::Time volume = q.volume_of(j, d);
      if (volume == 0) continue;
      // Dividing by a unit speedup is the identity on normalised rationals;
      // skipping it keeps the value (and every downstream comparison)
      // bit-identical while sparing the gcd work.
      Frac uv(volume, q.units[d]);
      if (q.speedups[d] != Frac(1)) uv = uv / q.speedups[d];
      users.tasks.push_back(j);
      users.unit_volume.push_back(uv);
    }
  }

  // Base scale and magnitude bounds for the integer fixpoint.  Job counts
  // are evaluated at windows that never exceed the analysed task's
  // deadline, so (D_max + D_j)/T_j + 1 bounds n_jobs_j for every task in
  // the set.  A class's non-users have zero unit volume (denominator 1,
  // zero weight), so only users enter the scale and the step weight.
  graph::Time base = 1;
  for (const DeviceUsers& users : q.users) {
    for (const Frac& uv : users.unit_volume) {
      base = std::lcm(base, uv.den());
      if (base > kMaxScale) return;  // base_scale stays 0: Frac path only
    }
  }
  graph::Time d_max = 0;
  for (const DagTask& task : set) {
    d_max = std::max(d_max, task.deadline());
    q.timing_max = std::max(q.timing_max, __int128{task.deadline()});
    q.timing_max = std::max(q.timing_max, __int128{task.period()});
  }
  for (DeviceUsers& users : q.users) {
    users.scaled_uv.resize(users.tasks.size());
    for (std::size_t k = 0; k < users.tasks.size(); ++k) {
      const DagTask& task = set[users.tasks[k]];
      const __int128 n_jobs_max =
          (__int128{d_max} + task.deadline()) / task.period() + 1;
      const Frac& uv = users.unit_volume[k];
      users.scaled_uv[k] = uv.num() * (base / uv.den());
      q.step_weight += __int128{users.scaled_uv[k]} * n_jobs_max;
    }
  }
  q.base_scale = base;
}

/// floor((L + D_j)/T_j) + 1 — jobs of τ_j whose execution can overlap a
/// window of length L, given τ_j meets its deadline.
graph::Time carry_in_jobs(const Frac& window, const DagTask& competitor) {
  return (window + Frac(competitor.deadline())).floor() /
             competitor.period() +
         1;
}

struct FixpointResult {
  Frac response;
  bool converged = false;
  /// True when the iteration was cut short — by the kMaxIterations guard or
  /// by the caller's budget — rather than converging or provably crossing
  /// the deadline.  Distinct from plain rejection: the verdict is
  /// "truncated", not "infeasible" (Outcome::kBudgetExhausted upstream).
  bool truncated = false;
  int iterations = 0;
  std::vector<Frac> per_device;          ///< interference per class, d−1
  std::vector<std::size_t> dominant;     ///< dominant competitor per class
};

constexpr int kMaxIterations = 1000;

/// Iterates R ← seed + I(R) from R = seed until stable or past `deadline`,
/// where I(R) = Σ_d Σ_{j≠i} n_jobs_j(R)·vol_{j,d}/(n_d·s_d) over the
/// classes task `index` uses and their other users.  The right-hand side
/// is non-decreasing in R, so the sequence is monotone; a generous
/// iteration cap guards against pathological slow convergence.
FixpointResult fixpoint_frac(const TaskSet& set, const SetQuantities& q,
                             std::size_t index, const Frac& seed,
                             graph::Time deadline, util::Budget* budget) {
  FixpointResult out;
  out.per_device.assign(q.num_devices, Frac());
  out.dominant.assign(q.num_devices, index);
  Frac response = seed;
  for (int k = 1; k <= kMaxIterations; ++k) {
    HEDRA_FAULT("taskset.rta.iteration");
    if (budget != nullptr && !budget->consume()) {
      out.truncated = true;  // budget cut mid-fixpoint: sound partial only
      out.response = response;
      return out;
    }
    out.iterations = k;
    Frac total;
    for (std::size_t d = 0; d < q.num_devices; ++d) {
      if (q.volume_of(index, d) == 0) continue;  // task never touches d
      const DeviceUsers& users = q.users[d];
      Frac device_total;
      Frac best;
      std::size_t best_task = index;
      for (std::size_t u = 0; u < users.tasks.size(); ++u) {
        const std::size_t j = users.tasks[u];
        if (j == index) continue;
        const Frac contribution =
            Frac(carry_in_jobs(response, set[j])) * users.unit_volume[u];
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
      return out;  // crossed the deadline; diverging
    }
  }
  out.response = response;
  out.truncated = true;  // iteration cap: truncated, NOT proven infeasible
  return out;
}

/// Every rational the fixpoint touches has a denominator dividing
/// L = lcm(seed.den, all unit-volume denominators), so when L is small and
/// the magnitudes leave int64 headroom the whole iteration runs on
/// L-scaled integers — same sequence of values, same convergence step,
/// same dominant-competitor ties (scaled comparisons preserve order), with
/// every gcd normalisation replaced by integer adds and multiplies.  The
/// Monte-Carlo sweeps (unit speedups, n_d <= a few) always take this path;
/// exotic platforms fall back to the Frac loop above.
///
/// L = B·f with B the precomputed base scale and f = seed.den/gcd(B,
/// seed.den): the stored base-scaled unit volumes reach scale L with one
/// multiply by f per term, so nothing is allocated or re-derived per call.
FixpointResult fixpoint_int(const TaskSet& set, const SetQuantities& q,
                            graph::Time L, graph::Time f, std::size_t index,
                            const Frac& seed, graph::Time deadline,
                            util::Budget* budget) {
  using graph::Time;
  const Time seed_scaled = seed.num() * (L / seed.den());
  const Time deadline_scaled = deadline * L;
  const std::size_t num_devices = q.num_devices;

  FixpointResult out;
  out.dominant.assign(num_devices, index);
  thread_local std::vector<Time> per_device;
  per_device.assign(num_devices, 0);

  Time response = seed_scaled;
  bool crossed = false;
  for (int k = 1; k <= kMaxIterations; ++k) {
    HEDRA_FAULT("taskset.rta.iteration");
    if (budget != nullptr && !budget->consume()) {
      out.truncated = true;  // budget cut mid-fixpoint: sound partial only
      break;
    }
    out.iterations = k;
    Time total = 0;
    for (std::size_t d = 0; d < num_devices; ++d) {
      if (q.volume_of(index, d) == 0) continue;
      const DeviceUsers& users = q.users[d];
      Time device_total = 0;
      Time best = 0;
      std::size_t best_task = index;
      for (std::size_t u = 0; u < users.tasks.size(); ++u) {
        const std::size_t j = users.tasks[u];
        if (j == index) continue;
        // n_jobs_j = floor((R + D_j)/T_j) + 1 on L-scaled integers.
        const Time n_jobs =
            (response + set[j].deadline() * L) / (set[j].period() * L) + 1;
        const Time contribution = n_jobs * users.scaled_uv[u] * f;
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
      break;  // crossed the deadline; diverging
    }
  }
  // Ran the cap down without converging or provably crossing the deadline:
  // the verdict is "truncated", exactly as in the Frac path.
  if (!out.converged && !crossed) out.truncated = true;
  out.response = Frac(response, L);
  out.per_device.resize(num_devices);
  for (std::size_t d = 0; d < num_devices; ++d) {
    out.per_device[d] = Frac(per_device[d], L);
  }
  return out;
}

/// Dispatches to the integer fast path when safe, recording which engine
/// ran and what it cost into `telemetry`.  Counters only — the dispatch
/// decision and the returned values are untouched.
FixpointResult fixpoint(const TaskSet& set, const SetQuantities& q,
                        std::size_t index, const Frac& seed,
                        graph::Time deadline, util::Budget* budget,
                        FixpointTelemetry& telemetry) {
  bool int_path = false;
  std::optional<FixpointResult> result;
  if (q.base_scale > 0) {
    // L = lcm(B, seed.den) = B·f; seed.den divides L by construction.
    const graph::Time f =
        seed.den() / std::gcd(q.base_scale, seed.den());
    const graph::Time L = q.base_scale * f;
    if (L <= kMaxScale) {
      const __int128 seed_scaled =
          __int128{seed.num()} * (L / seed.den());
      if (seed_scaled >= 0 &&
          seed_scaled + __int128{f} * q.step_weight <= kMaxMagnitude &&
          q.timing_max * L <= kMaxMagnitude) {
        int_path = true;
        result = fixpoint_int(set, q, L, f, index, seed, deadline, budget);
      }
    }
  }
  if (!result) {
    result = fixpoint_frac(set, q, index, seed, deadline, budget);
  }
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

/// Per-task isolated platform bound R(m): the task's quantities, measured
/// once over its CSR view — the arena slice of an arena-backed task, or a
/// snapshot taken once of an eager task's graph — then platform_bound per
/// m.  Lives for one task's partition loop only; what outlives it is the
/// seeds it produced (AnalysisMemo), never the view.
class SeedBound {
 public:
  SeedBound(const DagTask& task, const SetQuantities& q) : q_(q) {
    if (task.has_flat_view()) {
      view_ = task.flat_view();
    } else {
      view_ = snapshot_.emplace(task.dag()).view();
    }
    quantities_ = analysis::platform_quantities(view_);
  }
  SeedBound(const SeedBound&) = delete;  // `view_` may point into `snapshot_`
  SeedBound& operator=(const SeedBound&) = delete;

  [[nodiscard]] Frac operator()(int m) const {
    return analysis::platform_bound(quantities_, view_, m, q_.units,
                                    q_.speedups);
  }

 private:
  const SetQuantities& q_;
  std::optional<graph::FlatDag> snapshot_;  ///< eager tasks only
  graph::FlatView view_;
  analysis::PlatformQuantities quantities_;
};

/// Task `index`'s verdict on at most `remaining` cores: the smallest m
/// whose fixpoint meets the deadline.  Seeds come from `cached` (R(1..),
/// nullable) where it reaches and are evaluated — and appended to
/// `fresh` — past it.
TaskAdmission solve_task(const TaskSet& set, const SetQuantities& q,
                         std::size_t index, int remaining,
                         const std::vector<Frac>* cached,
                         std::vector<Frac>& fresh, util::Budget* budget,
                         FixpointTelemetry& telemetry) {
  const graph::Time deadline = set[index].deadline();
  const std::size_t num_cached = cached == nullptr ? 0 : cached->size();
  std::optional<SeedBound> seed_bound;  // built on the first evaluation
  FixpointResult best;
  int assigned = 0;
  // The seed bound is non-increasing in m_i, so the first feasible core
  // count is the smallest one; every evaluation reuses the per-task
  // quantities (the chain walk is the only per-m work).
  for (int m = 1; m <= remaining; ++m) {
    Frac seed;
    if (static_cast<std::size_t>(m) <= num_cached) {
      seed = (*cached)[static_cast<std::size_t>(m) - 1];
    } else {
      // One unit per seed-bound evaluation (the chain walk), on top of the
      // per-iteration units the fixpoint itself consumes.  On exhaustion
      // the remaining trials are skipped and the task is reported
      // truncated-unschedulable — under-admission, never over-admission.
      if (budget != nullptr && !budget->consume()) {
        best.truncated = true;
        break;
      }
      if (!seed_bound) seed_bound.emplace(set[index], q);
      seed = (*seed_bound)(m);
      fresh.push_back(seed);
      ++telemetry.seed_evals;
    }
    FixpointResult result =
        fixpoint(set, q, index, seed, deadline, budget, telemetry);
    if (result.converged && result.response <= Frac(deadline)) {
      best = std::move(result);
      assigned = m;
      break;
    }
    if (result.truncated || m == remaining) {
      best = std::move(result);  // best effort to report
      if (best.truncated) break;  // budget gone: stop trying core counts
    }
  }

  TaskAdmission admission;
  admission.name = set[index].name();
  admission.cores = assigned > 0 ? assigned : remaining;
  admission.schedulable = assigned > 0;
  admission.response = best.response;
  admission.iterations = best.iterations;
  admission.outcome = best.truncated ? util::Outcome::kBudgetExhausted
                                     : util::Outcome::kComplete;
  // With zero cores left the fixpoint never ran, so there is no per-device
  // breakdown to report.
  for (std::size_t d = 0; d < best.per_device.size(); ++d) {
    if (q.volume_of(index, d) == 0 && best.per_device[d] == Frac()) continue;
    DeviceContention contention;
    contention.device = static_cast<graph::DeviceId>(d + 1);
    contention.own_volume = q.volume_of(index, d);
    contention.interference = best.per_device[d];
    contention.dominant_competitor = best.dominant[d];
    admission.devices.push_back(std::move(contention));
  }
  return admission;
}

/// The one analysis engine: the partition loop over `set`, reusing
/// `prior`'s verdicts where exact (see the file comment of the header) and
/// recording the next memo into `memo` (nullable: from-scratch callers
/// that keep no state skip the bookkeeping).
ContentionAnalysis analyse(const TaskSet& set, const PriorAnalysis* prior,
                           AnalysisMemo* memo, util::Budget* budget) {
  HEDRA_REQUIRE(!set.empty(), "contention_rta needs a non-empty task set");
  constexpr std::size_t kNone = PriorAnalysis::kAppended;
  const std::size_t n = set.size();
  SetQuantities q = set_quantities(set);
  const std::size_t num_devices = q.num_devices;

  // Where each task's previous verdict and memo entry sit in the previous
  // set: an appended task is the only new one; a departure shifts the
  // tasks behind it up one place.
  std::size_t removed = kNone;
  if (prior != nullptr) {
    const std::size_t prior_size = prior->analysis.tasks.size();
    removed = prior->removed;
    HEDRA_REQUIRE(prior->memo.seeds.size() == prior_size &&
                      prior->memo.volume.size() == prior_size * num_devices &&
                      (prior_size == 0 ||
                       prior->memo.num_devices == num_devices),
                  "analysis memo does not match its analysis");
    HEDRA_REQUIRE(removed == kNone ? n == prior_size + 1
                                   : removed < prior_size &&
                                         n + 1 == prior_size,
                  "task set does not match the previous analysis and edit");
  }
  const auto prior_index = [&](std::size_t i) -> std::size_t {
    if (prior == nullptr) return kNone;
    if (removed == kNone) return i + 1 < n ? i : kNone;
    return i < removed ? i : i + 1;
  };

  // Volumes: carried over for known tasks, measured for the new one.  The
  // classes the edited task uses are the ones whose competitor sets
  // changed.
  std::vector<char> touched(num_devices, 0);
  for (std::size_t i = 0; i < n; ++i) {
    graph::Time* volume = q.volume.data() + i * num_devices;
    const std::size_t p = prior_index(i);
    if (p == kNone) {
      task_volumes(set[i], num_devices, volume);
    } else {
      std::copy_n(prior->memo.volume.begin() +
                      static_cast<std::ptrdiff_t>(p * num_devices),
                  num_devices, volume);
    }
  }
  if (prior != nullptr) {
    const graph::Time* edited =
        removed == kNone
            ? q.volume.data() + (n - 1) * num_devices
            : prior->memo.volume.data() + removed * num_devices;
    for (std::size_t d = 0; d < num_devices; ++d) touched[d] = edited[d] > 0;
  }
  index_users(set, q);

  ContentionAnalysis out;
  out.schedulable = true;
  out.tasks.reserve(n);
  if (memo != nullptr) memo->seeds.assign(n, nullptr);
  int remaining = set.platform().cores;
  std::vector<Frac> fresh;
  const std::shared_ptr<const std::vector<Frac>> no_seeds;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t p = prior_index(i);
    // By reference: a handle is copied only into the next memo.
    const std::shared_ptr<const std::vector<Frac>>& cached =
        p == kNone ? no_seeds : prior->memo.seeds[p];
    bool competitors_changed = false;
    for (std::size_t d = 0; d < num_devices; ++d) {
      competitors_changed =
          competitors_changed || (touched[d] && q.volume_of(i, d) > 0);
    }
    if (p != kNone && !competitors_changed) {
      const TaskAdmission& last = prior->analysis.tasks[p];
      if (last.schedulable && last.outcome == util::Outcome::kComplete &&
          last.cores <= remaining) {
        TaskAdmission admission = last;
        if (removed != kNone) {
          // Indices behind the departed task moved up one place.  A reused
          // task never names the departed task: it shared no class with it.
          for (DeviceContention& device : admission.devices) {
            if (device.dominant_competitor > removed) {
              --device.dominant_competitor;
            }
          }
        }
        remaining -= admission.cores;
        out.cores_used += admission.cores;
        ++out.telemetry.reused;
        if (memo != nullptr) memo->seeds[i] = cached;
        out.tasks.push_back(std::move(admission));
        continue;
      }
    }

    fresh.clear();
    TaskAdmission admission =
        solve_task(set, q, i, remaining, cached.get(), fresh, budget,
                   out.telemetry);
    if (admission.outcome == util::Outcome::kBudgetExhausted) {
      out.outcome = util::Outcome::kBudgetExhausted;
    }
    if (admission.schedulable) {
      remaining -= admission.cores;
      out.cores_used += admission.cores;
    } else {
      out.schedulable = false;
    }
    if (memo != nullptr) {
      if (fresh.empty()) {
        memo->seeds[i] = cached;
      } else {
        auto seeds = std::make_shared<std::vector<Frac>>();
        if (cached != nullptr) *seeds = *cached;
        seeds->insert(seeds->end(), fresh.begin(), fresh.end());
        memo->seeds[i] = std::move(seeds);
      }
    }
    out.tasks.push_back(std::move(admission));
  }
  if (memo != nullptr) {
    memo->num_devices = num_devices;
    memo->volume = std::move(q.volume);
  }

  // One flush per analysis: the hot loops above touch only the plain
  // locals in out.telemetry; the registry sees the totals here.
  HEDRA_METRIC("taskset.rta.analyses");
  HEDRA_METRIC_ADD("taskset.rta.fixpoint_solves",
                   out.telemetry.fixpoint_solves);
  HEDRA_METRIC_ADD("taskset.rta.int_path", out.telemetry.int_path);
  HEDRA_METRIC_ADD("taskset.rta.frac_path", out.telemetry.frac_path);
  HEDRA_METRIC_ADD("taskset.rta.iterations", out.telemetry.iterations);
  HEDRA_METRIC_ADD("taskset.rta.seed_evals", out.telemetry.seed_evals);
  HEDRA_METRIC_ADD("taskset.rta.truncated", out.telemetry.truncated);
  HEDRA_METRIC_ADD("taskset.rta.reused", out.telemetry.reused);
  return out;
}

}  // namespace

ContentionAnalysis contention_rta(const TaskSet& set, util::Budget* budget) {
  HEDRA_REQUIRE(!set.empty(), "contention_rta needs a non-empty task set");
  set.validate();
  return analyse(set, nullptr, nullptr, budget);
}

ContentionAnalysis contention_rta_update(const TaskSet& set,
                                         const PriorAnalysis* prior,
                                         AnalysisMemo* memo,
                                         util::Budget* budget) {
  HEDRA_REQUIRE(memo != nullptr, "contention_rta_update needs a memo");
  HEDRA_REQUIRE(prior == nullptr || memo != &prior->memo,
                "the new memo must not alias the previous one");
  return analyse(set, prior, memo, budget);
}

}  // namespace hedra::taskset
