#pragma once

/// \file contention_rta.h
/// Federated-style admission test for sporadic DAG task sets whose offload
/// nodes CONTEND for shared accelerator classes.
///
/// The single-task platform bound (analysis/platform_rta.h) already accounts
/// for a task's own device serialisation:
///
///   R_i(m_i) <= vol_host_i/m_i + Σ_d vol_{i,d}/(n_d·s_d)
///             + max_P Σ_{v∈P} w_v   (the weighted chain walk).
///
/// On a shared platform, device d additionally executes work of the OTHER
/// tasks while τ_i's job is pending: in any window of length L, a competing
/// sporadic task τ_j (with constrained deadline D_j <= T_j and a response
/// bound <= D_j) has at most  n_jobs_j(L) = floor((L + D_j)/T_j) + 1  jobs
/// whose execution overlaps the window — the classic carry-in argument of
/// the sporadic-DAG interference literature (Dong & Liu, arXiv:1808.00017;
/// Dinh et al., arXiv:1905.05119).  Each such job places at most vol_{j,d}
/// device-d ticks on the class's n_d units, so the device-saturated waiting
/// of the Graham chain argument grows by  Σ_{j≠i} n_jobs_j(L)·vol_{j,d} /
/// (n_d·s_d),  and the response bound becomes the least fixpoint of
///
///   R = R_i(m_i) + Σ_d Σ_{j≠i} (floor((R + D_j)/T_j) + 1)·vol_{j,d}
///                             / (n_d·s_d) ,
///
/// iterated in EXACT rational arithmetic from R = R_i(m_i).  The right-hand
/// side is non-decreasing in R, so the iteration either reaches a fixpoint
/// or crosses D_i (unschedulable at this core count).  A task with no
/// device-sharing competitors — in particular any SINGLE-task set — takes
/// zero iterations past the seed, so its bound equals
/// analysis::platform_bound with exact rational equality (regression-
/// pinned; the acceptance criterion of this subsystem).
///
/// Host cores are PARTITIONED, federated-style: tasks are processed in
/// index order (the priority order), each receiving the smallest dedicated
/// m_i <= remaining cores whose fixpoint meets D_i — the seed bound is
/// non-increasing in m_i (vol_host/m shrinks faster than the chain term
/// grows, exactly as in the single-task bound), so the smallest feasible
/// m_i wastes no cores on later tasks.  Devices are NOT partitioned; they
/// are exactly the contention the fixpoint charges for.  The set is
/// admitted iff every task gets a feasible allocation within the m cores.
///
/// Incremental re-analysis.  Task i's verdict depends only on its seeds
/// R_i(m), the (D_j, T_j, vol_{j,d}) of the tasks sharing one of its device
/// classes, and the cores left when its turn comes.  contention_rta_update
/// therefore re-solves, after one ADMIT (a task appended last) or one LEAVE,
/// only the tasks that edit can change, and carries every other verdict
/// over from the previous analysis.  Task i's previous verdict is reused
/// iff (a) the edited task shares none of i's device classes, so i's
/// competitor set is unchanged, and (b) i was schedulable at m_i and
/// m_i <= the cores left before it now.  The rule is exact: the fixpoint
/// at m reads nothing else, and the partition loop stops at the first
/// feasible m, whose trials 1..m_i all replay identically.  Every other
/// task is re-solved from its cached seeds; a seed is evaluated only for a
/// core count the task has never tried.  contention_rta(set) is the same
/// engine with no previous analysis.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "taskset/taskset.h"
#include "util/deadline.h"
#include "util/fraction.h"

namespace hedra::taskset {

/// One shared accelerator class's contribution to a task's inflated bound.
struct DeviceContention {
  graph::DeviceId device = 0;     ///< device id (>= 1)
  graph::Time own_volume = 0;     ///< vol_{i,d}, the task's own device work
  /// Σ_{j≠i} n_jobs_j(R)·vol_{j,d}/(n_d·s_d) at the fixpoint — the
  /// carry-in interference other tasks add on this class.
  Frac interference;
  /// Index of the competitor contributing most to `interference`
  /// (meaningless when interference is zero).
  std::size_t dominant_competitor = 0;
};

/// Per-task outcome of the admission test.
struct TaskAdmission {
  std::string name;
  int cores = 0;        ///< dedicated host cores m_i (0: none left to try)
  bool schedulable = false;
  /// Inflated response bound at `cores` (the fixpoint when schedulable;
  /// the first value crossing the deadline otherwise; zero when cores==0).
  Frac response;
  int iterations = 0;   ///< fixpoint iterations taken (1 = no contention)
  /// kComplete when the verdict is mathematically final.  kBudgetExhausted
  /// when the reported fixpoint was TRUNCATED — by the iteration guard or
  /// by a caller-supplied budget — so "not schedulable" means "not PROVEN
  /// schedulable within budget", never a proof of infeasibility.  A
  /// truncated task is always reported unschedulable (fail closed).
  util::Outcome outcome = util::Outcome::kComplete;
  std::vector<DeviceContention> devices;  ///< classes with shared work only
};

/// Fixpoint-engine telemetry for one whole-set analysis.  Plain local
/// counters on the analysis path — no atomics, no locks, no clock reads —
/// so recording never perturbs the iteration sequence or the verdict
/// (analysis output is bit-identical with telemetry compiled in).
struct FixpointTelemetry {
  std::uint64_t fixpoint_solves = 0;  ///< (task, core-count) fixpoints run
  /// Which arithmetic engine each solve took: the L-scaled integer fast
  /// path vs the exact-rational fallback (see fixpoint_int's contract —
  /// both produce bit-identical value sequences).
  std::uint64_t int_path = 0;
  std::uint64_t frac_path = 0;
  std::uint64_t iterations = 0;       ///< fixpoint iterations, all solves
  std::uint64_t seed_evals = 0;       ///< seed-bound (chain-walk) evaluations
  std::uint64_t truncated = 0;        ///< solves cut by budget or the cap
  /// Tasks whose previous verdict was carried over without any solve (the
  /// reuse rule of contention_rta_update); 0 for a from-scratch analysis.
  std::uint64_t reused = 0;
};

/// Whole-set verdict.
struct ContentionAnalysis {
  bool schedulable = false;
  int cores_used = 0;   ///< Σ m_i over schedulable tasks
  /// kBudgetExhausted iff any task's verdict was budget-truncated; such an
  /// analysis never reports schedulable == true (fail closed).
  util::Outcome outcome = util::Outcome::kComplete;
  std::vector<TaskAdmission> tasks;
  FixpointTelemetry telemetry;  ///< where the analysis work went
};

/// Scalars one analysis leaves behind so the next analysis of an edited
/// set can skip what the edit did not touch.  Never an AnalysisCache or a
/// FlatDag: a seed the memo lacks is re-derived from the task's graph.
/// Immutable once built, like the snapshot that holds it.
struct AnalysisMemo {
  std::size_t num_devices = 0;  ///< K of the platform analysed
  /// vol_{i,d} of task i on device d, at [i·num_devices + d−1].
  std::vector<graph::Time> volume;
  /// Seed bounds R_i(m) for m = 1..seeds[i]->size(): every core count
  /// evaluated for task i so far (null = none).  Shared between successive
  /// memos; an entry is replaced only when its task evaluates a new count.
  std::vector<std::shared_ptr<const std::vector<Frac>>> seeds;
};

/// The previous analysis an update may reuse, and the one edit since.
struct PriorAnalysis {
  static constexpr std::size_t kAppended = static_cast<std::size_t>(-1);
  const ContentionAnalysis& analysis;  ///< of the previous set
  const AnalysisMemo& memo;            ///< left by that analysis
  /// Index, in the previous set, of the task that left; kAppended when one
  /// task joined at the end of the set instead.
  std::size_t removed = kAppended;
};

/// Runs the admission test.  Requires a validated, non-empty set.
///
/// `budget` (nullable = unlimited) is consumed cooperatively — one unit per
/// fixpoint iteration and per seed-bound evaluation.  On exhaustion the
/// remaining work is SKIPPED and every affected task reports
/// Outcome::kBudgetExhausted with schedulable == false: a budget-cut
/// analysis can under-admit, never over-admit.
[[nodiscard]] ContentionAnalysis contention_rta(const TaskSet& set,
                                                util::Budget* budget = nullptr);

/// The same test, reusing `prior` (nullable = none: every task is solved,
/// exactly as contention_rta) under the reuse rule in the file comment,
/// and writing the state the next update needs into `*memo`.
///
/// Requires a non-empty `set` that is `prior`'s set with its one edit
/// applied; tasks the previous set already held are not re-validated, so
/// an appended task must have passed TaskSet::validate_task.  `prior`
/// must be a complete analysis; `memo` must not alias `prior->memo`.
/// `budget` is charged only for the seed evaluations and fixpoint
/// iterations this call actually runs: a reused verdict costs nothing.
[[nodiscard]] ContentionAnalysis contention_rta_update(
    const TaskSet& set, const PriorAnalysis* prior, AnalysisMemo* memo,
    util::Budget* budget = nullptr);

}  // namespace hedra::taskset
