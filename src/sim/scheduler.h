#pragma once

/// \file scheduler.h
/// Deterministic discrete-event simulation of a work-conserving scheduler on
/// host cores plus accelerator devices — hedra's one simulator.  It runs
/// jobs of one or more DAG tasks: each task's host nodes run on that task's
/// own pool of cores, and each accelerator device d's nodes share one FIFO
/// served by its n_d units.  The single-DAG entry points (simulate,
/// simulated_makespan, simulate_with_times) run one job released at 0 on
/// one pool of m cores; taskset::simulate_taskset runs periodic releases of
/// a whole task set on per-task pools (run_jobs below).
///
/// The paper's Figure 6 simulates "the work-conserving breadth-first
/// scheduler implemented in GOMP": ready tasks enter a FIFO queue in the
/// order they become ready and free cores always take the head.  That is
/// Policy::kBreadthFirst.  Alternative ready-queue policies are provided for
/// the ablation bench — every one of them is work-conserving, so all of them
/// must respect the analytical bounds (a property test enforces this).
///
/// Semantics:
///  - host nodes execute non-preemptively on any free core of their task's
///    pool, smallest free core index first;
///  - offloaded nodes execute on one of their own device's n_d units, FIFO
///    per device across every task's jobs and smallest free unit index
///    first — devices never steal each other's work;
///  - zero-WCET host-side nodes (v_sync, dummies) complete instantly,
///    occupying no unit — they are pure synchronisation points.  Zero-WCET
///    nodes PLACED ON AN ACCELERATOR are real device work: they queue for a
///    unit like any offload (a regression test pins this);
///  - the scheduler is work-conserving: a free unit never idles while a
///    compatible node is ready.
///
/// Ready order (what makes every run, and every golden trace, exact):
///  - completions at the same instant retire in (task, job, node) order;
///  - a node is filed into its device's FIFO or its task's ready set the
///    moment it becomes ready: each retirement files its successors in CSR
///    order, then each release at that instant files its roots in
///    ascending id;
///  - zero-WCET host nodes retire after that, in the order they became
///    ready, filing their own successors the same way.  Together this is
///    one FIFO of newly ready nodes in which a zero-WCET host node retires
///    when the FIFO reaches it;
///  - devices dispatch before host cores, in ascending device and task
///    order, so trace intervals come out in that order.
/// The ready set is policy-indexed (FIFO, LIFO, a heap, or the seeded
/// random pick) so every pick is O(log ready), and the working state lives
/// in per-thread scratch, so only its capacity carries over between runs.

#include <cstdint>
#include <span>

#include "graph/flat_view.h"
#include "sim/trace.h"
#include "util/deadline.h"
#include "util/rng.h"

namespace hedra::sim {

/// Ready-queue ordering for host cores.
enum class Policy : std::uint8_t {
  kBreadthFirst,      ///< FIFO by ready time (GOMP; the paper's scheduler)
  kDepthFirst,        ///< LIFO by ready time (work-first stealing flavour)
  kCriticalPathFirst, ///< longest remaining path (down(v)) first
  kIndexOrder,        ///< smallest node id first
  kRandom,            ///< uniformly random ready node (seeded)
};

[[nodiscard]] const char* to_string(Policy policy) noexcept;

/// Every ready-queue policy, in declaration order — the ablation bench and
/// the soundness property tests sweep all of them.
[[nodiscard]] const std::vector<Policy>& all_policies() noexcept;

/// Simulation configuration.
struct SimConfig {
  int cores = 2;                  ///< m
  Policy policy = Policy::kBreadthFirst;
  std::uint64_t seed = 1;         ///< used by Policy::kRandom only
  /// Execution units per accelerator device: index d−1 holds n_d for device
  /// d.  Devices beyond the vector — including the default empty vector —
  /// get one unit each, the paper's platform.  Free units of a device are
  /// assigned smallest-index-first, so single-unit runs are byte-identical
  /// to the historical busy-flag simulator (golden-pinned).
  std::vector<int> device_units;
  /// Re-validate the produced trace against the DAG (precedence, unit
  /// capacity, placement).  Defaults on — any violation is a hedra bug and
  /// throws — but costs O(n log n + E) per run, so the Monte-Carlo sweep
  /// call sites (fig10, the ablation bench, B&B heuristic seeding) switch
  /// it off; the property/golden tests keep it on.
  bool validate = true;
};

/// Number of trace validations simulations have performed in this process —
/// a test hook so the `validate` flag's honouring is observable.
[[nodiscard]] std::uint64_t validation_runs() noexcept;

/// Simulates one complete execution of the DAG (every node at its WCET) and
/// returns the trace, validated when `config.validate` is set.  Throws if
/// the DAG is cyclic or the trace fails validation (which would be a hedra
/// bug).
[[nodiscard]] ScheduleTrace simulate(const Dag& dag, const SimConfig& config);

/// Same simulation over a prebuilt CSR view, which must be Dag-backed
/// (view.source() != nullptr: the trace is recorded against it) — a
/// 5-policy × 4-m sweep snapshots the DAG once and reuses it for all 20
/// runs.
[[nodiscard]] ScheduleTrace simulate(const graph::FlatView& view,
                                     const SimConfig& config);

/// Convenience: makespan of simulate().
[[nodiscard]] Time simulated_makespan(const Dag& dag, const SimConfig& config);

/// Makespan over a non-owning CSR view — the Monte-Carlo batch hot path.
/// With `config.validate` off (the sweep setting) the run records no trace
/// at all: no interval storage, no ScheduleTrace, just a running max over
/// finish times; scheduling decisions are identical to simulate(), so the
/// returned makespan equals simulate(...).makespan() exactly.  With
/// `config.validate` on the view must be Dag-backed (view.source() !=
/// nullptr) and the call takes the recording path so the flag is honoured.
[[nodiscard]] Time simulated_makespan(const graph::FlatView& view,
                                      const SimConfig& config);

/// Simulates with *actual* execution times (one per node, each in
/// [0, WCET]).  WCETs are upper bounds; real executions finish early, and
/// non-preemptive multiprocessor scheduling is prone to timing anomalies
/// (Graham): locally finishing early can globally lengthen the schedule.
/// The property tests use this entry point to confirm that the paper's
/// bounds — computed from WCETs — dominate every early-completion execution
/// as well.  Throws if any actual time is negative or exceeds the WCET.
[[nodiscard]] ScheduleTrace simulate_with_times(
    const graph::FlatView& view, const SimConfig& config,
    const std::vector<Time>& actual_times);

/// One job of a run_jobs call: an instance of task `task`'s graph whose
/// roots become ready at `time`.
struct Release {
  Time time = 0;
  std::uint32_t task = 0;
};

/// Everything run_jobs simulates.  Jobs are identified by their index in
/// `releases`, which lists them task by task (ascending task, each task's
/// jobs in release order), so job order is (task, job) order.
struct JobSet {
  std::span<const graph::FlatView> graphs;  ///< one non-empty graph per task
  std::span<const int> cores;               ///< host pool per task, >= 1
  /// Units n_d of device d at index d−1; devices beyond the span get one.
  std::span<const int> device_units;
  std::span<const Release> releases;
  Policy policy = Policy::kBreadthFirst;
  std::uint64_t seed = 1;  ///< used by Policy::kRandom only
  /// Polled every 256 event rounds; on expiry the run stops at an event
  /// boundary, so every finished job keeps its exact finish time.
  util::Deadline deadline;
  /// One-task runs only: per-node execution times (each in [0, WCET]);
  /// empty runs every node at its WCET.
  std::span<const Time> actual;
  /// One-task runs only: when set, receives every interval in
  /// scheduling-decision order.
  ScheduleTrace* trace = nullptr;
};

/// finish[k] of a job the deadline cut before it completed.
inline constexpr Time kUnfinished = -1;

/// Runs the jobs of `jobs` on the shared event loop.  Writes job k's
/// completion time into finish[k] (kUnfinished if the deadline cut it) and
/// returns the number of unfinished jobs.  Throws hedra::Error on
/// malformed input; fault site `sim.event` is crossed once per event round.
[[nodiscard]] std::size_t run_jobs(const JobSet& jobs, std::span<Time> finish);

}  // namespace hedra::sim
