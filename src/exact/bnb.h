#pragma once

/// \file bnb.h
/// Exact minimum-makespan solver for a heterogeneous DAG task on m identical
/// host cores plus one accelerator device — hedra's substitute for the
/// paper's CPLEX ILP (§5: "an ILP formulation that computes the minimum time
/// interval needed to execute a given heterogeneous DAG task on m cores and
/// one accelerator device").  Both compute the same quantity; see DESIGN.md.
///
/// Method: depth-first branch-and-bound over *left-shifted* schedules: every
/// job starts at time 0 or at a completion event.  At each event time the
/// solver branches on starting any eligible ready job (host jobs on free
/// cores, offload jobs on the free accelerator) or on deliberately delaying
/// the remaining ready jobs to the next completion.  The delay branch is
/// required for exactness: non-delay (greedy) schedules are NOT always
/// optimal for P|prec|Cmax — see the regression test with the classic
/// counterexample.  Identical host cores are never distinguished, and
/// simultaneous starts are generated in canonical order only.
///
/// Dominance rules (proved safe in comments):
///  - with a single offload node, v_off starts the moment it is ready (the
///    accelerator has no other user, so left-shifting v_off never hurts);
///  - pruning by max(path bound, host area bound, accelerator area bound).
///
/// The search is budgeted (node count + wall clock).  On exhaustion the best
/// schedule found so far is returned with proven_optimal = false; the
/// figure-7 harness reports the fraction of instances proven optimal.
///
/// Parallel mode (`BnbConfig::jobs > 1`): the root expands breadth-first
/// into a frontier of independent subtree tasks, workers drain per-worker
/// deques (stealing the shallowest pending subtree from a victim when their
/// own runs dry), and the incumbent upper bound is a shared atomic that
/// every worker prunes against and CAS-updates.  Proven-optimal makespans
/// are exactly the sequential ones (see DESIGN.md for the safety argument);
/// `nodes_explored` and any budget-truncated (unproven) makespan may vary
/// run to run.  `jobs == 1` is the deterministic mode: the sequential DFS,
/// bit-identical to the historical solver and the committed goldens.

#include <cstdint>
#include <vector>

#include "graph/dag.h"
#include "util/deadline.h"

namespace hedra::exact {

/// Search budget and options.
struct BnbConfig {
  std::uint64_t max_nodes = 20'000'000;  ///< decision nodes before giving up
  // hedra-lint: allow(float-in-bound, wall-clock budget knob, never a bound)
  double time_limit_sec = 10.0;          ///< wall-clock budget per instance
  /// External deadline (e.g. a per-request admission deadline) intersected
  /// with time_limit_sec: the search stops at whichever expires first.  The
  /// default never expires, so batch callers see no behaviour change.
  util::Deadline deadline;
  /// Worker threads for the subtree search.  1 (the default) is the
  /// deterministic sequential DFS; <= 0 selects all hardware threads.  The
  /// node and wall-clock budgets are shared across workers (the node total
  /// is polled every 1024 local nodes, so a parallel run may overshoot
  /// max_nodes by at most 1024 nodes per worker).
  int jobs = 1;
};

/// Search telemetry of one worker (or of the whole solve when aggregated).
/// Plain local counters on the search path — no atomics, no locks, no
/// clock reads — flushed once when the worker retires, so recording costs
/// a handful of register increments per node and never perturbs the
/// explored tree (sequential output stays bit-identical to the goldens).
struct SearchStats {
  std::uint64_t nodes = 0;            ///< decision nodes expanded
  /// Subtrees cut by `lower_bound() >= best`, split by what `best` was:
  /// an incumbent some schedule completion tightened below the root
  /// heuristic, vs the initial heuristic upper bound itself.
  std::uint64_t prune_incumbent = 0;
  std::uint64_t prune_bound = 0;
  std::uint64_t budget_polls = 0;     ///< amortised budget/clock checks
  std::uint64_t steals = 0;           ///< subproblems stolen from a victim
  std::uint64_t splits = 0;           ///< subproblems expanded breadth-first
  std::uint64_t split_refusals = 0;   ///< popped but run in place instead
};

/// Solver outcome.
struct BnbResult {
  graph::Time makespan = 0;       ///< best (optimal if proven_optimal)
  bool proven_optimal = false;
  std::uint64_t nodes_explored = 0;
  graph::Time root_lower_bound = 0;
  graph::Time heuristic_upper_bound = 0;
  /// kComplete when optimality was proven; kBudgetExhausted when any budget
  /// (node cap, time limit, external deadline) truncated the search — the
  /// makespan is then a sound upper bound, not proven minimal.
  util::Outcome outcome = util::Outcome::kComplete;
  SearchStats stats;  ///< aggregate search telemetry over all workers
  /// Per-worker telemetry: one entry in sequential mode, `jobs` entries in
  /// parallel mode (worker 0 first).  Empty for the root-bound shortcut
  /// where no search ran.
  std::vector<SearchStats> worker_stats;
};

/// Minimum makespan of `dag` on m cores + 1 accelerator.  Requires an
/// acyclic, non-empty graph; any number of offload nodes is supported (they
/// share the single accelerator).
[[nodiscard]] BnbResult min_makespan(const graph::Dag& dag, int m,
                                     const BnbConfig& config = {});

}  // namespace hedra::exact
