#pragma once

/// \file brute_force.h
/// Exhaustive minimum-makespan search for tiny instances, used ONLY to
/// cross-validate the branch-and-bound solver in tests.  It enumerates, at
/// every event time, every subset of ready jobs that could start (host jobs
/// bounded by free cores, offload jobs by the single accelerator), with no
/// pruning and no dominance rules — a deliberately independent and obviously
/// exhaustive implementation over left-shifted schedules.  Exponential;
/// intended for graphs with at most ~10 nodes.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "graph/algorithms.h"
#include "graph/dag.h"

namespace hedra::exact {

namespace detail {

using graph::Dag;
using graph::NodeId;
using graph::Time;

struct Run {
  Time finish;
  NodeId node;
  bool on_accel;
};

struct State {
  Time now = 0;
  std::vector<int> remaining_preds;
  std::vector<NodeId> ready_host;
  std::vector<NodeId> ready_accel;
  std::vector<Run> running;
  int free_cores = 0;
  bool accel_free = true;
  std::size_t completed = 0;
};

class Enumerator {
 public:
  Enumerator(const Dag& dag, int m) : dag_(dag), m_(m) {}

  Time solve() {
    State s;
    s.remaining_preds.resize(dag_.num_nodes());
    for (NodeId v = 0; v < dag_.num_nodes(); ++v) {
      s.remaining_preds[v] = static_cast<int>(dag_.in_degree(v));
    }
    s.free_cores = m_;
    std::vector<NodeId> newly;
    for (NodeId v = 0; v < dag_.num_nodes(); ++v) {
      if (s.remaining_preds[v] == 0) newly.push_back(v);
    }
    absorb(s, newly);
    best_ = std::numeric_limits<Time>::max();
    explore(s);
    return best_;
  }

 private:
  void absorb(State& s, std::vector<NodeId>& newly) {
    while (!newly.empty()) {
      const NodeId v = newly.back();
      newly.pop_back();
      if (dag_.wcet(v) == 0) {
        ++s.completed;
        for (const NodeId w : dag_.successors(v)) {
          if (--s.remaining_preds[w] == 0) newly.push_back(w);
        }
        continue;
      }
      (dag_.kind(v) == graph::NodeKind::kOffload ? s.ready_accel
                                                 : s.ready_host)
          .push_back(v);
    }
  }

  /// Enumerate every subset of ready host jobs (size <= free cores) crossed
  /// with every choice of ready offload job (or none), then advance time.
  void explore(const State& s) {  // NOLINT(misc-no-recursion)
    if (s.completed == dag_.num_nodes()) {
      best_ = std::min(best_, s.now);
      return;
    }
    const std::size_t h = s.ready_host.size();
    const std::size_t max_start =
        std::min<std::size_t>(h, static_cast<std::size_t>(s.free_cores));
    for (std::uint32_t mask = 0; mask < (1u << h); ++mask) {
      if (static_cast<std::size_t>(__builtin_popcount(mask)) > max_start) {
        continue;
      }
      const std::size_t accel_options =
          (s.accel_free && !s.ready_accel.empty()) ? s.ready_accel.size() + 1
                                                   : 1;
      for (std::size_t accel_pick = 0; accel_pick < accel_options;
           ++accel_pick) {
        State next = s;
        // Start the chosen host subset.
        std::vector<NodeId> keep;
        for (std::size_t i = 0; i < h; ++i) {
          const NodeId v = s.ready_host[i];
          if (mask & (1u << i)) {
            next.running.push_back(Run{s.now + dag_.wcet(v), v, false});
            --next.free_cores;
          } else {
            keep.push_back(v);
          }
        }
        next.ready_host = std::move(keep);
        // Start the chosen offload job, if any (accel_pick 0 = none).
        if (accel_pick > 0) {
          const NodeId v = s.ready_accel[accel_pick - 1];
          next.ready_accel.erase(next.ready_accel.begin() +
                                 static_cast<std::ptrdiff_t>(accel_pick - 1));
          next.running.push_back(Run{s.now + dag_.wcet(v), v, true});
          next.accel_free = false;
        }
        if (next.running.empty()) continue;  // starting nothing deadlocks
        // Advance to the earliest completion.
        Time t = next.running.front().finish;
        for (const auto& r : next.running) t = std::min(t, r.finish);
        std::vector<NodeId> newly;
        for (auto it = next.running.begin(); it != next.running.end();) {
          if (it->finish == t) {
            if (it->on_accel) next.accel_free = true;
            else ++next.free_cores;
            ++next.completed;
            for (const NodeId w : dag_.successors(it->node)) {
              if (--next.remaining_preds[w] == 0) newly.push_back(w);
            }
            it = next.running.erase(it);
          } else {
            ++it;
          }
        }
        next.now = t;
        absorb(next, newly);
        explore(next);
      }
    }
  }

  const Dag& dag_;
  int m_;
  Time best_ = 0;
};

}  // namespace detail

/// Minimum makespan by exhaustive enumeration.  Throws if the graph exceeds
/// `max_nodes_allowed` (guard against accidental blow-up in tests).
[[nodiscard]] inline graph::Time brute_force_min_makespan(
    const graph::Dag& dag, int m, std::size_t max_nodes_allowed = 12) {
  HEDRA_REQUIRE(dag.num_nodes() > 0, "cannot solve an empty graph");
  HEDRA_REQUIRE(dag.num_nodes() <= max_nodes_allowed,
                "graph too large for brute force");
  HEDRA_REQUIRE(m >= 1, "core count m must be >= 1");
  HEDRA_REQUIRE(graph::is_acyclic(dag), "cannot solve a cyclic graph");
  HEDRA_REQUIRE(dag.max_device() <= 1,
                "exact solvers model a single accelerator device; "
                "multi-device DAGs are not supported");
  detail::Enumerator e(dag, m);
  return e.solve();
}

}  // namespace hedra::exact
