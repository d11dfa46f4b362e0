#include "sim/scheduler.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <queue>
#include <vector>

#include "graph/critical_path.h"
#include "graph/flat_dag.h"

namespace hedra::sim {

namespace {
std::atomic<std::uint64_t> g_validation_runs{0};
}  // namespace

std::uint64_t validation_runs() noexcept {
  return g_validation_runs.load(std::memory_order_relaxed);
}

const std::vector<Policy>& all_policies() noexcept {
  static const std::vector<Policy> kAll{
      Policy::kBreadthFirst, Policy::kDepthFirst, Policy::kCriticalPathFirst,
      Policy::kIndexOrder, Policy::kRandom};
  return kAll;
}

const char* to_string(Policy policy) noexcept {
  switch (policy) {
    case Policy::kBreadthFirst:
      return "breadth-first";
    case Policy::kDepthFirst:
      return "depth-first";
    case Policy::kCriticalPathFirst:
      return "critical-path-first";
    case Policy::kIndexOrder:
      return "index-order";
    case Policy::kRandom:
      return "random";
  }
  return "?";
}

namespace {

/// Unit counts per accelerator device: entry d−1 of `configured` if
/// present, 1 otherwise (the paper's single-unit platform).
std::vector<int> units_for(graph::DeviceId max_device,
                           const std::vector<int>& configured) {
  std::vector<int> units(max_device, 1);
  for (std::size_t d = 0; d < units.size() && d < configured.size(); ++d) {
    units[d] = configured[d];
  }
  return units;
}

/// One pending completion; the event heap pops the earliest finish (node id
/// tie-break keeps the pop order fully specified, though retirement batches
/// all events of the minimum finish time, so ties never change behaviour).
struct Event {
  Time finish;
  NodeId node;
  int unit;
};

struct EventAfter {
  bool operator()(const Event& a, const Event& b) const noexcept {
    if (a.finish != b.finish) return a.finish > b.finish;
    return a.node > b.node;
  }
};

/// Recorders: what a simulation run keeps of its scheduling decisions.  The
/// event loop is recorder-agnostic; golden-trace byte-identity is preserved
/// because the recorder only OBSERVES decisions, never influences them.
///
/// Full trace — the validation/golden/tooling path.
struct TraceRecorder {
  static constexpr bool kRecordsTrace = true;
  ScheduleTrace trace;

  TraceRecorder(const Dag* dag, int cores, std::vector<int> device_units)
      : trace(dag, cores, std::move(device_units)) {}

  [[nodiscard]] int units_of(graph::DeviceId device) const noexcept {
    return trace.units_of(device);
  }
  void reserve(std::size_t intervals) { trace.reserve(intervals); }
  void add(const Interval& interval) { trace.add(interval); }
};

/// Makespan only — the Monte-Carlo hot path: no per-interval storage, no
/// ScheduleTrace allocation, just a running max over finish times.
struct MakespanRecorder {
  static constexpr bool kRecordsTrace = false;
  std::vector<int> units;  ///< index d−1 = units of device d
  Time makespan = 0;

  explicit MakespanRecorder(std::vector<int> device_units)
      : units(std::move(device_units)) {}

  [[nodiscard]] int units_of(graph::DeviceId device) const noexcept {
    const std::size_t index = static_cast<std::size_t>(device) - 1;
    return index < units.size() ? units[index] : 1;
  }
  void reserve(std::size_t) noexcept {}
  void add(const Interval& interval) noexcept {
    makespan = std::max(makespan, interval.finish);
  }
};

/// Critical-path-first key: longest down(v) wins, smallest id tie-breaks —
/// the same strict total order the historical linear scan minimised over,
/// so heap and scan always pick the same node.
struct CpEntry {
  Time down;
  NodeId node;
};

struct CpAfter {
  bool operator()(const CpEntry& a, const CpEntry& b) const noexcept {
    if (a.down != b.down) return a.down < b.down;
    return a.node > b.node;
  }
};

/// Host ready set, indexed by the policy so every pick is O(1)/O(log n):
///  - breadth-first: nodes become ready in FIFO-ticket order, so a deque's
///    front IS the minimum ticket (the historical scan's pick);
///  - depth-first: the back is the maximum ticket;
///  - critical-path / index order: binary heaps over the strict total order
///    the historical scan minimised;
///  - random: the historical vector + swap-remove, byte-compatible RNG
///    consumption (one index draw per pick over the identical layout).
class ReadyHost {
 public:
  ReadyHost(Policy policy, const std::vector<Time>* down)
      : policy_(policy), down_(down) {}

  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  void push(NodeId v) {
    ++count_;
    switch (policy_) {
      case Policy::kBreadthFirst:
        fifo_.push_back(v);
        return;
      case Policy::kDepthFirst:
        lifo_.push_back(v);
        return;
      case Policy::kCriticalPathFirst:
        cp_.push(CpEntry{(*down_)[v], v});
        return;
      case Policy::kIndexOrder:
        by_index_.push(v);
        return;
      case Policy::kRandom:
        pool_.push_back(v);
        return;
    }
  }

  [[nodiscard]] NodeId pop(Rng& rng) {
    HEDRA_ASSERT(count_ > 0);
    --count_;
    switch (policy_) {
      case Policy::kBreadthFirst: {
        const NodeId v = fifo_.front();
        fifo_.pop_front();
        return v;
      }
      case Policy::kDepthFirst: {
        const NodeId v = lifo_.back();
        lifo_.pop_back();
        return v;
      }
      case Policy::kCriticalPathFirst: {
        const NodeId v = cp_.top().node;
        cp_.pop();
        return v;
      }
      case Policy::kIndexOrder: {
        const NodeId v = by_index_.top();
        by_index_.pop();
        return v;
      }
      case Policy::kRandom: {
        const std::size_t pick = rng.index(pool_.size());
        const NodeId v = pool_[pick];
        pool_[pick] = pool_.back();
        pool_.pop_back();
        return v;
      }
    }
    throw InternalError("unreachable policy");
  }

 private:
  Policy policy_;
  const std::vector<Time>* down_;  ///< kCriticalPathFirst only
  std::size_t count_ = 0;
  std::deque<NodeId> fifo_;
  std::vector<NodeId> lifo_;
  std::priority_queue<CpEntry, std::vector<CpEntry>, CpAfter> cp_;
  std::priority_queue<NodeId, std::vector<NodeId>, std::greater<>> by_index_;
  std::vector<NodeId> pool_;
};

template <class Recorder>
class Simulation {
 public:
  /// `actual` gives per-node execution times; nullptr means "run at WCET".
  Simulation(const graph::FlatView& flat, const SimConfig& config,
             const std::vector<Time>* actual, Recorder recorder)
      : flat_(flat),
        config_(config),
        actual_(actual),
        rec_(std::move(recorder)),
        rng_(config.seed),
        down_(config.policy == Policy::kCriticalPathFirst
                  ? graph::down_lengths(flat)
                  : std::vector<Time>{}),
        ready_host_(config.policy, &down_),
        ready_dev_(flat.max_device()),
        dev_free_(flat.max_device()) {
    HEDRA_REQUIRE(config_.cores >= 1, "simulation requires at least one core");
    for (std::size_t d = 0; d < dev_free_.size(); ++d) {
      // Smallest free unit index on top, matching the host free-core heap.
      for (int u = rec_.units_of(static_cast<graph::DeviceId>(d + 1)) - 1;
           u >= 0; --u) {
        dev_free_[d].push(u);
      }
    }
    if (actual_ != nullptr) {
      HEDRA_REQUIRE(actual_->size() == flat_.num_nodes(),
                    "actual-times vector size mismatch");
      for (NodeId v = 0; v < flat_.num_nodes(); ++v) {
        HEDRA_REQUIRE((*actual_)[v] >= 0 && (*actual_)[v] <= flat_.wcet(v),
                      "actual execution time outside [0, WCET]");
      }
    }
  }

  Recorder run() {
    const std::size_t n = flat_.num_nodes();
    rec_.reserve(n);
    remaining_preds_.resize(n);
    for (NodeId v = 0; v < n; ++v) {
      remaining_preds_[v] = static_cast<std::uint32_t>(flat_.in_degree(v));
    }
    for (int core = config_.cores - 1; core >= 0; --core) {
      free_cores_.push(core);
    }

    // Sources are ready at t = 0.  `queue_` is the FIFO of newly ready
    // nodes, consumed from `queue_head_` (a plain vector + head index, so
    // the per-event churn allocates nothing in steady state).
    queue_.reserve(n);
    for (NodeId v = 0; v < n; ++v) {
      if (remaining_preds_[v] == 0) queue_.push_back(v);
    }
    absorb_ready(/*time=*/0);

    Time now = 0;
    std::vector<NodeId> finished;
    while (completed_ < n) {
      dispatch(now);
      HEDRA_REQUIRE(!events_.empty(),
                    "simulation stalled: cyclic or disconnected graph");
      // Advance to the next completion and retire everything finishing then.
      const Time next = events_.top().finish;
      finished.clear();
      while (!events_.empty() && events_.top().finish == next) {
        const Event e = events_.top();
        events_.pop();
        if (e.unit >= 0) {
          free_cores_.push(e.unit);
        } else {
          const auto [device, index] = decode_accelerator_unit(e.unit);
          dev_free_[device - 1].push(index);
        }
        finished.push_back(e.node);
      }
      std::sort(finished.begin(), finished.end());
      queue_.clear();
      queue_head_ = 0;
      for (const NodeId v : finished) retire(v);
      absorb_ready(next);
      now = next;
    }

    if constexpr (Recorder::kRecordsTrace) {
      if (config_.validate) {
        g_validation_runs.fetch_add(1, std::memory_order_relaxed);
        std::vector<Time> durations(n);
        for (NodeId v = 0; v < n; ++v) durations[v] = duration(v);
        const auto issues = rec_.trace.validate_with_durations(durations);
        HEDRA_ASSERT(issues.empty());
      }
    }
    return std::move(rec_);
  }

 private:
  /// How long node v actually executes in this run.
  [[nodiscard]] Time duration(NodeId v) const {
    return actual_ != nullptr ? (*actual_)[v] : flat_.wcet(v);
  }
  /// Marks v complete and appends successors that became ready to `queue_`.
  void retire(NodeId v) {
    ++completed_;
    for (const NodeId w : flat_.successors(v)) {
      if (--remaining_preds_[w] == 0) queue_.push_back(w);
    }
  }

  /// Files the queued newly ready nodes into the ready structures, FIFO.
  /// Zero-WCET host-side nodes complete instantly (occupying no unit) and
  /// cascade; zero-WCET nodes placed on an accelerator go through their
  /// device's queue like any offload, so device serialisation applies (they
  /// still execute for zero time once a unit frees up).
  void absorb_ready(Time time) {
    while (queue_head_ < queue_.size()) {
      const NodeId v = queue_[queue_head_++];
      const graph::DeviceId device = flat_.device(v);
      if (device != graph::kHostDevice) {
        ready_dev_[device - 1].push_back(v);
      } else if (flat_.wcet(v) == 0) {
        rec_.add(Interval{v, kInstantUnit, time, time});
        retire(v);
      } else {
        ready_host_.push(v);
      }
    }
  }

  /// Work-conserving assignment of ready nodes to free units at `time`.
  void dispatch(Time time) {
    for (std::size_t d = 0; d < ready_dev_.size(); ++d) {
      while (!dev_free_[d].empty() && !ready_dev_[d].empty()) {
        const NodeId v = ready_dev_[d].front();  // FIFO per device
        ready_dev_[d].pop_front();
        const int unit = dev_free_[d].top();  // smallest free unit first
        dev_free_[d].pop();
        start(v, accelerator_unit(static_cast<graph::DeviceId>(d + 1), unit),
              time);
      }
    }
    while (!free_cores_.empty() && !ready_host_.empty()) {
      const NodeId v = ready_host_.pop(rng_);
      const int core = free_cores_.top();
      free_cores_.pop();
      start(v, core, time);
    }
  }

  void start(NodeId v, int unit, Time time) {
    const Time finish = time + duration(v);
    rec_.add(Interval{v, unit, time, finish});
    events_.push(Event{finish, v, unit});
  }

  graph::FlatView flat_;
  SimConfig config_;
  const std::vector<Time>* actual_;
  Recorder rec_;
  Rng rng_;
  std::vector<Time> down_;  ///< down(v), kCriticalPathFirst only

  std::vector<std::uint32_t> remaining_preds_;
  std::vector<NodeId> queue_;   ///< newly ready FIFO (consumed from head)
  std::size_t queue_head_ = 0;
  ReadyHost ready_host_;
  /// One FIFO ready queue and one free-unit min-heap per accelerator
  /// device; index d−1 holds device d (a single-unit device reproduces the
  /// historical queue + busy flag exactly).
  std::vector<std::deque<NodeId>> ready_dev_;
  std::vector<std::priority_queue<int, std::vector<int>, std::greater<>>>
      dev_free_;
  std::priority_queue<Event, std::vector<Event>, EventAfter> events_;
  std::priority_queue<int, std::vector<int>, std::greater<>> free_cores_;
  std::size_t completed_ = 0;
};

/// A trace-recording run over `view`, validated against its source Dag.
ScheduleTrace run_traced(const graph::FlatView& view, const SimConfig& config,
                         const std::vector<Time>* actual) {
  HEDRA_REQUIRE(view.num_nodes() > 0, "cannot simulate an empty graph");
  HEDRA_REQUIRE(view.source() != nullptr,
                "trace recording requires a Dag-backed view");
  Simulation<TraceRecorder> sim(
      view, config, actual,
      TraceRecorder(view.source(), config.cores,
                    units_for(view.max_device(), config.device_units)));
  return std::move(sim.run().trace);
}

}  // namespace

ScheduleTrace simulate(const graph::FlatView& view, const SimConfig& config) {
  return run_traced(view, config, nullptr);
}

ScheduleTrace simulate(const Dag& dag, const SimConfig& config) {
  const graph::FlatDag flat(dag);  // throws on cyclic input
  return simulate(flat.view(), config);
}

Time simulated_makespan(const graph::FlatView& view, const SimConfig& config) {
  HEDRA_REQUIRE(view.num_nodes() > 0, "cannot simulate an empty graph");
  // Validation needs a full trace, so the flag takes the recording path.
  if (config.validate) return simulate(view, config).makespan();
  Simulation<MakespanRecorder> sim(
      view, config, nullptr,
      MakespanRecorder(units_for(view.max_device(), config.device_units)));
  return sim.run().makespan;
}

Time simulated_makespan(const Dag& dag, const SimConfig& config) {
  const graph::FlatDag flat(dag);  // throws on cyclic input
  return simulated_makespan(flat.view(), config);
}

ScheduleTrace simulate_with_times(const graph::FlatView& view,
                                  const SimConfig& config,
                                  const std::vector<Time>& actual_times) {
  return run_traced(view, config, &actual_times);
}

ScheduleTrace simulate_with_times(const Dag& dag, const SimConfig& config,
                                  const std::vector<Time>& actual_times) {
  const graph::FlatDag flat(dag);  // throws on cyclic input
  return simulate_with_times(flat.view(), config, actual_times);
}

std::vector<Time> random_actual_times(const Dag& dag, double scale_min,
                                      Rng& rng) {
  HEDRA_REQUIRE(scale_min >= 0.0 && scale_min <= 1.0,
                "scale_min must lie in [0, 1]");
  std::vector<Time> actual(dag.num_nodes());
  for (NodeId v = 0; v < dag.num_nodes(); ++v) {
    const Time wcet = dag.wcet(v);
    if (wcet == 0) continue;
    const Time lo = static_cast<Time>(
        std::ceil(scale_min * static_cast<double>(wcet)));
    actual[v] = rng.uniform_int(std::max<Time>(0, lo), wcet);
  }
  return actual;
}

}  // namespace hedra::sim
