#include "sim/scheduler.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <tuple>
#include <vector>

#include "graph/critical_path.h"
#include "graph/flat_dag.h"
#include "util/fault.h"

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

/// One node instance: node `node` of job `job` (its release index), a job
/// of task `task`.
struct JobNode {
  std::uint32_t task = 0;
  std::uint32_t job = 0;
  NodeId node = 0;
};

/// The host ready set of one task, indexed by the policy so every pick is
/// O(1) or O(log n).  Entries pack (job, node) into one integer whose order
/// is (job, node) order:
///  - breadth-first: a FIFO read from a head index;
///  - depth-first: a LIFO;
///  - index order: a min-heap;
///  - critical-path-first: a heap whose top has the longest down(v), then
///    the smallest (job, node);
///  - random: swap-remove at one seeded index draw per pick.
class ReadySet {
 public:
  /// Empties the set for a run; `down` is read under kCriticalPathFirst.
  void reset(Policy policy, std::span<const Time> down) {
    policy_ = policy;
    down_ = down;
    items_.clear();
    head_ = 0;
  }

  [[nodiscard]] bool empty() const noexcept { return head_ == items_.size(); }

  void push(std::uint32_t job, NodeId node) {
    items_.push_back(std::uint64_t{job} << 32 | node);
    if (policy_ == Policy::kIndexOrder) {
      std::push_heap(items_.begin(), items_.end(), std::greater<>{});
    } else if (policy_ == Policy::kCriticalPathFirst) {
      std::push_heap(items_.begin(), items_.end(), ByDown{down_});
    }
  }

  /// Removes and returns the (job, node) the policy picks next.
  [[nodiscard]] std::pair<std::uint32_t, NodeId> pop(Rng& rng) {
    switch (policy_) {
      case Policy::kBreadthFirst: {
        const std::uint64_t head = items_[head_++];
        if (head_ == items_.size()) {
          items_.clear();
          head_ = 0;
        }
        return split(head);
      }
      case Policy::kDepthFirst:
        break;
      case Policy::kCriticalPathFirst:
        std::pop_heap(items_.begin(), items_.end(), ByDown{down_});
        break;
      case Policy::kIndexOrder:
        std::pop_heap(items_.begin(), items_.end(), std::greater<>{});
        break;
      case Policy::kRandom:
        std::swap(items_[rng.index(items_.size())], items_.back());
        break;
    }
    const std::uint64_t picked = items_.back();
    items_.pop_back();
    return split(picked);
  }

 private:
  static std::pair<std::uint32_t, NodeId> split(std::uint64_t entry) {
    return {static_cast<std::uint32_t>(entry >> 32),
            static_cast<NodeId>(entry)};
  }

  /// Heap "less" for critical-path-first: `a` ranks below `b`.
  struct ByDown {
    std::span<const Time> down;
    bool operator()(std::uint64_t a, std::uint64_t b) const noexcept {
      const Time down_a = down[static_cast<NodeId>(a)];
      const Time down_b = down[static_cast<NodeId>(b)];
      if (down_a != down_b) return down_a < down_b;
      return a > b;
    }
  };

  Policy policy_ = Policy::kBreadthFirst;
  std::span<const Time> down_;
  std::vector<std::uint64_t> items_;
  std::size_t head_ = 0;  ///< FIFO read position (kBreadthFirst only)
};

/// Node `node` of job `job` finishing at `finish`.  Job ids run task by
/// task, so the heap's (finish, job, node) order is the (finish, task, job,
/// node) retirement order.  Kept to 16 bytes (the unit a node holds lives
/// in its NodeState): the heap moves these on every start and retirement.
struct Completion {
  Time finish = 0;
  std::uint32_t job = 0;
  NodeId node = 0;

  friend bool operator>(const Completion& a, const Completion& b) noexcept {
    if (a.finish != b.finish) return a.finish > b.finish;
    if (a.job != b.job) return a.job > b.job;
    return a.node > b.node;
  }
};

/// Per job node: predecessors still to finish, then the unit it runs on.
struct NodeState {
  std::uint32_t pending = 0;
  int unit = 0;
};

/// Per job: where its node states start in the run's array, and how many
/// of its nodes are still to finish.
struct JobState {
  std::size_t first_node = 0;
  std::size_t unfinished = 0;
};

/// Per task: its graph, its ready set and its pool of free cores.
struct TaskState {
  graph::FlatView graph;
  std::vector<Time> down;       ///< down(v), kCriticalPathFirst only
  ReadySet ready;
  std::vector<int> free_cores;  ///< min-heap
};

/// Per accelerator device: its FIFO (read from `head`) and its free units.
struct DeviceState {
  std::vector<JobNode> queue;
  std::size_t head = 0;
  std::vector<int> free_units;  ///< min-heap
};

/// Min-heap helpers over a vector kept with std::greater.
template <class T>
T pop_min(std::vector<T>& heap) {
  std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
  const T top = heap.back();
  heap.pop_back();
  return top;
}

template <class T>
void push_min(std::vector<T>& heap, const T& value) {
  heap.push_back(value);
  std::push_heap(heap.begin(), heap.end(), std::greater<>{});
}

/// A pool of `size` free unit indices as a min-heap (ascending is a valid
/// one), so the smallest free index is always taken first.
void fill_pool(std::vector<int>& pool, int size) {
  pool.resize(static_cast<std::size_t>(size));
  std::iota(pool.begin(), pool.end(), 0);
}

/// The event loop and its working state.  One instance lives per thread;
/// every run rebuilds the state with assign/clear, so only capacity carries
/// over — and a throw mid-run leaves nothing the next run reads.
class EventLoop {
 public:
  std::size_t run(const JobSet& jobs, std::span<Time> finish) {
    jobs_ = jobs;
    finish_ = finish;
    rng_ = Rng(jobs.seed);
    setup();
    std::size_t next_arrival = 0;
    std::uint64_t rounds = 0;
    while (remaining_ > 0) {
      HEDRA_FAULT("sim.event");
      if (!jobs_.deadline.unlimited() && ++rounds % 256 == 0 &&
          jobs_.deadline.expired()) {
        break;
      }
      const bool arrivals_left = next_arrival < arrivals_.size();
      HEDRA_REQUIRE(!events_.empty() || arrivals_left,
                    "simulation stalled (hedra bug)");
      Time now = std::numeric_limits<Time>::max();
      if (!events_.empty()) now = events_.front().finish;
      if (arrivals_left) now = std::min(now, arrivals_[next_arrival].first);

      instant_.clear();
      while (!events_.empty() && events_.front().finish == now) {
        const Completion done = pop_min(events_);
        const JobNode x{jobs_.releases[done.job].task, done.job, done.node};
        TaskState& task = tasks_[x.task];
        const graph::DeviceId device = task.graph.device(x.node);
        push_min(device == graph::kHostDevice
                     ? task.free_cores
                     : devices_[device - 1u].free_units,
                 state(x).unit);
        retire(x, now);
      }
      while (next_arrival < arrivals_.size() &&
             arrivals_[next_arrival].first == now) {
        release(arrivals_[next_arrival++].second);
      }
      retire_instant(now);
      dispatch(now);
    }
    return remaining_;
  }

 private:
  /// Checks the input and resets the working state for this run.
  void setup() {
    const std::size_t num_tasks = jobs_.graphs.size();
    HEDRA_REQUIRE(jobs_.cores.size() == num_tasks,
                  "need one host pool per task");
    HEDRA_REQUIRE(finish_.size() == jobs_.releases.size(),
                  "need one finish slot per release");
    HEDRA_REQUIRE(jobs_.trace == nullptr || num_tasks == 1,
                  "a trace records a one-task run");
    if (!jobs_.actual.empty()) {
      HEDRA_REQUIRE(num_tasks == 1 &&
                        jobs_.actual.size() == jobs_.graphs[0].num_nodes(),
                    "actual-times vector size mismatch");
      for (NodeId v = 0; v < jobs_.actual.size(); ++v) {
        HEDRA_REQUIRE(
            jobs_.actual[v] >= 0 && jobs_.actual[v] <= jobs_.graphs[0].wcet(v),
            "actual execution time outside [0, WCET]");
      }
    }
    graph::DeviceId num_devices = 0;
    tasks_.resize(num_tasks);
    for (std::size_t i = 0; i < num_tasks; ++i) {
      TaskState& task = tasks_[i];
      task.graph = jobs_.graphs[i];
      HEDRA_REQUIRE(task.graph.num_nodes() > 0,
                    "cannot simulate an empty graph");
      HEDRA_REQUIRE(jobs_.cores[i] >= 1,
                    "simulation requires at least one core");
      num_devices = std::max(num_devices, task.graph.max_device());
      task.down.clear();
      if (jobs_.policy == Policy::kCriticalPathFirst) {
        task.down = graph::down_lengths(task.graph);
      }
      task.ready.reset(jobs_.policy, task.down);
      fill_pool(task.free_cores, jobs_.cores[i]);
    }
    devices_.resize(num_devices);
    for (std::size_t d = 0; d < num_devices; ++d) {
      const int units =
          d < jobs_.device_units.size() ? jobs_.device_units[d] : 1;
      HEDRA_REQUIRE(units >= 1, "every accelerator device needs >= 1 unit");
      devices_[d].queue.clear();
      devices_[d].head = 0;
      fill_pool(devices_[d].free_units, units);
    }

    std::size_t slots = 0;
    job_states_.resize(jobs_.releases.size());
    arrivals_.resize(jobs_.releases.size());
    for (std::uint32_t k = 0; k < jobs_.releases.size(); ++k) {
      const Release& release = jobs_.releases[k];
      HEDRA_REQUIRE(release.task < num_tasks, "release of an unknown task");
      HEDRA_REQUIRE(k == 0 || std::tie(jobs_.releases[k - 1].task,
                                       jobs_.releases[k - 1].time) <=
                                  std::tie(release.task, release.time),
                    "releases must be listed task by task in time order");
      job_states_[k].first_node = slots;
      slots += tasks_[release.task].graph.num_nodes();
      arrivals_[k] = {release.time, k};
    }
    // Same-instant releases arrive in job order, i.e. (task, job) order.
    std::sort(arrivals_.begin(), arrivals_.end());
    nodes_.resize(slots);
    events_.clear();
    std::fill(finish_.begin(), finish_.end(), kUnfinished);
    remaining_ = jobs_.releases.size();
  }

  /// Job k arrives: its pending counts start at the in-degrees and its
  /// roots are filed in ascending id.
  void release(std::uint32_t k) {
    const std::uint32_t task = jobs_.releases[k].task;
    const graph::FlatView& graph = tasks_[task].graph;
    NodeState* nodes = nodes_.data() + job_states_[k].first_node;
    job_states_[k].unfinished = graph.num_nodes();
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      nodes[v].pending = static_cast<std::uint32_t>(graph.in_degree(v));
      if (nodes[v].pending == 0) file(JobNode{task, k, v});
    }
  }

  NodeState& state(const JobNode& x) {
    return nodes_[job_states_[x.job].first_node + x.node];
  }

  /// Marks `x` complete at `now` and files the successors it made ready.
  void retire(const JobNode& x, Time now) {
    JobState& job = job_states_[x.job];
    if (--job.unfinished == 0) {
      finish_[x.job] = now;
      --remaining_;
    }
    NodeState* nodes = nodes_.data() + job.first_node;
    for (const NodeId w : tasks_[x.task].graph.successors(x.node)) {
      if (--nodes[w].pending == 0) file(JobNode{x.task, x.job, w});
    }
  }

  /// Files a newly ready node: a device node joins its device's FIFO, a
  /// host node its task's ready set, and a zero-WCET host node the queue
  /// of nodes that retire this instant.
  void file(const JobNode& x) {
    TaskState& task = tasks_[x.task];
    const graph::DeviceId device = task.graph.device(x.node);
    if (device != graph::kHostDevice) {
      devices_[device - 1u].queue.push_back(x);
    } else if (task.graph.wcet(x.node) == 0) {
      instant_.push_back(x);
    } else {
      task.ready.push(x.job, x.node);
    }
  }

  /// Retires the zero-WCET host nodes in the order they became ready;
  /// each files its own successors, which may queue more.
  void retire_instant(Time now) {
    for (std::size_t i = 0; i < instant_.size(); ++i) {
      const JobNode x = instant_[i];  // a copy: retire() may grow instant_
      if (jobs_.trace != nullptr) {
        jobs_.trace->add(Interval{x.node, kInstantUnit, now, now});
      }
      retire(x, now);
    }
  }

  /// Work-conserving assignment at `now`: every device's free units take
  /// its FIFO head, then every task's free cores take its policy's pick.
  void dispatch(Time now) {
    for (std::size_t d = 0; d < devices_.size(); ++d) {
      DeviceState& device = devices_[d];
      while (!device.free_units.empty() && device.head < device.queue.size()) {
        start(device.queue[device.head++], static_cast<graph::DeviceId>(d + 1),
              pop_min(device.free_units), now);
      }
      if (device.head == device.queue.size()) {
        device.queue.clear();
        device.head = 0;
      }
    }
    for (std::uint32_t i = 0; i < tasks_.size(); ++i) {
      TaskState& task = tasks_[i];
      while (!task.free_cores.empty() && !task.ready.empty()) {
        const auto [job, node] = task.ready.pop(rng_);
        start(JobNode{i, job, node}, graph::kHostDevice,
              pop_min(task.free_cores), now);
      }
    }
  }

  void start(const JobNode& x, graph::DeviceId device, int unit, Time now) {
    const Time finish =
        now + (jobs_.actual.empty() ? tasks_[x.task].graph.wcet(x.node)
                                    : jobs_.actual[x.node]);
    if (jobs_.trace != nullptr) {
      jobs_.trace->add(Interval{
          x.node,
          device == graph::kHostDevice ? unit : accelerator_unit(device, unit),
          now, finish});
    }
    state(x).unit = unit;
    push_min(events_, Completion{finish, x.job, x.node});
  }

  JobSet jobs_;             ///< the current run's input (stale between runs)
  std::span<Time> finish_;  ///< the current run's output (stale between runs)
  Rng rng_;
  std::size_t remaining_ = 0;  ///< jobs not yet finished
  std::vector<TaskState> tasks_;
  std::vector<DeviceState> devices_;            ///< index d−1: device d
  std::vector<JobState> job_states_;            ///< per job
  std::vector<NodeState> nodes_;                ///< per job node
  std::vector<std::pair<Time, std::uint32_t>> arrivals_;  ///< (time, job)
  std::vector<JobNode> instant_;  ///< zero-WCET host nodes retiring now
  std::vector<Completion> events_;              ///< min-heap
};

/// One job of `view` released at 0 on one pool of config.cores cores;
/// returns its finish time, the makespan.
Time run_one(const graph::FlatView& view, const SimConfig& config,
             std::span<const Time> actual, ScheduleTrace* trace) {
  const Release release;
  Time finish = 0;
  (void)run_jobs({.graphs = {&view, 1},
                  .cores = {&config.cores, 1},
                  .device_units = config.device_units,
                  .releases = {&release, 1},
                  .policy = config.policy,
                  .seed = config.seed,
                  .deadline = util::Deadline::never(),
                  .actual = actual,
                  .trace = trace},
                 {&finish, 1});
  return finish;
}

/// A trace-recording run over `view`, validated against its source Dag.
ScheduleTrace run_traced(const graph::FlatView& view, const SimConfig& config,
                         const std::vector<Time>* actual) {
  HEDRA_REQUIRE(view.num_nodes() > 0, "cannot simulate an empty graph");
  HEDRA_REQUIRE(view.source() != nullptr,
                "trace recording requires a Dag-backed view");
  ScheduleTrace trace(view.source(), config.cores, config.device_units);
  trace.reserve(view.num_nodes());
  (void)run_one(view, config,
                actual != nullptr ? std::span<const Time>(*actual)
                                  : std::span<const Time>(),
                &trace);
  if (config.validate) {
    g_validation_runs.fetch_add(1, std::memory_order_relaxed);
    const auto violations = actual != nullptr
                                ? trace.validate_with_durations(*actual)
                                : trace.validate();
    HEDRA_ASSERT(violations.empty());
  }
  return trace;
}

}  // namespace

std::size_t run_jobs(const JobSet& jobs, std::span<Time> finish) {
  thread_local EventLoop loop;
  return loop.run(jobs, finish);
}

ScheduleTrace simulate(const graph::FlatView& view, const SimConfig& config) {
  return run_traced(view, config, nullptr);
}

ScheduleTrace simulate(const Dag& dag, const SimConfig& config) {
  const graph::FlatDag flat(dag);  // throws on cyclic input
  return simulate(flat.view(), config);
}

Time simulated_makespan(const graph::FlatView& view, const SimConfig& config) {
  // Validation needs a full trace, so the flag takes the recording path.
  if (config.validate) return simulate(view, config).makespan();
  return run_one(view, config, {}, nullptr);
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
