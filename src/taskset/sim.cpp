#include "taskset/sim.h"

#include <algorithm>

#include "graph/flat_dag.h"

namespace hedra::taskset {

TasksetSimResult simulate_taskset(const TaskSet& set,
                                  std::span<const int> cores_per_task,
                                  const TasksetSimConfig& config) {
  set.validate();
  HEDRA_REQUIRE(!set.empty(), "cannot simulate an empty task set");
  // The simulator executes WCETs verbatim (device-time).  A platform with
  // WCET speedups declares the DAGs' WCETs to be NOMINAL — the contention
  // analysis divides its device terms by s_d — so simulating them unscaled
  // would take longer than the admitted bounds allow.  Refuse loudly
  // rather than produce spurious "violations": bake speedups into the
  // WCETs at generation (gen::HierarchicalParams::device_speedup) and
  // simulate on the unscaled platform.
  HEDRA_REQUIRE(!set.platform().has_speedups(),
                "taskset simulation runs in device-time; platforms with "
                "WCET speedups cannot be executed verbatim — apply the "
                "scaling at generation instead");
  HEDRA_REQUIRE(config.jobs_per_task >= 1, "need at least one job per task");
  HEDRA_REQUIRE(cores_per_task.size() == set.size(),
                "need one host-core count per task");
  int partitioned = 0;
  for (const int cores : cores_per_task) {
    HEDRA_REQUIRE(cores >= 1, "every task needs at least one dedicated core");
    partitioned += cores;
  }
  HEDRA_REQUIRE(partitioned <= set.platform().cores,
                "host partition exceeds the platform's cores");

  const std::size_t num_tasks = set.size();
  const auto jobs = static_cast<std::uint32_t>(config.jobs_per_task);

  // The taskset sweeps call this thousands of times on small sets, so the
  // containers that do not escape the call live in per-thread scratch
  // (only capacity carries over).  Arena-backed tasks are viewed in place;
  // eager tasks snapshot once into `snapshots` (reserved so the views'
  // pointee never reallocates).
  thread_local std::vector<graph::FlatDag> snapshots;
  snapshots.clear();
  snapshots.reserve(num_tasks);
  thread_local std::vector<graph::FlatView> views;
  views.clear();
  views.reserve(num_tasks);
  for (const DagTask& task : set) {
    if (task.has_flat_view()) {
      views.push_back(task.flat_view());
    } else {
      snapshots.emplace_back(task.dag());
      views.push_back(snapshots.back().view());
    }
  }

  // Job j of task i arrives at j·T_i (the synchronous periodic pattern);
  // it is job i·jobs + j of the run.
  thread_local std::vector<sim::Release> releases;
  releases.clear();
  releases.reserve(num_tasks * jobs);
  for (std::uint32_t i = 0; i < num_tasks; ++i) {
    for (std::uint32_t j = 0; j < jobs; ++j) {
      releases.push_back(sim::Release{set[i].period() * j, i});
    }
  }

  sim::JobSet job_set;
  job_set.graphs = views;
  job_set.cores = cores_per_task;
  job_set.device_units = set.platform().device_units;
  job_set.releases = releases;
  job_set.policy = config.policy;
  job_set.seed = config.seed;
  job_set.deadline = config.deadline;
  thread_local std::vector<graph::Time> finish;
  finish.resize(releases.size());

  TasksetSimResult result;
  result.jobs_unfinished = sim::run_jobs(job_set, finish);
  if (result.jobs_unfinished > 0) {
    result.outcome = util::Outcome::kBudgetExhausted;
  }
  result.tasks.assign(num_tasks, {});
  for (std::size_t i = 0; i < num_tasks; ++i) {
    TaskObservation& task = result.tasks[i];
    task.jobs.resize(jobs);
    for (std::size_t j = 0; j < jobs; ++j) {
      JobRecord& job = task.jobs[j];
      const std::size_t k = i * jobs + j;
      job.release = releases[k].time;
      if (finish[k] == sim::kUnfinished) continue;
      job.finish = finish[k];
      job.finished = true;
      task.worst_response = std::max(task.worst_response, job.response());
      result.makespan = std::max(result.makespan, job.finish);
    }
  }
  return result;
}

}  // namespace hedra::taskset
