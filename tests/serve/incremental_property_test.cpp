/// \file incremental_property_test.cpp
/// The admission service re-solves only the tasks an ADMIT or LEAVE
/// touches and reuses every other verdict.  This suite drives seeded random
/// ADMIT/LEAVE sequences through AdmissionService and referees every step
/// against the from-scratch oracle (tests/common/contention_oracle.h):
///
///  - every reply equals the reply derived from the oracle's analysis;
///  - after every request, explain() of the published snapshot is byte-
///    identical to explain() of the oracle's analysis of the same set;
///  - no budget-cut request is ever ADMITTED.
///
/// The sequences mix host-only tasks, a device-sharing group, LEAVEs from
/// the middle of the set, device ADMITs that push an earlier sharer onto
/// more cores, rejections (infeasible deadlines and a full platform) and
/// requests whose deadline has already expired.  Coverage counters assert
/// that every one of those cases actually occurred.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/analysis_cache.h"
#include "common/contention_oracle.h"
#include "common/contention_text.h"
#include "common/device_queries.h"
#include "graph/critical_path.h"
#include "obs/metrics.h"
#include "serve/admission.h"
#include "serve/protocol.h"
#include "taskset/gen.h"
#include "util/rng.h"

namespace hedra::serve {
namespace {

using model::DagTask;
using taskset::TaskSet;

/// An eager copy under a new name (and optionally a new deadline) — the
/// service sees tasks exactly as the protocol parser builds them.
DagTask eager(const DagTask& task, const std::string& name,
              graph::Time deadline = 0) {
  return DagTask(task.dag(), task.period(),
                 deadline > 0 ? deadline : task.deadline(), name);
}

/// Host-only tasks, device-sharing tasks and infeasible variants on one
/// platform with few enough cores that it can fill up.
struct Pool {
  model::Platform platform;
  std::vector<DagTask> tasks;
};

Pool make_pool(std::uint64_t seed) {
  Rng master(seed);
  taskset::TaskSetGenConfig host;
  host.num_tasks = 10;
  host.total_utilization = 2.0;
  host.dag_params.max_depth = 3;
  host.dag_params.n_par = 4;
  host.dag_params.min_nodes = 6;
  host.dag_params.max_nodes = 20;
  host.dag_params.wcet_max = 40;
  host.dag_params.num_devices = 0;
  host.implicit_deadlines = false;
  host.cores = 8;

  taskset::TaskSetGenConfig device = host;
  device.num_tasks = 10;
  device.total_utilization = 1.6;
  device.dag_params.num_devices = 2;
  device.coff_ratio = 0.45;
  device.device_units = {2, 1};

  Pool pool;
  pool.platform = device.platform();
  Rng host_rng = master.fork();
  Rng device_rng = master.fork();
  const TaskSet hosts = taskset::generate_task_set(host, host_rng);
  const TaskSet devices = taskset::generate_task_set(device, device_rng);
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    pool.tasks.push_back(eager(hosts[i], "h" + std::to_string(i)));
  }
  for (std::size_t i = 0; i < devices.size(); ++i) {
    pool.tasks.push_back(eager(devices[i], "d" + std::to_string(i)));
  }
  // Infeasible variants: half the critical path as the deadline, which no
  // schedule meets — rejected with a proof, budget cut or not.
  for (std::size_t i = 0; i < 2; ++i) {
    for (const TaskSet* set : {&hosts, &devices}) {
      const DagTask& raw = (*set)[i];
      pool.tasks.push_back(eager(
          raw, "x" + std::to_string(pool.tasks.size()),
          std::max<graph::Time>(
              1, graph::critical_path_length(raw.dag()) / 2)));
    }
  }
  return pool;
}

TaskSet set_of(const model::Platform& platform,
               const std::vector<DagTask>& tasks) {
  return TaskSet(platform, tasks);
}

bool shares_a_device(const DagTask& a, const DagTask& b,
                     const model::Platform& platform) {
  for (graph::DeviceId d = 1; d <= platform.num_devices(); ++d) {
    if (testing::volume_on(a.dag(), d) > 0 &&
        testing::volume_on(b.dag(), d) > 0) {
      return true;
    }
  }
  return false;
}

/// The reply an unlimited ADMIT must get, from the oracle's analysis.
std::string oracle_admit_reply(const model::Platform& platform,
                               const std::vector<DagTask>& admitted,
                               const DagTask& task) {
  std::vector<DagTask> with = admitted;
  with.push_back(task);
  const taskset::ContentionAnalysis analysis =
      testing::oracle::contention_rta(set_of(platform, with));
  AdmissionReply reply;
  reply.task = task.name();
  if (analysis.schedulable) {
    reply.decision = Decision::kAdmitted;
    reply.cores = analysis.tasks.back().cores;
    reply.response = analysis.tasks.back().response;
    reply.detail = "proven by exact fixpoint";
    return format_reply(reply);
  }
  reply.decision = Decision::kRejected;
  for (const taskset::TaskAdmission& t : analysis.tasks) {
    if (!t.schedulable) {
      reply.detail = "task '" + t.name + "' misses its deadline (R = " +
                     t.response.to_string() + ")";
      break;
    }
  }
  return format_reply(reply);
}

/// The reply an ADMIT with an already-expired deadline must get.  The
/// budget is charged only for work the request runs, so the request is
/// cut unless it runs none: that happens exactly when no admitted task
/// shares a device with the candidate (nothing is re-solved) and no host
/// core is left for the candidate (its partition loop never starts) —
/// then the unlimited verdict stands.  A cut request answers down the
/// degradation ladder from the candidate's isolated seed bound.
std::string oracle_expired_reply(const model::Platform& platform,
                                 const std::vector<DagTask>& admitted,
                                 const DagTask& task, bool* cut) {
  int cores_used = 0;
  bool shares = false;
  if (!admitted.empty()) {
    cores_used = testing::oracle::contention_rta(set_of(platform, admitted))
                     .cores_used;
    for (const DagTask& other : admitted) {
      shares = shares || shares_a_device(other, task, platform);
    }
  }
  *cut = shares || cores_used < platform.cores;
  if (!*cut) return oracle_admit_reply(platform, admitted, task);
  analysis::AnalysisCache cache(task.dag());
  const Frac seed = cache.r_platform(platform.cores, platform.device_units,
                                     platform.device_speedup);
  AdmissionReply reply;
  reply.task = task.name();
  if (seed > Frac(task.deadline())) {
    reply.decision = Decision::kRejected;
    reply.detail = "seed bound " + seed.to_string() + " exceeds deadline " +
                   std::to_string(task.deadline()) + " on all " +
                   std::to_string(platform.cores) +
                   " cores (proof survives the budget cut)";
  } else {
    reply.decision = Decision::kProvisional;
    reply.outcome = util::Outcome::kBudgetExhausted;
    reply.detail = "analysis budget exhausted before a proof; not admitted";
  }
  return format_reply(reply);
}

/// What the random sequences covered; every field must end up non-zero.
struct Coverage {
  int host_admits = 0;
  int device_admits = 0;
  int middle_leaves = 0;
  int pushes = 0;  ///< an ADMIT moved an earlier task onto more cores
  int rejections = 0;
  int full_platform = 0;  ///< rejected because no host core was left
  int budget_cuts = 0;
  int reused = 0;  ///< verdicts the service carried over unchanged
};

void expect_snapshot_matches_oracle(const AdmissionService& service,
                                    const std::vector<DagTask>& admitted,
                                    const std::string& context) {
  const auto snapshot = service.snapshot();
  ASSERT_EQ(snapshot->set.size(), admitted.size()) << context;
  for (std::size_t i = 0; i < admitted.size(); ++i) {
    ASSERT_EQ(snapshot->set[i].name(), admitted[i].name()) << context;
  }
  if (admitted.empty()) return;
  const taskset::ContentionAnalysis oracle =
      testing::oracle::contention_rta(snapshot->set);
  EXPECT_EQ(testing::explain(snapshot->analysis, snapshot->set),
            testing::explain(oracle, snapshot->set))
      << context;
  EXPECT_EQ(snapshot->analysis.cores_used, oracle.cores_used) << context;
}

void run_sequence(std::uint64_t seed, int steps, Coverage& coverage) {
  const Pool pool = make_pool(seed);
  AdmissionConfig config;
  config.platform = pool.platform;
  AdmissionService service(config);
  std::vector<DagTask> admitted;
  Rng rng(seed * 7919 + 1);

  for (int step = 0; step < steps; ++step) {
    const std::string context =
        "seed " + std::to_string(seed) + " step " + std::to_string(step);
    const bool leave = !admitted.empty() && rng.bernoulli(0.3);
    if (leave) {
      const std::size_t k = rng.index(admitted.size());
      const std::string name = admitted[k].name();
      if (k + 1 < admitted.size()) ++coverage.middle_leaves;
      const AdmissionReply reply = service.leave(name);
      EXPECT_EQ(format_reply(reply),
                "OK " + name + " task '" + name + "' left")
          << context;
      admitted.erase(admitted.begin() + static_cast<std::ptrdiff_t>(k));
      expect_snapshot_matches_oracle(service, admitted, context);
      continue;
    }

    std::vector<const DagTask*> outside;
    for (const DagTask& task : pool.tasks) {
      const bool in = std::any_of(
          admitted.begin(), admitted.end(),
          [&](const DagTask& a) { return a.name() == task.name(); });
      if (!in) outside.push_back(&task);
    }
    const DagTask& task = *outside[rng.index(outside.size())];
    const bool expired = rng.bernoulli(0.15);

    std::vector<int> cores_before;
    for (const auto& t : service.snapshot()->analysis.tasks) {
      cores_before.push_back(t.cores);
    }
    bool cut = false;
    const std::string expected =
        expired ? oracle_expired_reply(pool.platform, admitted, task, &cut)
                : oracle_admit_reply(pool.platform, admitted, task);
    const AdmissionReply reply = service.admit(
        task, expired ? util::Deadline::after_seconds(-1.0)
                      : util::Deadline::never());
    EXPECT_EQ(format_reply(reply), expected) << context;
    if (expired && cut) {
      ++coverage.budget_cuts;
      EXPECT_NE(reply.decision, Decision::kAdmitted) << context;
    }
    if (reply.decision == Decision::kRejected) {
      ++coverage.rejections;
      if (expected.find("(R = 0)") != std::string::npos) {
        ++coverage.full_platform;
      }
    }
    if (reply.decision == Decision::kAdmitted) {
      admitted.push_back(task);
      if (testing::volume_on(task.dag(), graph::kHostDevice) <
          task.dag().volume()) {
        ++coverage.device_admits;
      } else {
        ++coverage.host_admits;
      }
      const auto& tasks = service.snapshot()->analysis.tasks;
      for (std::size_t i = 0; i < cores_before.size(); ++i) {
        if (tasks[i].cores > cores_before[i]) {
          ++coverage.pushes;
          break;
        }
      }
      coverage.reused += static_cast<int>(
          service.snapshot()->analysis.telemetry.reused);
    }
    expect_snapshot_matches_oracle(service, admitted, context);
  }
}

TEST(IncrementalAdmissionTest, RandomSequencesMatchTheFromScratchOracle) {
  Coverage coverage;
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u, 15u, 16u}) {
    run_sequence(seed, 100, coverage);
  }
  EXPECT_GT(coverage.host_admits, 0);
  EXPECT_GT(coverage.device_admits, 0);
  EXPECT_GT(coverage.middle_leaves, 0);
  EXPECT_GT(coverage.pushes, 0) << "no device ADMIT pushed an earlier "
                                   "sharer onto more cores";
  EXPECT_GT(coverage.rejections, 0);
  EXPECT_GT(coverage.full_platform, 0);
  EXPECT_GT(coverage.budget_cuts, 0);
  EXPECT_GT(coverage.reused, 0);
}

/// A fork of `width` parallel host nodes of `wcet` between two unit nodes,
/// plus one `gpu`-tick node on device 1 beside them when gpu > 0.
graph::Dag fork_dag(int width, graph::Time wcet, graph::Time gpu) {
  graph::Dag dag;
  const auto source = dag.add_node(1);
  const auto sink = dag.add_node(1);
  for (int i = 0; i < width; ++i) {
    const auto v = dag.add_node(wcet);
    dag.add_edge(source, v);
    dag.add_edge(v, sink);
  }
  if (gpu > 0) {
    const auto v = dag.add_node_on(gpu, 1);
    dag.add_edge(source, v);
    dag.add_edge(v, sink);
  }
  return dag;
}

TEST(IncrementalAdmissionTest, DeviceAdmitPushingASharerStarvesALaterTask) {
  // A shares the GPU with the candidate B; H is host-only and sits between
  // them.  B's carry-in pushes A from 2 cores to all 6, so H — whose own
  // competitor set did not change — no longer fits in the cores left
  // before it and must be re-solved, not carried over.
  const model::Platform platform = model::Platform::parse("6:gpu");
  const DagTask a(fork_dag(4, 4, 2), 100, 14, "A");
  const DagTask h(fork_dag(4, 10, 0), 100, 26, "H");
  const DagTask b(fork_dag(1, 1, 2), 15, 15, "B");
  AdmissionConfig config;
  config.platform = platform;
  AdmissionService service(config);
  ASSERT_EQ(service.admit(a).decision, Decision::kAdmitted);
  ASSERT_EQ(service.admit(h).decision, Decision::kAdmitted);
  const taskset::ContentionAnalysis before = service.snapshot()->analysis;
  ASSERT_EQ(before.tasks[0].cores, 2);
  ASSERT_EQ(before.tasks[1].cores, 3);

  const taskset::ContentionAnalysis pushed =
      testing::oracle::contention_rta(set_of(platform, {a, h, b}));
  ASSERT_GT(pushed.tasks[0].cores, before.tasks[0].cores)
      << "fixture no longer pushes the sharer";
  ASSERT_FALSE(pushed.tasks[1].schedulable)
      << "fixture no longer starves the later task";

  const AdmissionReply reply = service.admit(b);
  EXPECT_EQ(format_reply(reply), oracle_admit_reply(platform, {a, h}, b));
  EXPECT_NE(reply.detail.find("task 'H'"), std::string::npos) << reply.detail;
  expect_snapshot_matches_oracle(service, {a, h}, "after the rejected push");

  // With H gone, A still takes all six cores under B's carry-in, so B is
  // refused for want of a core — the verdict now names B itself.
  EXPECT_EQ(service.leave("H").decision, Decision::kOk);
  expect_snapshot_matches_oracle(service, {a}, "after H left");
  const AdmissionReply again = service.admit(b);
  EXPECT_EQ(format_reply(again), oracle_admit_reply(platform, {a}, b));
  EXPECT_NE(again.detail.find("task 'B'"), std::string::npos) << again.detail;
  expect_snapshot_matches_oracle(service, {a}, "after B's second try");
}

TEST(IncrementalAdmissionTest, ReuseIsVisibleInTheMetrics) {
  // Three host-only tasks share nothing: each ADMIT solves only the
  // newcomer and carries the earlier verdicts over, which a METRICS scrape
  // shows as taskset.rta.reused (0 + 1 + 2) against 3 solves.
  obs::set_enabled(true);
  obs::reset_values();
  AdmissionConfig config;
  config.platform = model::Platform::parse("8:gpu");
  AdmissionService service(config);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(service.admit(DagTask(fork_dag(2, 3, 0), 100, 100,
                                    "t" + std::to_string(i)))
                  .decision,
              Decision::kAdmitted);
  }
  EXPECT_EQ(obs::counter("taskset.rta.reused").value(), 3u);
  EXPECT_EQ(obs::counter("taskset.rta.fixpoint_solves").value(), 3u);
  EXPECT_EQ(obs::counter("taskset.rta.analyses").value(), 3u);
  const std::string text =
      testing::explain_fixpoint(service.snapshot()->analysis);
  EXPECT_NE(text.find("solves=1 "), std::string::npos) << text;
  EXPECT_NE(text.find(" reused=2\n"), std::string::npos) << text;
  obs::set_enabled(false);
  obs::reset_values();
}

TEST(IncrementalAdmissionTest, FromScratchAnalysisMatchesTheOracle) {
  // contention_rta with no prior state is the same engine: identical
  // verdict text and identical solve / iteration / seed-evaluation counts,
  // on arena-backed generated sets and on their eager copies.
  for (const int devices : {0, 1, 2, 3}) {
    for (const int units : {1, 2}) {
      taskset::TaskSetGenConfig config;
      config.num_tasks = 6;
      config.total_utilization = 2.5;
      config.dag_params.max_depth = 3;
      config.dag_params.n_par = 4;
      config.dag_params.min_nodes = 8;
      config.dag_params.max_nodes = 24;
      config.dag_params.num_devices = devices;
      config.coff_ratio = 0.3;
      config.cores = 10;
      config.device_units.assign(static_cast<std::size_t>(devices), units);
      for (const TaskSet& arena :
           taskset::generate_taskset_batch(config, 4, 300 + devices)) {
        std::vector<DagTask> copies;
        for (const DagTask& t : arena) copies.push_back(eager(t, t.name()));
        for (const TaskSet& set : {arena, set_of(arena.platform(), copies)}) {
          const auto library = taskset::contention_rta(set);
          const auto oracle = testing::oracle::contention_rta(set);
          EXPECT_EQ(testing::explain(library, set),
                    testing::explain(oracle, set));
          EXPECT_EQ(library.telemetry.fixpoint_solves,
                    oracle.telemetry.fixpoint_solves);
          EXPECT_EQ(library.telemetry.iterations,
                    oracle.telemetry.iterations);
          EXPECT_EQ(library.telemetry.seed_evals,
                    oracle.telemetry.seed_evals);
          EXPECT_EQ(library.telemetry.int_path, oracle.telemetry.int_path);
          EXPECT_EQ(library.telemetry.reused, 0u);
        }
      }
    }
  }
}

}  // namespace
}  // namespace hedra::serve
