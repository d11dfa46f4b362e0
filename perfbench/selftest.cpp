/// \file selftest.cpp
/// The benchmark's own self-tests: the percentile helper and its
/// samples-beyond count, the admit referee rejecting a corrupted expected
/// reply (and accepting the service's real one), and the exact_proof shape
/// check rejecting an instance that closed at the root.

#include <iostream>
#include <string>
#include <vector>

#include "common.h"
#include "exact/bnb.h"
#include "exp/experiment.h"
#include "graph/dag_io.h"
#include "model/platform.h"
#include "serve/admission.h"
#include "serve/protocol.h"
#include "taskset/contention_rta.h"
#include "taskset/gen.h"
#include "util/rng.h"

namespace perfbench {

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "  ok   " : "  FAIL ") << what << "\n";
  if (!ok) ++g_failures;
}

void test_percentile() {
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  expect(percentile(hundred, 50.0) == 50.5, "p50 of 1..100 is 50.5");
  expect(percentile(hundred, 0.0) == 1.0 && percentile(hundred, 100.0) == 100,
         "p0/p100 are the extremes");
  expect(samples_beyond(hundred, 99.0) == 1,
         "1 of 100 samples lies beyond p99");
  std::vector<double> thousand;
  for (int i = 1000; i >= 1; --i) thousand.push_back(i);  // unsorted input
  expect(samples_beyond(thousand, 99.0) == 10,
         "10 of 1000 samples lie beyond p99");
  expect(percentile({7.0}, 99.0) == 7.0, "a single sample is every pct");
  expect(median({3.0, 1.0, 2.0, 10.0}) == 2.5, "median of an even count");
}

void test_admit_referee() {
  hedra::taskset::TaskSetGenConfig config;
  config.num_tasks = 5;
  config.total_utilization = 0.5;
  config.dag_params.max_depth = 3;
  config.dag_params.n_par = 4;
  config.dag_params.min_nodes = 10;
  config.dag_params.max_nodes = 30;
  config.dag_params.num_devices = 2;
  config.cores = 16;
  hedra::Rng rng(7);
  const hedra::taskset::TaskSet drawn =
      hedra::taskset::generate_task_set(config, rng);
  // Warm: the tasks the real service admits, in order, of all but the
  // last drawn task; the last one is the candidate.
  hedra::serve::AdmissionConfig service_config;
  service_config.platform = drawn.platform();
  hedra::serve::AdmissionService service(service_config);
  hedra::taskset::TaskSet warm(drawn.platform());
  for (std::size_t i = 0; i + 1 < drawn.size(); ++i) {
    if (service.admit(drawn[i]).decision ==
        hedra::serve::Decision::kAdmitted) {
      warm.add(drawn[i]);
    }
  }
  expect(!warm.empty(), "self-test warm set admits a task");
  const hedra::model::DagTask& candidate = drawn[drawn.size() - 1];
  const std::string actual =
      hedra::serve::format_reply(service.admit(candidate));
  const std::string expected = expected_admit_reply(warm, candidate, nullptr);
  expect(expected == actual,
         "referee's expected reply equals the service's: " + actual);

  // Corrupt one digit after the task name (cores= for an admission).
  std::string corrupted = expected;
  const auto digit = corrupted.find_first_of("0123456789",
                                             corrupted.find(' ', 9));
  if (digit != std::string::npos) {
    corrupted[digit] = corrupted[digit] == '9' ? '8' : '9';
  }
  expect(corrupted != actual, "referee rejects a corrupted expected reply");
}

void test_exact_shape() {
  hedra::exact::BnbResult root_closed;
  root_closed.proven_optimal = true;
  root_closed.nodes_explored = 0;
  expect(!exact_instance_shape_ok(root_closed, 1),
         "shape check rejects an instance closed at the root");

  // A real instance the root bound closes: a single host node.
  hedra::graph::Dag single = hedra::graph::read_dag_text("node v1 5\n");
  const hedra::exact::BnbResult solved =
      hedra::exact::min_makespan(single, 2, {});
  expect(solved.proven_optimal && !exact_instance_shape_ok(solved, 1),
         "shape check rejects a real root-closed solve");

  hedra::exact::BnbResult searched;
  searched.proven_optimal = true;
  searched.nodes_explored = 200;
  searched.worker_stats.resize(1);
  expect(exact_instance_shape_ok(searched, 100),
         "shape check accepts a searched instance above the floor");
  expect(!exact_instance_shape_ok(searched, 1000),
         "shape check rejects an instance below the floor");
  searched.proven_optimal = false;
  expect(!exact_instance_shape_ok(searched, 100),
         "shape check rejects an unproven instance");
}

}  // namespace

int run_self_tests() {
  g_failures = 0;
  std::cout << "percentile helper\n";
  test_percentile();
  std::cout << "admit referee\n";
  test_admit_referee();
  std::cout << "exact_proof shape check\n";
  test_exact_shape();
  return g_failures;
}

}  // namespace perfbench
