/// \file snapshot_concurrency_test.cpp
/// Successive snapshots share task graphs and seed lists, so a reader
/// walking an old snapshot and the writer building the next one touch the
/// same storage.  Readers here walk snapshot()->set, its analysis and its
/// memo while the writer admits and leaves; the ThreadSanitizer job runs
/// this suite to prove the sharing is read-only.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "graph/dag_io.h"
#include "serve/admission.h"

namespace hedra::serve {
namespace {

model::DagTask make_task(int i) {
  graph::Dag dag;
  const auto a = dag.add_node(3 + i % 5);
  const auto b = dag.add_node(2 + i % 3);
  dag.add_edge(a, b);
  if (i % 3 == 0) {
    // Every third task shares the device class, so its peers re-solve.
    const auto c = dag.add_node_on(4, 1);
    dag.add_edge(a, c);
  }
  std::string name = "t";
  name += std::to_string(i);
  return model::DagTask(std::move(dag), 400, 300, std::move(name));
}

TEST(SnapshotConcurrencyTest, ReadersWalkSharedSnapshotsWhileWriterMutates) {
  AdmissionConfig config;
  config.platform = model::Platform::parse("64:gpu*2");
  AdmissionService service(config);

  std::atomic<bool> stop{false};
  std::atomic<int> inconsistencies{0};
  std::atomic<long> reads{0};
  const auto reader = [&] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::shared_ptr<const Snapshot> snapshot = service.snapshot();
      const taskset::TaskSet& set = snapshot->set;
      long nodes = 0;
      for (const model::DagTask& task : set) {
        nodes += static_cast<long>(task.dag().num_nodes());
      }
      if (!set.empty()) {
        const auto& tasks = snapshot->analysis.tasks;
        bool ok = tasks.size() == set.size() &&
                  snapshot->memo.seeds.size() == set.size() &&
                  snapshot->analysis.schedulable;
        for (std::size_t i = 0; ok && i < set.size(); ++i) {
          ok = tasks[i].name == set[i].name() && tasks[i].cores >= 1 &&
               snapshot->memo.seeds[i] != nullptr &&
               snapshot->memo.seeds[i]->size() >=
                   static_cast<std::size_t>(tasks[i].cores);
        }
        ok = ok && nodes >= static_cast<long>(2 * set.size()) &&
             !graph::write_dag_text(set[set.size() - 1].dag()).empty();
        if (!ok) inconsistencies.fetch_add(1, std::memory_order_relaxed);
      }
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) readers.emplace_back(reader);

  int admitted = 0;
  for (int i = 0; i < 60; ++i) {
    if (service.admit(make_task(i)).decision == Decision::kAdmitted) {
      ++admitted;
    }
    if (i % 4 == 3) {
      // Leave from the middle of the set.
      const auto snapshot = service.snapshot();
      const std::string name = snapshot->set[snapshot->set.size() / 2].name();
      EXPECT_EQ(service.leave(name).decision, Decision::kOk);
      --admitted;
    }
  }
  // Give the readers a last look at the final state before stopping.
  while (reads.load(std::memory_order_relaxed) < 100) std::this_thread::yield();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(inconsistencies.load(), 0);
  EXPECT_EQ(service.snapshot()->set.size(),
            static_cast<std::size_t>(admitted));
  EXPECT_GT(admitted, 0);
}

}  // namespace
}  // namespace hedra::serve
