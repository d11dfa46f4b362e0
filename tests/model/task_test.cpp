#include "model/task.h"

#include <gtest/gtest.h>

#include "common/fixtures.h"
#include "util/error.h"

namespace hedra::model {
namespace {

TEST(TaskTest, StoresComponents) {
  const auto ex = testing::paper_example();
  const DagTask task(ex.dag, /*period=*/30, /*deadline=*/20, "demo");
  EXPECT_EQ(task.period(), 30);
  EXPECT_EQ(task.deadline(), 20);
  EXPECT_EQ(task.name(), "demo");
  EXPECT_EQ(task.dag().num_nodes(), 6u);
}

TEST(TaskTest, ConstrainedDeadlineEnforced) {
  const auto ex = testing::paper_example();
  EXPECT_THROW(DagTask(ex.dag, /*period=*/10, /*deadline=*/20), Error);
  EXPECT_THROW(DagTask(ex.dag, /*period=*/10, /*deadline=*/0), Error);
}

TEST(TaskTest, MutableDagAllowsCoffSweeps) {
  // A task's graph is immutable: a C_off sweep edits a copy of the graph
  // and builds a new task from it.
  const auto ex = testing::paper_example();
  Dag dag = ex.dag;
  dag.set_wcet(ex.voff, 10);
  const DagTask task(std::move(dag), 100, 100);
  EXPECT_EQ(task.dag().wcet(ex.voff), 10);
  EXPECT_EQ(task.dag().volume(), 24);
}

TEST(TaskTest, CopiesShareTheGraph) {
  const auto ex = testing::paper_example();
  const DagTask original(ex.dag, 100, 100, "tau");
  const DagTask copy = original;
  // A copy is a handle: both tasks read the same graph.
  EXPECT_EQ(&copy.dag(), &original.dag());
}

}  // namespace
}  // namespace hedra::model
