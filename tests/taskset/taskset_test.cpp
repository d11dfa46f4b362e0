#include "taskset/taskset.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/dag_io.h"
#include "util/error.h"

namespace hedra::taskset {
namespace {

graph::Dag two_node_dag(graph::Time host_wcet, graph::Time offload_wcet,
                        graph::DeviceId device) {
  graph::Dag dag;
  const auto a = dag.add_node(host_wcet);
  const auto b = dag.add_node_on(offload_wcet, device);
  dag.add_edge(a, b);
  return dag;
}

TaskSet small_set() {
  TaskSet set(Platform::parse("4:gpu*2,dsp"));
  set.add(DagTask(two_node_dag(6, 4, 1), 100, 80, "tau1"));
  set.add(DagTask(two_node_dag(3, 5, 2), 50, 50, "tau2"));
  return set;
}

TEST(TaskSetTest, ValidatesCleanSet) {
  EXPECT_NO_THROW(small_set().validate());
}

TEST(TaskSetTest, RejectsUnsupportedDevicePlacement) {
  TaskSet set(Platform::parse("4:gpu"));
  set.add(DagTask(two_node_dag(6, 4, 2), 100, 80, "tau1"));  // no device 2
  EXPECT_THROW(set.validate(), Error);
}

TEST(TaskSetTest, RejectsDuplicateAndWhitespaceNames) {
  TaskSet duplicate(Platform::parse("2:gpu"));
  duplicate.add(DagTask(two_node_dag(6, 4, 1), 100, 80, "tau"));
  duplicate.add(DagTask(two_node_dag(3, 5, 1), 50, 50, "tau"));
  EXPECT_THROW(duplicate.validate(), Error);

  TaskSet spaced(Platform::parse("2:gpu"));
  spaced.add(DagTask(two_node_dag(6, 4, 1), 100, 80, "tau one"));
  EXPECT_THROW(spaced.validate(), Error);
}

std::string validate_error(const TaskSet& set) {
  try {
    set.validate();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(TaskSetTest, DuplicateErrorNamesTheFirstRepeatingIndex) {
  // Non-adjacent duplicates: index 3 ('b') is the first whose name repeats
  // an earlier one, ahead of index 4 ('a') even though 'a' came first.
  TaskSet set(Platform::parse("2:gpu"));
  for (const char* name : {"a", "b", "c", "b", "a"}) {
    set.add(DagTask(two_node_dag(6, 4, 1), 100, 80, name));
  }
  EXPECT_NE(validate_error(set).find("duplicate task name 'b'"),
            std::string::npos)
      << validate_error(set);
}

TEST(TaskSetTest, ValidateTaskMatchesValidateMessages) {
  const TaskSet base = small_set();
  const std::vector<DagTask> bad = {
      DagTask(two_node_dag(6, 4, 1), 100, 80, "tau one"),
      DagTask(two_node_dag(6, 4, 3), 100, 80, "tau3"),  // no device 3
      DagTask(two_node_dag(6, 4, 1), 100, 80, ""),
  };
  for (const DagTask& task : bad) {
    std::string single;
    try {
      base.validate_task(task);
    } catch (const Error& e) {
      single = e.what();
    }
    EXPECT_FALSE(single.empty()) << task.name();
    EXPECT_EQ(single, validate_error(base.with_appended(task)));
  }
  EXPECT_NO_THROW(
      base.validate_task(DagTask(two_node_dag(6, 4, 2), 100, 80, "tau3")));
}

TEST(TaskSetTest, WithAppendedAndWithoutShareTheTasks) {
  const TaskSet base = small_set();
  const TaskSet grown =
      base.with_appended(DagTask(two_node_dag(1, 2, 1), 40, 40, "tau3"));
  ASSERT_EQ(grown.size(), 3u);
  EXPECT_EQ(&grown[0].dag(), &base[0].dag());  // handle copies, no graph copy
  EXPECT_EQ(grown[2].name(), "tau3");
  const TaskSet shrunk = grown.without(0);
  ASSERT_EQ(shrunk.size(), 2u);
  EXPECT_EQ(shrunk[0].name(), "tau2");
  EXPECT_EQ(shrunk[1].name(), "tau3");
  EXPECT_THROW((void)shrunk.without(2), Error);
}

TEST(TaskSetTest, TextRoundTripIsExact) {
  const TaskSet set = small_set();
  const std::string text = set.to_text();
  const TaskSet parsed = TaskSet::from_text(text);
  // Second serialisation is byte-identical — the round-trip fixpoint.
  EXPECT_EQ(parsed.to_text(), text);
  ASSERT_EQ(parsed.size(), set.size());
  EXPECT_EQ(parsed.platform().spec(), set.platform().spec());
  for (std::size_t i = 0; i < set.size(); ++i) {
    EXPECT_EQ(parsed[i].name(), set[i].name());
    EXPECT_EQ(parsed[i].period(), set[i].period());
    EXPECT_EQ(parsed[i].deadline(), set[i].deadline());
    EXPECT_EQ(graph::write_dag_text(parsed[i].dag()),
              graph::write_dag_text(set[i].dag()));
  }
}

TEST(TaskSetTest, TextCarriesUnitsAndSpeedups) {
  TaskSet set(Platform::parse("8:gpu*2@3.0,dsp@1.5"));
  set.add(DagTask(two_node_dag(6, 4, 1), 100, 80, "tau1"));
  const TaskSet parsed = TaskSet::from_text(set.to_text());
  EXPECT_EQ(parsed.platform().units_of(1), 2);
  EXPECT_EQ(parsed.platform().speedup_of(1), Frac(3));
  EXPECT_EQ(parsed.platform().speedup_of(2), Frac(3, 2));
}

TEST(TaskSetTest, FromTextRejectsMalformedInput) {
  EXPECT_THROW(TaskSet::from_text(""), Error);  // no platform
  EXPECT_THROW(TaskSet::from_text("task t period 5 deadline 5\nendtask\n"),
               Error);  // platform must come first
  EXPECT_THROW(TaskSet::from_text("platform 4:gpu\nplatform 2\n"), Error);
  EXPECT_THROW(
      TaskSet::from_text("platform 4:gpu\ntask t period 5 deadline 5\n"),
      Error);  // missing endtask
  EXPECT_THROW(
      TaskSet::from_text("platform 4:gpu\ntask t period 0 deadline 0\n"
                         "node v1 3\nendtask\n"),
      Error);  // bad period
  EXPECT_THROW(TaskSet::from_text("platform 4:gpu\nbogus directive\n"), Error);
  // Trailing junk on a task header must not silently truncate the value
  // ("40O" previously parsed as deadline 40).
  EXPECT_THROW(
      TaskSet::from_text("platform 4:gpu\ntask t period 50 deadline 40O\n"
                         "node v1 3\nendtask\n"),
      Error);
  EXPECT_THROW(
      TaskSet::from_text("platform 4:gpu\ntask t period 50 deadline 40 x\n"
                         "node v1 3\nendtask\n"),
      Error);
  // Directives match by exact token: near-misses are unknown directives,
  // not silently accepted tasks/platforms.
  EXPECT_THROW(
      TaskSet::from_text("platform 4:gpu\ntasks t period 50 deadline 50\n"
                         "node v1 3\nendtask\n"),
      Error);
  EXPECT_THROW(TaskSet::from_text("platformX 4:gpu\n"), Error);
}

TEST(TaskSetTest, CommentsAndBlankLinesIgnored) {
  const TaskSet parsed = TaskSet::from_text(
      "# a taskset\n\nplatform 2:gpu\n\n# first task\n"
      "task tau1 period 10 deadline 10\nnode v1 3\nendtask\n");
  EXPECT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].period(), 10);
}

}  // namespace
}  // namespace hedra::taskset
