#include "graph/critical_path.h"

#include <gtest/gtest.h>

#include "common/fixtures.h"

namespace hedra::graph {
namespace {

TEST(CriticalPathTest, PaperExampleLenIs8) {
  const auto ex = testing::paper_example();
  EXPECT_EQ(critical_path_length(ex.dag), 8);
}

TEST(CriticalPathTest, UpDownValues) {
  const auto ex = testing::paper_example();
  const CriticalPathInfo info(ex.dag);
  EXPECT_EQ(info.up(ex.v1), 1);
  EXPECT_EQ(info.up(ex.v3), 7);
  EXPECT_EQ(info.up(ex.v5), 8);
  EXPECT_EQ(info.down(ex.v5), 1);
  EXPECT_EQ(info.down(ex.v3), 7);
  EXPECT_EQ(info.down(ex.v1), 8);
  EXPECT_EQ(info.down(ex.v4), 7);  // v4 + vOff + v5 = 2 + 4 + 1
}

TEST(CriticalPathTest, OnCriticalPathMembership) {
  const auto ex = testing::paper_example();
  const CriticalPathInfo info(ex.dag);
  EXPECT_TRUE(info.on_critical_path(ex.dag, ex.v1));
  EXPECT_TRUE(info.on_critical_path(ex.dag, ex.v3));
  EXPECT_TRUE(info.on_critical_path(ex.dag, ex.v5));
  // v1-v4-vOff-v5 also sums to 8, so these tie onto a critical path too.
  EXPECT_TRUE(info.on_critical_path(ex.dag, ex.v4));
  EXPECT_TRUE(info.on_critical_path(ex.dag, ex.voff));
  // v2's best path is 1 + 4 + 1 = 6 < 8.
  EXPECT_FALSE(info.on_critical_path(ex.dag, ex.v2));
}

TEST(CriticalPathTest, ChainLenEqualsVolume) {
  const Dag dag = testing::chain(5, 3);
  EXPECT_EQ(critical_path_length(dag), 15);
}

TEST(CriticalPathTest, DiamondTakesLongerBranch) {
  const Dag dag = testing::diamond(1, 10, 2, 1);
  EXPECT_EQ(critical_path_length(dag), 12);
  const CriticalPathInfo info(dag);
  EXPECT_TRUE(info.on_critical_path(dag, 1));   // node "a" with WCET 10
  EXPECT_FALSE(info.on_critical_path(dag, 2));  // node "b" with WCET 2
}

TEST(CriticalPathTest, SingleNode) {
  Dag dag;
  dag.add_node(7);
  EXPECT_EQ(critical_path_length(dag), 7);
}

TEST(CriticalPathTest, EmptyGraph) {
  const Dag dag;
  EXPECT_EQ(critical_path_length(dag), 0);
}

TEST(CriticalPathTest, ZeroWcetNodesDoNotStretchPath) {
  Dag dag;
  const NodeId s = dag.add_node(0, NodeKind::kSync);
  const NodeId a = dag.add_node(5);
  const NodeId t = dag.add_node(0, NodeKind::kSync);
  dag.add_edge(s, a);
  dag.add_edge(a, t);
  EXPECT_EQ(critical_path_length(dag), 5);
}

TEST(CriticalPathTest, DisconnectedComponentsTakeMax) {
  Dag dag;
  const NodeId a = dag.add_node(3);
  const NodeId b = dag.add_node(4);
  dag.add_edge(a, b);
  dag.add_node(10);  // isolated long node
  EXPECT_EQ(critical_path_length(dag), 10);
}

TEST(CriticalPathTest, MultiSourceMultiSink) {
  // G_par subgraphs routinely have several sources/sinks.
  Dag dag;
  const NodeId a = dag.add_node(2);
  const NodeId b = dag.add_node(3);
  const NodeId c = dag.add_node(4);
  dag.add_edge(a, c);
  dag.add_edge(b, c);
  const NodeId d = dag.add_node(1);
  dag.add_edge(b, d);
  EXPECT_EQ(critical_path_length(dag), 7);  // b -> c
}

}  // namespace
}  // namespace hedra::graph
