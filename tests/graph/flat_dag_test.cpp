#include "graph/flat_dag.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/critical_path_oracle.h"
#include "common/fixtures.h"
#include "graph/algorithms.h"
#include "graph/critical_path.h"

namespace hedra::graph {
namespace {

TEST(FlatDagTest, MirrorsAdjacencyAttributesAndCounts) {
  Dag dag;
  const auto a = dag.add_node(3);
  const auto b = dag.add_node_on(5, 2, "gpu");
  const auto c = dag.add_node(0, NodeKind::kSync);
  const auto d = dag.add_node(7);
  dag.add_edge(a, b);
  dag.add_edge(a, c);
  dag.add_edge(b, d);
  dag.add_edge(c, d);

  const FlatDag snapshot(dag);
  const FlatView flat = snapshot.view();
  EXPECT_EQ(flat.source(), &dag);
  EXPECT_EQ(flat.num_nodes(), dag.num_nodes());
  EXPECT_EQ(flat.num_edges(), dag.num_edges());
  EXPECT_EQ(flat.max_device(), 2);
  EXPECT_EQ(flat.num_offload_nodes(), 1u);
  for (NodeId v = 0; v < dag.num_nodes(); ++v) {
    EXPECT_EQ(flat.wcet(v), dag.wcet(v));
    EXPECT_EQ(flat.device(v), dag.device(v));
    EXPECT_EQ(flat.kind(v), dag.kind(v));
    EXPECT_EQ(flat.in_degree(v), dag.in_degree(v));
    EXPECT_EQ(flat.out_degree(v), dag.out_degree(v));
    const auto succ = flat.successors(v);
    ASSERT_EQ(succ.size(), dag.successors(v).size());
    for (std::size_t i = 0; i < succ.size(); ++i) {
      EXPECT_EQ(succ[i], dag.successors(v)[i]);
    }
    const auto pred = flat.predecessors(v);
    ASSERT_EQ(pred.size(), dag.predecessors(v).size());
    for (std::size_t i = 0; i < pred.size(); ++i) {
      EXPECT_EQ(pred[i], dag.predecessors(v)[i]);
    }
  }
  EXPECT_TRUE(flat.is_sync(c));
  EXPECT_FALSE(flat.is_sync(b));
}

TEST(FlatDagTest, TopologicalOrderMatchesDagAlgorithm) {
  const Dag dag = hedra::testing::s21_example();
  const FlatDag flat(dag);
  EXPECT_TRUE(std::ranges::equal(flat.view().topological_order(),
                                 topological_order(dag)));
}

TEST(FlatDagTest, ThrowsOnCycle) {
  Dag dag;
  const auto a = dag.add_node(1);
  const auto b = dag.add_node(1);
  dag.add_edge(a, b);
  dag.add_edge(b, a);
  EXPECT_THROW(FlatDag flat(dag), Error);
}

TEST(FlatDagTest, CriticalPathInfoMatchesDagReference) {
  const Dag dag = hedra::testing::s21_example();
  const FlatDag snapshot(dag);
  const FlatView flat = snapshot.view();
  const auto reference = hedra::testing::reference_paths(dag);
  const CriticalPathInfo from_flat(flat);
  EXPECT_EQ(from_flat.length(), reference.length);
  for (NodeId v = 0; v < dag.num_nodes(); ++v) {
    EXPECT_EQ(from_flat.up(v), reference.up[v]);
    EXPECT_EQ(from_flat.down(v), reference.down[v]);
    EXPECT_EQ(from_flat.on_critical_path(v, dag.wcet(v)),
              reference.on_critical_path(dag, v));
  }
  EXPECT_EQ(critical_path_length(flat), reference.length);
  EXPECT_EQ(critical_path_length(dag), reference.length);
  EXPECT_EQ(down_lengths(flat), reference.down);
}

}  // namespace
}  // namespace hedra::graph
