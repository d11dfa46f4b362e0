#include "graph/algorithms.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/fixtures.h"
#include "util/error.h"
#include "util/rng.h"

namespace hedra::graph {
namespace {

TEST(TopologicalOrderTest, RespectsEdges) {
  const auto ex = testing::paper_example();
  const auto order = topological_order(ex.dag);
  ASSERT_EQ(order.size(), ex.dag.num_nodes());
  std::vector<std::size_t> pos(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (const auto& [u, w] : ex.dag.edges()) EXPECT_LT(pos[u], pos[w]);
}

TEST(TopologicalOrderTest, DeterministicSmallestIdFirst) {
  Dag dag;
  const NodeId a = dag.add_node(1);
  const NodeId b = dag.add_node(1);
  const NodeId c = dag.add_node(1);
  (void)a;
  (void)b;
  (void)c;
  // Three isolated nodes: order must be by id.
  EXPECT_EQ(topological_order(dag), (std::vector<NodeId>{0, 1, 2}));
}

TEST(TopologicalOrderTest, CycleThrows) {
  Dag dag;
  const NodeId a = dag.add_node(1);
  const NodeId b = dag.add_node(1);
  dag.add_edge(a, b);
  dag.add_edge(b, a);
  EXPECT_THROW(topological_order(dag), Error);
  EXPECT_FALSE(is_acyclic(dag));
}

TEST(ReachabilityTest, AncestorsOfPaperVoff) {
  const auto ex = testing::paper_example();
  const auto pred = ancestors(ex.dag, ex.voff);
  EXPECT_EQ(pred.to_indices(),
            (std::vector<std::size_t>{ex.v1, ex.v4}));
}

TEST(ReachabilityTest, DescendantsOfPaperVoff) {
  const auto ex = testing::paper_example();
  const auto succ = descendants(ex.dag, ex.voff);
  EXPECT_EQ(succ.to_indices(), (std::vector<std::size_t>{ex.v5}));
}

TEST(ReachabilityTest, SelfIsExcluded) {
  const auto ex = testing::paper_example();
  EXPECT_FALSE(ancestors(ex.dag, ex.v3).test(ex.v3));
  EXPECT_FALSE(descendants(ex.dag, ex.v3).test(ex.v3));
}

TEST(ReachabilityTest, ReachableQueries) {
  const auto ex = testing::paper_example();
  EXPECT_TRUE(descendants(ex.dag, ex.v1).test(ex.v5));
  EXPECT_TRUE(descendants(ex.dag, ex.v4).test(ex.voff));
  EXPECT_FALSE(descendants(ex.dag, ex.v2).test(ex.v3));
  EXPECT_FALSE(descendants(ex.dag, ex.v5).test(ex.v1));
}

TEST(TransitiveClosureTest, MatchesPairwiseReachability) {
  const auto ex = testing::fig3_example();
  const auto reach = transitive_closure(ex.dag);
  for (NodeId u = 0; u < ex.dag.num_nodes(); ++u) {
    for (NodeId w = 0; w < ex.dag.num_nodes(); ++w) {
      if (u == w) continue;
      EXPECT_EQ(reach[u].test(w), descendants(ex.dag, u).test(w))
          << ex.dag.label(u) << " -> " << ex.dag.label(w);
    }
  }
}

TEST(TransitiveEdgesTest, CleanGraphHasNone) {
  const auto ex = testing::paper_example();
  EXPECT_TRUE(transitive_edges(ex.dag).empty());
}

TEST(TransitiveEdgesTest, DetectsShortcut) {
  Dag dag = testing::chain(3, 1);
  dag.add_edge(0, 2);  // shortcut over the chain
  const auto edges = transitive_edges(dag);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges.front(), std::make_pair(NodeId{0}, NodeId{2}));
}

TEST(TransitiveReductionTest, RemovesOnlyRedundantEdges) {
  Dag dag = testing::chain(4, 1);
  dag.add_edge(0, 2);
  dag.add_edge(1, 3);
  dag.add_edge(0, 3);
  const Dag reduced = transitive_reduction(dag);
  EXPECT_EQ(reduced.num_nodes(), dag.num_nodes());
  EXPECT_EQ(reduced.num_edges(), 3u);  // only the chain remains
  EXPECT_TRUE(transitive_edges(reduced).empty());
  // Reachability is preserved.
  for (NodeId u = 0; u < dag.num_nodes(); ++u) {
    for (NodeId w = 0; w < dag.num_nodes(); ++w) {
      if (u == w) continue;
      EXPECT_EQ(descendants(dag, u).test(w), descendants(reduced, u).test(w));
    }
  }
}

TEST(TransitiveReductionTest, RandomDenseGraphs) {
  // Regression for the sorted-lookup rewrite (the historical linear
  // std::find made reduction O(E·R)): dense random id-ordered DAGs carry
  // hundreds of redundant edges; reduction must drop exactly the
  // transitive ones and preserve reachability.
  Rng rng(0xA1507);
  for (int round = 0; round < 5; ++round) {
    Dag dag;
    const int n = 40;
    for (int v = 0; v < n; ++v) dag.add_node(1 + (v % 7));
    for (NodeId u = 0; u < static_cast<NodeId>(n); ++u) {
      for (NodeId w = u + 1; w < static_cast<NodeId>(n); ++w) {
        if (rng.bernoulli(0.15)) dag.add_edge(u, w);
      }
    }
    const std::size_t redundant = transitive_edges(dag).size();
    const Dag reduced = transitive_reduction(dag);
    EXPECT_EQ(reduced.num_edges(), dag.num_edges() - redundant);
    EXPECT_TRUE(transitive_edges(reduced).empty());
    for (NodeId u = 0; u < dag.num_nodes(); ++u) {
      for (NodeId w = 0; w < dag.num_nodes(); ++w) {
        if (u == w) continue;
        ASSERT_EQ(descendants(dag, u).test(w), descendants(reduced, u).test(w))
            << "round " << round << ": " << u << " -> " << w;
      }
    }
  }
}

TEST(TransitiveReductionTest, PreservesLabelsAndKinds) {
  auto ex = testing::paper_example();
  const Dag reduced = transitive_reduction(ex.dag);
  for (NodeId v = 0; v < ex.dag.num_nodes(); ++v) {
    EXPECT_EQ(reduced.label(v), ex.dag.label(v));
    EXPECT_EQ(reduced.kind(v), ex.dag.kind(v));
    EXPECT_EQ(reduced.wcet(v), ex.dag.wcet(v));
  }
}

TEST(ReachabilityTest, DiamondClosure) {
  const Dag dag = testing::diamond(1, 2, 3, 4);
  EXPECT_EQ(ancestors(dag, 3).count(), 3u);
  EXPECT_EQ(descendants(dag, 0).count(), 3u);
  EXPECT_EQ(ancestors(dag, 1).to_indices(), (std::vector<std::size_t>{0}));
}

}  // namespace
}  // namespace hedra::graph
