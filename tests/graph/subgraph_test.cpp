#include "graph/subgraph.h"

#include <gtest/gtest.h>

#include "common/fixtures.h"
#include "util/error.h"

namespace hedra::graph {
namespace {

/// Membership bitset over `dag` holding exactly `members`.
DynamicBitset members_of(const Dag& dag, const std::vector<NodeId>& members) {
  DynamicBitset bits(dag.num_nodes());
  for (const NodeId v : members) bits.set(v);
  return bits;
}

TEST(SubgraphTest, InducesNodesAndInternalEdges) {
  const auto ex = testing::paper_example();
  const Subgraph sub =
      induced_subgraph(ex.dag, members_of(ex.dag, {ex.v2, ex.v3, ex.v5}));
  EXPECT_EQ(sub.dag.num_nodes(), 3u);
  // Internal edges: v2->v5 and v3->v5; v1->v2 etc. are dropped.
  EXPECT_EQ(sub.dag.num_edges(), 2u);
  EXPECT_TRUE(sub.dag.has_edge(sub.from_parent[ex.v2], sub.from_parent[ex.v5]));
  EXPECT_TRUE(sub.dag.has_edge(sub.from_parent[ex.v3], sub.from_parent[ex.v5]));
}

TEST(SubgraphTest, MappingsAreConsistent) {
  const auto ex = testing::paper_example();
  const Subgraph sub =
      induced_subgraph(ex.dag, members_of(ex.dag, {ex.v2, ex.v3}));
  ASSERT_EQ(sub.to_parent.size(), 2u);
  for (NodeId nv = 0; nv < sub.dag.num_nodes(); ++nv) {
    EXPECT_EQ(sub.from_parent[sub.to_parent[nv]], nv);
  }
  EXPECT_EQ(sub.from_parent[ex.v1], kInvalidNode);
  EXPECT_EQ(sub.from_parent[ex.voff], kInvalidNode);
}

TEST(SubgraphTest, PreservesAttributes) {
  const auto ex = testing::paper_example();
  const Subgraph sub =
      induced_subgraph(ex.dag, members_of(ex.dag, {ex.v3, ex.voff}));
  const NodeId nv3 = sub.from_parent[ex.v3];
  const NodeId nvoff = sub.from_parent[ex.voff];
  EXPECT_EQ(sub.dag.wcet(nv3), 6);
  EXPECT_EQ(sub.dag.label(nv3), "v3");
  EXPECT_EQ(sub.dag.kind(nvoff), NodeKind::kOffload);
}

TEST(SubgraphTest, EmptySelection) {
  const auto ex = testing::paper_example();
  const Subgraph sub =
      induced_subgraph(ex.dag, DynamicBitset(ex.dag.num_nodes()));
  EXPECT_EQ(sub.dag.num_nodes(), 0u);
  EXPECT_EQ(sub.dag.num_edges(), 0u);
}

TEST(SubgraphTest, FullSelectionCopiesGraph) {
  const auto ex = testing::paper_example();
  std::vector<NodeId> all;
  for (NodeId v = 0; v < ex.dag.num_nodes(); ++v) all.push_back(v);
  const Subgraph sub = induced_subgraph(ex.dag, members_of(ex.dag, all));
  EXPECT_EQ(sub.dag.num_nodes(), ex.dag.num_nodes());
  EXPECT_EQ(sub.dag.num_edges(), ex.dag.num_edges());
}

TEST(SubgraphTest, BitsetSizeMismatchThrows) {
  const auto ex = testing::paper_example();
  EXPECT_THROW((void)induced_subgraph(ex.dag, DynamicBitset(3)), Error);
}

}  // namespace
}  // namespace hedra::graph
