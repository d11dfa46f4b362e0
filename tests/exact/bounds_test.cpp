#include <gtest/gtest.h>

#include "common/fixtures.h"
#include "exact/bnb.h"
#include "graph/critical_path.h"
#include "util/error.h"

/// The solver's root lower bound, BnbResult::root_lower_bound: the max of
/// the critical path, the host area ⌈vol_host/m⌉ and the accelerator's
/// volume (LB <= OPT <= any schedule).

namespace hedra::exact {
namespace {

[[nodiscard]] graph::Time root_bound(const graph::Dag& dag, int m) {
  return min_makespan(dag, m).root_lower_bound;
}

TEST(BoundsTest, ChainDominatedByCriticalPath) {
  // len 20 beats the host area ⌈20/2⌉ = 10.
  EXPECT_EQ(root_bound(testing::chain(4, 5), 2), 20);
}

TEST(BoundsTest, WideGraphDominatedByArea) {
  // len 4 loses to the host area 40/2 = 20.
  graph::Dag dag;
  for (int i = 0; i < 10; ++i) dag.add_node(4);
  EXPECT_EQ(root_bound(dag, 2), 20);
}

TEST(BoundsTest, HostAreaRoundsUp) {
  graph::Dag dag;
  dag.add_node(3);
  dag.add_node(3);
  dag.add_node(3);
  EXPECT_EQ(root_bound(dag, 2), 5);  // ceil(9/2) beats len 3
}

TEST(BoundsTest, PaperExample) {
  // len 8 beats the host area ⌈14/2⌉ = 7 and C_off = 4; the best-case
  // schedule of Figure 1(b) attains exactly this bound.
  const auto ex = testing::paper_example();
  const BnbResult result = min_makespan(ex.dag, 2);
  EXPECT_EQ(result.root_lower_bound, 8);
  EXPECT_EQ(result.makespan, 8);
}

TEST(BoundsTest, AcceleratorAreaCountsAllOffloads) {
  // Both offloads share the one accelerator: 7 + 5 = 12 beats len 9.
  graph::Dag dag;
  const auto v1 = dag.add_node(1);
  const auto o1 = dag.add_node(7, graph::NodeKind::kOffload, "o1");
  const auto o2 = dag.add_node(5, graph::NodeKind::kOffload, "o2");
  const auto vn = dag.add_node(1);
  dag.add_edge(v1, o1);
  dag.add_edge(v1, o2);
  dag.add_edge(o1, vn);
  dag.add_edge(o2, vn);
  EXPECT_EQ(root_bound(dag, 4), 12);
}

TEST(BoundsTest, MoreCoresWeakensAreaBoundOnly) {
  // The host area shrinks with m; the critical path does not, and with
  // enough cores it is all that is left.
  const auto ex = testing::fig3_example();
  const graph::Time lb2 = root_bound(ex.dag, 2);
  const graph::Time lb8 = root_bound(ex.dag, 8);
  EXPECT_GE(lb2, lb8);
  EXPECT_EQ(root_bound(ex.dag, 16), graph::critical_path_length(ex.dag));
}

TEST(BoundsTest, InvalidCoreCountThrows) {
  const auto ex = testing::paper_example();
  EXPECT_THROW((void)min_makespan(ex.dag, 0), Error);
}

}  // namespace
}  // namespace hedra::exact
