#include <gtest/gtest.h>

#include "analysis/platform_rta.h"
#include "analysis/rta_homogeneous.h"
#include "common/fixtures.h"
#include "sim/scheduler.h"
#include "util/error.h"

/// The chain bound (analysis/platform_rta.h) on DAGs whose offload nodes
/// all share one single-unit accelerator: the two-resource case
/// R = vol_host/m + vol_off + max_P Σ_{v∈P, host} C_v·(m−1)/m.

namespace hedra::analysis {
namespace {

using graph::NodeId;
using graph::NodeKind;

/// The bound on m host cores plus one unit per device the DAG uses.
[[nodiscard]] Frac chain_bound(const graph::Dag& dag, int m) {
  return rta_platform(dag, model::platform_for(dag, m));
}

/// Diamond with two offload branches sharing the single accelerator.
graph::Dag two_offload_diamond() {
  graph::Dag dag;
  const NodeId v1 = dag.add_node(1);
  const NodeId o1 = dag.add_node(4, NodeKind::kOffload, "o1");
  const NodeId o2 = dag.add_node(3, NodeKind::kOffload, "o2");
  const NodeId h = dag.add_node(2);
  const NodeId vn = dag.add_node(1);
  dag.add_edge(v1, o1);
  dag.add_edge(v1, o2);
  dag.add_edge(v1, h);
  dag.add_edge(o1, vn);
  dag.add_edge(o2, vn);
  dag.add_edge(h, vn);
  return dag;
}

TEST(MultiOffloadTest, HostOnlyChainSingleCore) {
  // Chain, m = 1: bound = vol/1 + 0 + weighted path (0 when m = 1) = vol.
  const auto dag = testing::chain(4, 5);
  EXPECT_EQ(chain_bound(dag, 1), Frac(20));
}

TEST(MultiOffloadTest, HostOnlyMatchesChainForm) {
  // For host-only DAGs the bound is vol/m + max_P Σ C_v (m-1)/m, which for a
  // chain (vol == len) collapses to exactly len.
  const auto dag = testing::chain(4, 5);
  for (const int m : {2, 4, 8}) {
    EXPECT_EQ(chain_bound(dag, m), Frac(20));
  }
}

TEST(MultiOffloadTest, HostOnlyEqualsEq1OnDiamond) {
  // Diamond: the weighted longest path follows the critical path, so the
  // bound coincides with Eq. 1.
  const auto dag = testing::diamond(1, 10, 2, 1);
  for (const int m : {2, 4}) {
    EXPECT_EQ(chain_bound(dag, m), rta_homogeneous(dag, m));
  }
}

TEST(MultiOffloadTest, SingleOffloadValue) {
  // paper_example, m = 2: vol_host = 14, vol_off = 4; weighted path maximises
  // host content: v1+v3+v5 = 8 host ticks -> 14/2 + 4 + 8/2 = 15.
  const auto ex = testing::paper_example();
  EXPECT_EQ(chain_bound(ex.dag, 2), Frac(15));
}

TEST(MultiOffloadTest, TwoOffloadsValue) {
  // two_offload_diamond, m = 2: vol_host = 4, vol_off = 7.
  // Host-weighted longest path: v1 + h + vn = 4 host ticks -> weight 4·(1/2).
  // Bound = 4/2 + 7 + 2 = 11.
  EXPECT_EQ(chain_bound(two_offload_diamond(), 2), Frac(11));
}

TEST(MultiOffloadTest, SoundAgainstSimulation) {
  const auto dag = two_offload_diamond();
  for (const int m : {1, 2, 4}) {
    const Frac bound = chain_bound(dag, m);
    for (const auto policy :
         {sim::Policy::kBreadthFirst, sim::Policy::kDepthFirst,
          sim::Policy::kCriticalPathFirst, sim::Policy::kIndexOrder}) {
      sim::SimConfig config;
      config.cores = m;
      config.policy = policy;
      EXPECT_LE(Frac(sim::simulated_makespan(dag, config)), bound)
          << "m=" << m << " policy=" << sim::to_string(policy);
    }
  }
}

TEST(MultiOffloadTest, AccountsForAcceleratorSerialisation) {
  // Two 10-tick offload nodes in parallel share one accelerator: any
  // execution needs >= 20 ticks of accelerator time; the bound must cover it
  // while a per-node "no interference" argument would not.
  graph::Dag dag;
  const NodeId v1 = dag.add_node(1);
  const NodeId o1 = dag.add_node(10, NodeKind::kOffload, "o1");
  const NodeId o2 = dag.add_node(10, NodeKind::kOffload, "o2");
  const NodeId vn = dag.add_node(1);
  dag.add_edge(v1, o1);
  dag.add_edge(v1, o2);
  dag.add_edge(o1, vn);
  dag.add_edge(o2, vn);
  const Frac bound = chain_bound(dag, 2);
  sim::SimConfig config;
  config.cores = 2;
  const graph::Time observed = sim::simulated_makespan(dag, config);
  EXPECT_GE(observed, 22);  // serialised accelerator
  EXPECT_LE(Frac(observed), bound);
}

TEST(MultiOffloadTest, PreconditionsEnforced) {
  EXPECT_THROW((void)chain_bound(graph::Dag{}, 2), Error);
  EXPECT_THROW((void)chain_bound(testing::chain(2, 1), 0), Error);
}

}  // namespace
}  // namespace hedra::analysis
