/// Exact-solver regressions for the incremental B&B rewrite:
///  - golden results: makespan / proven_optimal / root bound / heuristic
///    bound on the pinned fig7-size batches must match the values the
///    pre-rewrite solver produced (tests/golden/bnb_results.txt), and
///  - randomized equivalence: on small instances the solver must agree with
///    the independent exhaustive brute_force enumeration.

#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/brute_force.h"
#include "common/golden_batch.h"
#include "exp/experiment.h"

namespace hedra {
namespace {

TEST(BnbGoldenTest, ResultsMatchCommittedGoldens) {
  const std::string path =
      std::string(HEDRA_TEST_DATA_DIR) + "/golden/bnb_results.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(goldens::golden_bnb_text(), buffer.str())
      << "B&B results drifted; the search may be reorganised freely "
         "(nodes_explored is not pinned) but optimal makespans, proven "
         "flags and root/heuristic bounds must not change";
}

TEST(BnbGoldenTest, MatchesBruteForceOnRandomSmallInstances) {
  // Randomized (but seeded) equivalence sweep: generated single-offload
  // DAGs small enough for the exhaustive reference.
  exp::BatchConfig config;
  config.params = gen::HierarchicalParams::small_tasks();
  config.params.min_nodes = 4;
  config.params.max_nodes = 9;
  config.coff_ratio = 0.35;
  config.count = 40;
  config.seed = 0x5EED5EEDULL;
  const auto batch = exp::generate_batch(config);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    for (const int m : {1, 2, 3}) {
      const auto result = exact::min_makespan(batch[i], m);
      const auto reference = exact::brute_force_min_makespan(batch[i], m);
      EXPECT_TRUE(result.proven_optimal) << "instance " << i << " m=" << m;
      EXPECT_EQ(result.makespan, reference) << "instance " << i << " m=" << m;
      EXPECT_GE(result.makespan, result.root_lower_bound);
      EXPECT_LE(result.makespan, result.heuristic_upper_bound);
    }
  }
}

}  // namespace
}  // namespace hedra
