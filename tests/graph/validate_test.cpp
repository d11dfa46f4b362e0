#include "graph/validate.h"

#include <gtest/gtest.h>

#include "common/fixtures.h"
#include "util/error.h"

namespace hedra::graph {
namespace {

/// Rules for a plain homogeneous DAG (no offload node expected).
ValidationRules homogeneous_rules() {
  ValidationRules rules;
  rules.required_offload_count = 0;
  return rules;
}

TEST(ValidateTest, PaperExampleIsValidHeterogeneous) {
  const auto ex = testing::paper_example();
  EXPECT_TRUE(is_valid(ex.dag, heterogeneous_rules()));
  EXPECT_NO_THROW(throw_if_invalid(ex.dag, heterogeneous_rules()));
}

TEST(ValidateTest, EmptyGraphInvalid) {
  const Dag dag;
  const auto issues = validate(dag, homogeneous_rules());
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues.front().find("empty"), std::string::npos);
}

TEST(ValidateTest, CycleReported) {
  Dag dag;
  const NodeId a = dag.add_node(1);
  const NodeId b = dag.add_node(1);
  dag.add_edge(a, b);
  dag.add_edge(b, a);
  ValidationRules rules = homogeneous_rules();
  rules.require_single_source = false;
  rules.require_single_sink = false;
  const auto issues = validate(dag, rules);
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues.front().find("cycle"), std::string::npos);
}

TEST(ValidateTest, MultipleSourcesReported) {
  Dag dag;
  const NodeId a = dag.add_node(1);
  const NodeId b = dag.add_node(1);
  const NodeId c = dag.add_node(1);
  dag.add_edge(a, c);
  dag.add_edge(b, c);
  const auto issues = validate(dag, homogeneous_rules());
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues.front().find("source"), std::string::npos);
}

TEST(ValidateTest, MultipleSinksReported) {
  Dag dag;
  const NodeId a = dag.add_node(1);
  const NodeId b = dag.add_node(1);
  const NodeId c = dag.add_node(1);
  dag.add_edge(a, b);
  dag.add_edge(a, c);
  const auto issues = validate(dag, homogeneous_rules());
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues.front().find("sink"), std::string::npos);
}

TEST(ValidateTest, TransitiveEdgeReported) {
  Dag dag = testing::chain(3, 1);
  dag.add_edge(0, 2);
  ValidationRules rules = homogeneous_rules();
  rules.require_single_sink = true;
  const auto issues = validate(dag, rules);
  ASSERT_FALSE(issues.empty());
  bool found = false;
  for (const auto& issue : issues) {
    if (issue.find("transitive") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ValidateTest, OffloadCountEnforced) {
  const Dag plain = testing::chain(3, 1);
  EXPECT_TRUE(is_valid(plain, homogeneous_rules()));
  EXPECT_FALSE(is_valid(plain, heterogeneous_rules()));

  const auto ex = testing::paper_example();
  EXPECT_FALSE(is_valid(ex.dag, homogeneous_rules()));
}

TEST(ValidateTest, AnyOffloadCountAllowed) {
  Dag dag;
  const NodeId a = dag.add_node(1);
  const NodeId o1 = dag.add_node(1, NodeKind::kOffload, "o1");
  const NodeId o2 = dag.add_node(1, NodeKind::kOffload, "o2");
  const NodeId z = dag.add_node(1);
  dag.add_edge(a, o1);
  dag.add_edge(a, o2);
  dag.add_edge(o1, z);
  dag.add_edge(o2, z);
  ValidationRules rules;
  rules.required_offload_count = -1;
  EXPECT_TRUE(is_valid(dag, rules));
}

TEST(ValidateTest, NonPositiveWcetReported) {
  Dag dag;
  const NodeId a = dag.add_node(0);  // host node with zero WCET
  const NodeId b = dag.add_node(1);
  dag.add_edge(a, b);
  const auto issues = validate(dag, homogeneous_rules());
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues.front().find("WCET"), std::string::npos);
}

TEST(ValidateTest, SyncNodesExemptFromWcetRule) {
  Dag dag;
  const NodeId s = dag.add_node(0, NodeKind::kSync);
  const NodeId b = dag.add_node(1);
  dag.add_edge(s, b);
  EXPECT_TRUE(is_valid(dag, homogeneous_rules()));
}

TEST(ValidateTest, ThrowListsAllIssues) {
  Dag dag;
  dag.add_node(0);  // zero WCET host node; also no offload for het rules
  try {
    throw_if_invalid(dag, heterogeneous_rules());
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("WCET"), std::string::npos);
    EXPECT_NE(what.find("offload"), std::string::npos);
  }
}

TEST(ValidateTest, Fig3ExampleIsValid) {
  const auto ex = testing::fig3_example();
  EXPECT_TRUE(is_valid(ex.dag, heterogeneous_rules()))
      << validate(ex.dag, heterogeneous_rules()).front();
}

}  // namespace
}  // namespace hedra::graph
