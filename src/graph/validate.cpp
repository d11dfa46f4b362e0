#include "graph/validate.h"

#include <sstream>

#include "graph/algorithms.h"

namespace hedra::graph {

std::vector<std::string> validate(const Dag& dag,
                                  const ValidationRules& rules) {
  std::vector<std::string> issues;
  if (dag.num_nodes() == 0) {
    issues.push_back("graph is empty");
    return issues;
  }

  const bool acyclic = is_acyclic(dag);
  if (rules.require_acyclic && !acyclic) {
    issues.push_back("graph contains a cycle");
  }

  if (rules.require_single_source) {
    const auto src = dag.sources();
    if (src.size() != 1) {
      issues.push_back("expected exactly one source, found " +
                       std::to_string(src.size()));
    }
  }
  if (rules.require_single_sink) {
    const auto snk = dag.sinks();
    if (snk.size() != 1) {
      issues.push_back("expected exactly one sink, found " +
                       std::to_string(snk.size()));
    }
  }

  if (rules.forbid_transitive_edges && acyclic) {
    for (const auto& [u, w] : transitive_edges(dag)) {
      std::ostringstream os;
      os << "transitive edge (" << dag.label(u) << ", " << dag.label(w) << ")";
      issues.push_back(os.str());
    }
  }

  if (rules.required_offload_count >= 0) {
    const auto off = dag.offload_nodes();
    if (off.size() != static_cast<std::size_t>(rules.required_offload_count)) {
      issues.push_back("expected " +
                       std::to_string(rules.required_offload_count) +
                       " offload node(s), found " + std::to_string(off.size()));
    }
  }

  if (rules.require_positive_wcets) {
    for (NodeId v = 0; v < dag.num_nodes(); ++v) {
      if (dag.kind(v) != NodeKind::kSync && dag.wcet(v) <= 0) {
        issues.push_back("node " + dag.label(v) + " has non-positive WCET");
      }
    }
  }

  return issues;
}

bool is_valid(const Dag& dag, const ValidationRules& rules) {
  return validate(dag, rules).empty();
}

void throw_if_invalid(const Dag& dag, const ValidationRules& rules) {
  const auto issues = validate(dag, rules);
  if (issues.empty()) return;
  std::ostringstream os;
  os << "invalid task graph:";
  for (const auto& issue : issues) os << "\n  - " << issue;
  throw Error(os.str());
}

ValidationRules heterogeneous_rules() {
  ValidationRules rules;
  rules.required_offload_count = 1;
  return rules;
}

}  // namespace hedra::graph
