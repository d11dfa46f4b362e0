#pragma once

/// \file validate.h
/// Structural validation of task graphs against the paper's system model
/// (§2): acyclic, exactly one source and one sink, no transitive edges, and
/// at most one offloaded node.  Validation is separated from Dag mutation so
/// intermediate states (e.g. while Algorithm 1 rewires edges) are
/// representable.

#include <string>
#include <vector>

#include "graph/dag.h"

namespace hedra::graph {

/// Which rules to check.  Defaults correspond to the paper's model.
struct ValidationRules {
  bool require_acyclic = true;
  bool require_single_source = true;
  bool require_single_sink = true;
  bool forbid_transitive_edges = true;
  /// 0, 1, or -1 for "any number" of offload nodes.
  int required_offload_count = 1;
  /// Every non-sync node must have wcet >= 1 (sync nodes are zero by
  /// construction).
  bool require_positive_wcets = true;
};

/// Human-readable list of violations; empty means valid.
[[nodiscard]] std::vector<std::string> validate(const Dag& dag,
                                                const ValidationRules& rules);

/// True iff validate(dag, rules) is empty.
[[nodiscard]] bool is_valid(const Dag& dag, const ValidationRules& rules);

/// Throws hedra::Error listing all violations, if any.
void throw_if_invalid(const Dag& dag, const ValidationRules& rules);

/// Rules for the paper's heterogeneous model (exactly one offload node).
[[nodiscard]] ValidationRules heterogeneous_rules();

}  // namespace hedra::graph
