#pragma once

/// \file theorem1_reference.h
/// Reference measurement of Theorem 1's m-independent quantities straight
/// from a TransformResult: longest-path walks over the Dags of G' and G_par
/// themselves (common/critical_path_oracle.h), with nothing cached, shared
/// or snapshot.  analysis::classify and analysis::evaluate turn the result
/// into the scenario and R_het, which the tests compare against
/// AnalysisCache.

#include "analysis/rta_heterogeneous.h"
#include "analysis/transform.h"
#include "common/critical_path_oracle.h"

namespace hedra::testing {

/// len(G'), vol, C_off, len/vol(G_par) and whether v_off is critical in G'.
inline analysis::TheoremQuantities theorem1_quantities(
    const analysis::TransformResult& transform) {
  const graph::Dag& g = transform.transformed;
  const ReferencePaths paths = reference_paths(g);
  analysis::TheoremQuantities q{};
  q.len_trans = paths.length;
  q.vol = g.volume();
  q.c_off = g.wcet(transform.voff);
  q.len_gpar = reference_paths(transform.gpar.dag).length;
  q.vol_gpar = transform.gpar.dag.volume();
  q.voff_critical = paths.on_critical_path(g, transform.voff);
  return q;
}

}  // namespace hedra::testing
