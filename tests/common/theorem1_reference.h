#pragma once

/// \file theorem1_reference.h
/// Reference measurement of Theorem 1's m-independent quantities straight
/// from a TransformResult: a fresh CriticalPathInfo over G' and a
/// critical_path_length walk over G_par, with nothing cached or shared.
/// analysis::classify and analysis::evaluate turn the result into the
/// scenario and R_het, which the tests compare against AnalysisCache.

#include "analysis/rta_heterogeneous.h"
#include "analysis/transform.h"
#include "graph/critical_path.h"

namespace hedra::testing {

/// len(G'), vol, C_off, len/vol(G_par) and whether v_off is critical in G'.
inline analysis::TheoremQuantities theorem1_quantities(
    const analysis::TransformResult& transform) {
  const graph::Dag& g = transform.transformed;
  const graph::CriticalPathInfo info(g);
  analysis::TheoremQuantities q{};
  q.len_trans = info.length();
  q.vol = g.volume();
  q.c_off = g.wcet(transform.voff);
  q.len_gpar = graph::critical_path_length(transform.gpar.dag);
  q.vol_gpar = transform.gpar.dag.volume();
  q.voff_critical = info.on_critical_path(g, transform.voff);
  return q;
}

}  // namespace hedra::testing
