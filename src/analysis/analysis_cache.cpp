#include "analysis/analysis_cache.h"

#include <algorithm>
#include <numeric>
#include <tuple>
#include <utility>
#include <vector>

namespace hedra::analysis {

namespace {

/// len and vol of G_par, which Algorithm 1 defines as the subgraph of τ
/// induced by the nodes parallel to v_off: one pass over τ's view that
/// skips every other node, so G_par needs no snapshot of its own.
/// Non-members keep up = 0, so they never extend a member's path.
std::pair<graph::Time, graph::Time> gpar_len_vol(const graph::FlatView& view,
                                                 const graph::Subgraph& gpar) {
  std::vector<graph::Time> up(view.num_nodes(), 0);
  graph::Time len = 0;
  graph::Time vol = 0;
  for (const graph::NodeId v : view.topological_order()) {
    if (gpar.from_parent[v] == graph::kInvalidNode) continue;
    graph::Time best = 0;
    for (const graph::NodeId p : view.predecessors(v)) {
      best = std::max(best, up[p]);
    }
    up[v] = best + view.wcet(v);
    len = std::max(len, up[v]);
    vol += view.wcet(v);
  }
  return {len, vol};
}

}  // namespace

const Dag& AnalysisCache::original() {
  if (dag_ == nullptr) {
    materialized_ = batch_->materialize(batch_index_);
    dag_ = &*materialized_;
  }
  return *dag_;
}

const TransformResult& AnalysisCache::transform() {
  if (!transform_) transform_ = transform_for_offload(original());
  return *transform_;
}

graph::FlatView AnalysisCache::transformed_view() {
  if (!flat_transformed_) flat_transformed_.emplace(transformed());
  return flat_transformed_->view();
}

const graph::CriticalPathInfo& AnalysisCache::critical_path() {
  // The one longest-path walk over G': quantities() reads it, and the
  // snapshot it walks is the one the simulation call sites share.
  if (!cp_transformed_) cp_transformed_.emplace(transformed_view());
  return *cp_transformed_;
}

const TheoremQuantities& AnalysisCache::quantities() {
  if (!quantities_) {
    const TransformResult& t = transform();
    const graph::CriticalPathInfo& info = critical_path();
    TheoremQuantities q{};
    q.len_trans = info.length();
    q.vol = vol_original();
    q.c_off = transformed_view().wcet(t.voff);
    std::tie(q.len_gpar, q.vol_gpar) = gpar_len_vol(view_, t.gpar);
    q.voff_critical = info.on_critical_path(t.voff, q.c_off);
    quantities_ = q;
  }
  return *quantities_;
}

const PlatformQuantities& AnalysisCache::platform_quantities() {
  if (!platform_quantities_) {
    platform_quantities_ = analysis::platform_quantities(view_);
  }
  return *platform_quantities_;
}

graph::Time AnalysisCache::len_original() {
  if (!len_original_) len_original_ = graph::critical_path_length(view_);
  return *len_original_;
}

graph::Time AnalysisCache::vol_original() {
  if (!vol_original_) {
    const auto wcets = view_.wcets();
    vol_original_ = std::accumulate(wcets.begin(), wcets.end(), graph::Time{0});
  }
  return *vol_original_;
}

Frac AnalysisCache::r_hom(int m) {
  return rta_homogeneous(len_original(), vol_original(), m);
}

Frac AnalysisCache::r_hom_gpar(int m) {
  return analysis::r_hom_gpar(quantities(), m);
}

Scenario AnalysisCache::scenario(int m) {
  return classify(quantities(), m);
}

Frac AnalysisCache::r_het(int m) {
  const TheoremQuantities& q = quantities();
  return evaluate(q, classify(q, m), m);
}

Frac AnalysisCache::r_platform(int m, std::span<const int> device_units,
                               std::span<const Frac> device_speedup) {
  return platform_bound(platform_quantities(), view_, m, device_units,
                        device_speedup);
}

HetAnalysis AnalysisCache::analyze(int m) && {
  const TheoremQuantities& q = quantities();
  HetAnalysis out;
  out.scenario = classify(q, m);
  out.r_het = evaluate(q, out.scenario, m);
  out.r_hom = r_hom(m);
  out.r_hom_gpar = r_hom_gpar(m);
  out.voff_on_critical_path = q.voff_critical;
  out.len_original = len_original();
  out.len_transformed = q.len_trans;
  out.volume = q.vol;
  out.len_gpar = q.len_gpar;
  out.vol_gpar = q.vol_gpar;
  out.c_off = q.c_off;
  out.transform = *std::move(transform_);
  transform_.reset();
  return out;
}

}  // namespace hedra::analysis
