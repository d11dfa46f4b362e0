#pragma once

/// \file analysis_cache.h
/// Per-DAG memoisation for the experiment engine.
///
/// Every figure of §5 evaluates the *same* DAG under several core counts
/// m ∈ {2, 4, 8, 16}.  Almost everything Theorem 1 consumes is
/// m-independent — the τ ⇒ τ' transformation (Algorithm 1), the critical
/// paths of G, G' and G_par, the topological orders, vol and C_off — and
/// only the final scenario classification and bound are per-m arithmetic on
/// those quantities.  AnalysisCache computes each graph walk exactly once,
/// lazily, and serves all m values from the cached quantities; a sweep over
/// four core counts therefore pays for one transform and one set of
/// longest-path passes instead of four.
///
/// Every graph walk runs over one CSR view per graph — flat_view() for τ,
/// transformed_view() for τ' — and the platform bound is the one producer /
/// evaluator pair of analysis/platform_rta.h memoised per DAG, so a cache
/// and a direct platform_bound call return the same rational.  Only
/// original() knows where τ came from: a Dag the cache snapshotted, or a
/// slice of an arena batch.
///
/// An instance references (does not copy) the DAG it analyses, cannot be
/// copied (its view may point into its own snapshot) and is meant for
/// single-threaded use; the experiment runner builds one cache per DAG
/// inside each worker task.

#include <optional>
#include <span>

#include "analysis/platform_rta.h"
#include "analysis/rta_heterogeneous.h"
#include "analysis/transform.h"
#include "graph/critical_path.h"
#include "graph/dag.h"
#include "graph/flat_batch.h"
#include "graph/flat_dag.h"
#include "util/fraction.h"

namespace hedra::analysis {

class AnalysisCache {
 public:
  /// Binds to `dag`, which must outlive the cache, and snapshots it once;
  /// every quantity is computed on first use.  Throws on cyclic input.
  explicit AnalysisCache(const Dag& dag)
      : dag_(&dag), flat_(std::in_place, dag), view_(flat_->view()) {}

  /// Binding to a temporary would dangle immediately.
  explicit AnalysisCache(Dag&&) = delete;

  /// Binds to DAG `index` of an arena batch (which must outlive the cache).
  /// The walks over τ then run straight over the arena with no Dag in
  /// sight; only the §3.4 transform and labels need a Dag, and original()
  /// materialises it lazily, exactly once.
  AnalysisCache(const graph::FlatDagBatch& batch, std::size_t index)
      : batch_(&batch), batch_index_(index), view_(batch.view(index)) {}

  AnalysisCache(const AnalysisCache&) = delete;
  AnalysisCache& operator=(const AnalysisCache&) = delete;

  /// The analysed Dag.  For an arena-backed cache the first call
  /// materialises it from the batch (labels included).
  [[nodiscard]] const Dag& original();

  /// CSR view of the ORIGINAL graph: the arena slice for a batch-backed
  /// cache (no materialisation, no copy), otherwise the snapshot taken at
  /// construction.  Every walk the cache performs on τ runs over this view,
  /// and the simulation call sites share it, so a 5-policy × 4-m sweep
  /// snapshots the DAG once instead of twenty times.
  [[nodiscard]] graph::FlatView flat_view() const noexcept { return view_; }

  /// CSR view of the transformed graph τ' (forces the transform), snapshot
  /// once.  Every walk the cache performs on τ' runs over this view.
  [[nodiscard]] graph::FlatView transformed_view();

  /// Algorithm 1 (validates the model preconditions on first call).
  [[nodiscard]] const TransformResult& transform();

  /// G' = transform().transformed.
  [[nodiscard]] const Dag& transformed() { return transform().transformed; }

  /// Longest-path data of G', walked over transformed_view().
  [[nodiscard]] const graph::CriticalPathInfo& critical_path();

  /// The m-independent quantities of Theorem 1, measured once.
  [[nodiscard]] const TheoremQuantities& quantities();

  /// len(G) of the original τ.
  [[nodiscard]] graph::Time len_original();

  /// Host/per-device volumes and the max host-weighted path of the ORIGINAL
  /// graph, measured once.  These feed r_platform and never force the
  /// (single-offload-only) transform, so the cache works on multi-device
  /// DAGs too.
  [[nodiscard]] const PlatformQuantities& platform_quantities();

  /// Per-m results, pure arithmetic over the cached quantities.
  [[nodiscard]] Frac r_hom(int m);       ///< Eq. 1 on the original τ
  [[nodiscard]] Frac r_hom_gpar(int m);  ///< the scenario discriminator
  [[nodiscard]] Scenario scenario(int m);
  [[nodiscard]] Frac r_het(int m);       ///< Theorem 1 on τ'

  /// K-device chain bound on τ: platform_bound over the cached quantities,
  /// with n_d = `device_units[d−1]` execution units and WCET speedup
  /// s_d = `device_speedup[d−1]` per class (devices beyond either span get
  /// one unit at unit speed).  Only the weighted chain walk of a
  /// multi-unit or sped-up platform runs per call.
  [[nodiscard]] Frac r_platform(int m, std::span<const int> device_units = {},
                                std::span<const Frac> device_speedup = {});

  /// Assembles the full HetAnalysis record (analyze_heterogeneous delegates
  /// here).  Single-shot: the cached transform is moved into the result, so
  /// `AnalysisCache(dag).analyze(m)` pays no copy.
  [[nodiscard]] HetAnalysis analyze(int m) &&;

 private:
  /// vol(G) = vol(G'), summed over τ's view once.
  [[nodiscard]] graph::Time vol_original();

  const Dag* dag_ = nullptr;
  const graph::FlatDagBatch* batch_ = nullptr;
  std::size_t batch_index_ = 0;
  std::optional<graph::FlatDag> flat_;  ///< τ's snapshot (Dag-bound caches)
  graph::FlatView view_;  ///< τ: the arena slice, or flat_'s view
  std::optional<Dag> materialized_;   ///< lazy Dag of a batch-backed cache
  std::optional<TransformResult> transform_;
  std::optional<graph::FlatDag> flat_transformed_;
  std::optional<graph::CriticalPathInfo> cp_transformed_;
  std::optional<TheoremQuantities> quantities_;
  std::optional<PlatformQuantities> platform_quantities_;
  std::optional<graph::Time> len_original_;
  std::optional<graph::Time> vol_original_;
};

}  // namespace hedra::analysis
