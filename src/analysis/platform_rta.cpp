#include "analysis/platform_rta.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "analysis/batch_kernels.h"
#include "graph/flat_dag.h"

namespace hedra::analysis {

graph::Time max_host_path(const graph::FlatView& view) {
  // Per-thread scratch: the taskset seed bound measures every task of every
  // admission through here, where per-call allocation is measurable.
  thread_local std::vector<graph::Time> best;
  best.assign(view.num_nodes(), 0);
  graph::Time max_weighted = 0;
  for (const auto v : view.topological_order()) {
    graph::Time incoming = 0;
    for (const auto p : view.predecessors(v)) {
      incoming = std::max(incoming, best[p]);
    }
    // Branch-light: a device node contributes 0, not a skipped iteration.
    const graph::Time weight =
        view.device(v) == graph::kHostDevice ? view.wcet(v) : 0;
    best[v] = incoming + weight;
    max_weighted = std::max(max_weighted, best[v]);
  }
  return max_weighted;
}

namespace {

/// Per-resource weight C_v·(r−1)/r (optionally /s_d) expressed over one
/// common denominator so the DP runs on int64 instead of Frac: node v
/// contributes `wcet(v) · factor[device(v)]` to a path value, and the walk
/// result is Frac(max_scaled, denom) — the SAME normalised rational the
/// per-node Frac arithmetic produces, at a fraction of the cost.
struct ScaledWeights {
  std::vector<std::int64_t> factor;  ///< indexed by device id (0 = host)
  std::int64_t denom = 1;
  bool usable = false;
};

ScaledWeights scale_weights(graph::DeviceId max_device,
                            const ChainWeighting& weighting) {
  ScaledWeights out;
  // Common denominator: host nodes weigh (m−1)/m, device-d nodes weigh
  // (n_d−1)·den(s_d) / (n_d·num(s_d)).
  std::int64_t denom = weighting.m;
  for (graph::DeviceId d = 1; d <= max_device; ++d) {
    const int units = weighting.units_of(d);
    if (units <= 1) continue;  // weight 0 regardless of speedup
    const Frac speedup = weighting.speedup_of(d);
    const std::int64_t device_denom = static_cast<std::int64_t>(units) *
                                      speedup.num();
    if (device_denom > (std::int64_t{1} << 31)) return out;
    denom = std::lcm(denom, device_denom);
    if (denom > (std::int64_t{1} << 31)) return out;
  }
  out.denom = denom;
  out.factor.assign(static_cast<std::size_t>(max_device) + 1, 0);
  out.factor[graph::kHostDevice] = denom / weighting.m * (weighting.m - 1);
  for (graph::DeviceId d = 1; d <= max_device; ++d) {
    const int units = weighting.units_of(d);
    if (units <= 1) continue;
    const Frac speedup = weighting.speedup_of(d);
    const __int128 factor = static_cast<__int128>(denom) /
                            (static_cast<std::int64_t>(units) * speedup.num()) *
                            (units - 1) * speedup.den();
    if (factor > (std::int64_t{1} << 31)) return out;
    out.factor[d] = static_cast<std::int64_t>(factor);
  }
  out.usable = true;
  return out;
}

/// Exact Frac DP of the generalised walk — the fallback for weightings
/// whose common denominator would risk int64 overflow.
Frac weighted_chain_walk_frac(const graph::FlatView& view,
                              const ChainWeighting& weighting) {
  const bool scaled = !weighting.speedup.empty();
  std::vector<Frac> best(view.num_nodes());
  Frac max_weighted;
  for (const auto v : view.topological_order()) {
    Frac incoming;
    for (const auto p : view.predecessors(v)) {
      incoming = frac_max(incoming, best[p]);
    }
    const graph::DeviceId device = view.device(v);
    const int units =
        device == graph::kHostDevice ? weighting.m : weighting.units_of(device);
    Frac weight(view.wcet(v) * (units - 1), units);
    if (scaled && device != graph::kHostDevice) {
      // Effective execution time on a sped-up class is C_v/s_d.
      weight /= weighting.speedup_of(device);
    }
    best[v] = incoming + weight;
    max_weighted = frac_max(max_weighted, best[v]);
  }
  return max_weighted;
}

/// vol_d / (n_d · s_d): one device class's share of the bound.
Frac device_share(graph::Time volume, int units, const Frac& speedup) {
  return Frac(volume, units) / speedup;
}

/// The three terms of R(m), each an exact rational.
struct BoundTerms {
  Frac host;
  Frac device;
  Frac path;
};

/// The one evaluator behind platform_bound and analyze_platform.
BoundTerms evaluate_platform_bound(const PlatformQuantities& q,
                                   const graph::FlatView& view, int m,
                                   std::span<const int> device_units,
                                   std::span<const Frac> device_speedup) {
  HEDRA_REQUIRE(m >= 1, "core count m must be >= 1");
  const bool single_unit =
      std::all_of(device_units.begin(), device_units.end(),
                  [](int units) { return units == 1; });
  const bool unit_speed =
      std::all_of(device_speedup.begin(), device_speedup.end(),
                  [](const Frac& s) { return s == Frac(1); });
  BoundTerms terms;
  terms.host = Frac(q.vol_host, m);
  if (single_unit && unit_speed) {
    // Every device weight vanishes: the walk is max_host_path·(m−1)/m,
    // already measured, and the device term is the plain volume sum.
    terms.device = Frac(q.device_volume_sum);
    terms.path = Frac(q.max_host_path * (m - 1), m);
    return terms;
  }
  // The walk validates every class's units and speedup, so it runs first.
  const ChainWeighting weighting{
      m, device_units, unit_speed ? std::span<const Frac>{} : device_speedup};
  terms.path = max_host_path(view, weighting);
  for (const auto& [device, volume] : q.device_volumes) {
    terms.device += device_share(volume, weighting.units_of(device),
                                 weighting.speedup_of(device));
  }
  return terms;
}

}  // namespace

Frac max_host_path(const graph::FlatView& view,
                   const ChainWeighting& weighting) {
  HEDRA_REQUIRE(weighting.m >= 1, "core count m must be >= 1");
  for (graph::DeviceId d = 1; d <= view.max_device(); ++d) {
    HEDRA_REQUIRE(weighting.units_of(d) >= 1,
                  "every device class needs >= 1 execution unit");
    HEDRA_REQUIRE(weighting.speedup_of(d) > Frac(0),
                  "every device speedup must be strictly positive");
  }
  const ScaledWeights scale = scale_weights(view.max_device(), weighting);
  if (!scale.usable) return weighted_chain_walk_frac(view, weighting);
  // Overflow guard: every path value is bounded by Σ_v C_v·factor_v.
  __int128 total = 0;
  std::int64_t max_factor = 0;
  for (const std::int64_t f : scale.factor) {
    max_factor = std::max(max_factor, f);
  }
  for (const graph::Time c : view.wcets()) {
    total += static_cast<__int128>(c) * max_factor;
  }
  if (total > (static_cast<__int128>(1) << 62)) {
    return weighted_chain_walk_frac(view, weighting);
  }
  std::vector<std::int64_t> best(view.num_nodes(), 0);
  std::int64_t max_weighted = 0;
  for (const auto v : view.topological_order()) {
    std::int64_t incoming = 0;
    for (const auto p : view.predecessors(v)) {
      incoming = std::max(incoming, best[p]);
    }
    best[v] = incoming + view.wcet(v) * scale.factor[view.device(v)];
    max_weighted = std::max(max_weighted, best[v]);
  }
  return Frac(max_weighted, scale.denom);
}

PlatformQuantities platform_quantities(const graph::FlatView& view) {
  // Per-thread scratch, as in max_host_path.
  thread_local std::vector<graph::Time> volume;
  thread_local std::vector<std::size_t> count;
  const std::size_t num_devices =
      static_cast<std::size_t>(view.max_device()) + 1;
  volume.assign(num_devices, 0);
  count.assign(num_devices, 0);
  accumulate_device_volumes(view.wcets(), view.devices(), volume);
  for (const graph::DeviceId d : view.devices()) ++count[d];

  PlatformQuantities q;
  q.vol_host = volume[graph::kHostDevice];
  q.max_host_path = max_host_path(view);
  for (graph::DeviceId d = 1; d < num_devices; ++d) {
    if (count[d] == 0) continue;
    q.device_volumes.emplace_back(d, volume[d]);
    q.device_volume_sum += volume[d];
  }
  return q;
}

Frac platform_bound(const PlatformQuantities& quantities,
                    const graph::FlatView& view, int m,
                    std::span<const int> device_units,
                    std::span<const Frac> device_speedup) {
  const BoundTerms terms = evaluate_platform_bound(
      quantities, view, m, device_units, device_speedup);
  return terms.host + terms.device + terms.path;
}

PlatformAnalysis analyze_platform(const graph::Dag& dag,
                                  const model::Platform& platform) {
  platform.validate();
  HEDRA_REQUIRE(dag.num_nodes() > 0, "empty graph");
  {
    const auto issues = model::check_supports(platform, dag);
    HEDRA_REQUIRE(issues.empty(),
                  "platform does not support the DAG: " + issues.front());
  }

  const graph::FlatDag flat(dag);
  const graph::FlatView view = flat.view();
  const PlatformQuantities q = platform_quantities(view);
  PlatformAnalysis out;
  out.platform = platform;
  out.m = platform.cores;
  out.vol_host = q.vol_host;
  out.max_host_path = q.max_host_path;
  for (int d = 1; d <= platform.num_devices(); ++d) {
    const auto device = static_cast<graph::DeviceId>(d);
    DeviceTerm term;
    term.device = device;
    term.name = platform.device_name(device);
    term.volume = dag.volume_on(device);
    term.node_count = dag.nodes_on(device).size();
    term.units = platform.units_of(device);
    term.speedup = platform.speedup_of(device);
    term.term = device_share(term.volume, term.units, term.speedup);
    out.devices.push_back(std::move(term));
  }
  const BoundTerms terms = evaluate_platform_bound(
      q, view, out.m, platform.device_units, platform.device_speedup);
  out.host_term = terms.host;
  out.device_term = terms.device;
  out.path_term = terms.path;
  out.bound = terms.host + terms.device + terms.path;
  return out;
}

Frac rta_platform(const graph::Dag& dag, const model::Platform& platform) {
  return analyze_platform(dag, platform).bound;
}

std::string explain(const PlatformAnalysis& analysis) {
  std::ostringstream os;
  const int m = analysis.m;
  const bool multi = analysis.platform.has_multi_units() ||
                     analysis.platform.has_speedups();
  os << "platform response-time bound (" << analysis.platform.describe()
     << ")\n";
  if (multi) {
    os << "  R_plat = vol_host/m + sum_d vol_d/"
       << (analysis.platform.has_speedups() ? "(n_d*s_d)" : "n_d")
       << " + max weighted chain\n";
  } else {
    os << "  R_plat = vol_host/m + sum_d vol_d + max_host_path*(m-1)/m\n";
  }
  os << "  host:      vol_host = " << analysis.vol_host << " over m = " << m
     << " cores -> " << analysis.host_term << "\n";
  if (analysis.devices.empty()) {
    os << "  devices:   (none; chain form of the Graham bound)\n";
  }
  for (const auto& term : analysis.devices) {
    os << "  device d" << term.device << " (" << term.name
       << "): vol = " << term.volume << " across " << term.node_count
       << " node" << (term.node_count == 1 ? "" : "s");
    if (multi) {
      os << " on " << term.units << " unit" << (term.units == 1 ? "" : "s");
      if (term.speedup != Frac(1)) os << " at " << term.speedup << "x speed";
      os << " -> +" << term.term << "\n";
    } else {
      os << " -> +" << term.volume << "\n";
    }
  }
  if (multi) {
    os << "  chain:     max path of C_v*(units-1)/units weights"
       << " (host units = m) -> " << analysis.path_term << "\n";
  } else {
    os << "  chain:     max host path = " << analysis.max_host_path
       << " * (m-1)/m" << " -> " << analysis.path_term << "\n";
  }
  os << "  bound:     R_plat = " << analysis.host_term << " + "
     << analysis.device_term << " + " << analysis.path_term << " = "
     << analysis.bound << " (= " << analysis.bound.to_double() << ")\n";
  return os.str();
}

}  // namespace hedra::analysis
