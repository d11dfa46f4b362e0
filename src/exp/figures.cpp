#include "exp/figures.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>

#include "exp/ablation.h"
#include "exp/fig10.h"
#include "exp/fig11.h"
#include "exp/fig12.h"
#include "exp/fig6.h"
#include "exp/fig7.h"
#include "exp/fig8.h"
#include "exp/fig9.h"
#include "stats/descriptive.h"
#include "util/error.h"
#include "util/strings.h"

namespace hedra::exp {

namespace {

// ---- shared flags, formats and layout -------------------------------------

Flag dags_flag(int dags) { return {"dags", dags, "DAGs per parameter point"}; }
Flag seed_flag(std::int64_t seed) { return {"seed", seed, "master RNG seed"}; }
Flag min_nodes_flag() { return {"min-nodes", 100, "minimum DAG size"}; }
Flag max_nodes_flag() { return {"max-nodes", 250, "maximum DAG size"}; }
Flag csv_flag() { return {"csv", std::string(), "also write results to CSV"}; }
Flag jobs_flag() {
  return {"jobs", 0, "worker threads (0 = all hardware threads)"};
}

/// The flags of fig6, fig8 and fig9.
std::vector<Flag> grid_flags() {
  return {dags_flag(100), seed_flag(42), min_nodes_flag(),
          max_nodes_flag(), csv_flag(), jobs_flag()};
}

using Format = std::string (*)(double);

template <int Decimals>
std::string fixed(double value) {
  return format_double(value, Decimals);
}
std::string pct(double value) { return format_percent(value, 2); }
std::string ratio_pct(double value) {
  return format_double(100.0 * value, 2) + "%";
}
std::string ratio_or(double ratio, const std::string& none) {
  return std::isnan(ratio) ? none : ratio_pct(ratio);
}
std::string violations_text(int violations) {
  return std::to_string(violations) + (violations == 0 ? "" : "  <-- UNSOUND");
}

/// A column of a double field: `text_format` in the table, `csv_format`
/// (six decimals by default) in the CSV.
template <typename Row>
Column<Row> number(double Row::*field, std::string text, Format text_format,
                   std::string csv, Format csv_format = fixed<6>) {
  return {std::move(text), [=](const Row& r) { return text_format(r.*field); },
          std::move(csv), [=](const Row& r) { return csv_format(r.*field); }};
}

/// A column of an int field, alike in both views.
template <typename Row>
Column<Row> integer(int Row::*field, std::string text, std::string csv) {
  return {std::move(text),
          [=](const Row& r) { return std::to_string(r.*field); },
          std::move(csv)};
}

/// The C_off/vol column: a percentage in the table, the ratio in the CSV.
template <typename Row>
Column<Row> ratio_column(Format csv_format = fixed<6>) {
  return number<Row>(&Row::ratio, "C_off/vol", ratio_pct, "coff_ratio",
                     csv_format);
}

template <typename Row>
Table make_table(const std::vector<Column<Row>>& columns,
                 const std::vector<Row>& rows, std::string title = {}) {
  Table table;
  table.title = std::move(title);
  add_rows(table, columns, rows);
  return table;
}

template <typename Row>
int total_violations(const std::vector<Row>& rows) {
  int violations = 0;
  for (const Row& row : rows) violations += row.violations;
  return violations;
}

/// "D DAGs/point, seed S" and the blank line that ends every header.
std::string dags_seed(const Flags& flags) {
  return std::to_string(flags.get<int>("dags")) + " DAGs/point, seed " +
         std::to_string(flags.get<std::int64_t>("seed")) + "\n\n";
}

/// "n in [min, max], " then dags_seed.
std::string batch_line(const Flags& flags) {
  return "n in [" + std::to_string(flags.get<int>("min-nodes")) + ", " +
         std::to_string(flags.get<int>("max-nodes")) + "], " +
         dags_seed(flags);
}

/// 1..n, the K and n_d sweeps of the --max-* flags.
std::vector<int> one_to(int n) {
  std::vector<int> out;
  for (int k = 1; k <= n; ++k) out.push_back(k);
  return out;
}

/// The --dags, --seed and --jobs of every DAG figure; negative seeds wrap
/// into the uint64 seed space.
template <typename Config>
Config batch_config(const Flags& flags) {
  Config config;
  config.dags_per_point = flags.get<int>("dags");
  config.seed = static_cast<std::uint64_t>(flags.get<std::int64_t>("seed"));
  config.jobs = flags.get<int>("jobs");
  return config;
}

/// batch_config plus --min-nodes and --max-nodes.
template <typename Config>
Config grid_config(const Flags& flags) {
  auto config = batch_config<Config>(flags);
  config.params.min_nodes = flags.get<int>("min-nodes");
  config.params.max_nodes = flags.get<int>("max-nodes");
  return config;
}

// ---- fig6 -----------------------------------------------------------------

Report fig6_report(const Flags& flags, const Fig6Config&,
                   const Fig6Result& result) {
  using R = Fig6Row;
  const std::vector<Column<R>> columns{
      ratio_column<R>(),
      integer<R>(&R::m, "m", "m"),
      number<R>(&R::avg_original, "avg T(tau)", fixed<1>, "avg_original"),
      number<R>(&R::avg_transformed, "avg T(tau')", fixed<1>,
                "avg_transformed"),
      number<R>(&R::pct_change, "pct change tau vs tau'", pct, "pct_change"),
  };
  Report report;
  report.header =
      "== Figure 6: % change of avg execution time of tau vs tau' "
      "(breadth-first scheduler) ==\n" +
      batch_line(flags);
  report.tables.push_back(make_table(columns, result.rows));
  report.summary =
      "Shape summary (paper: crossovers at ~11/8/6/4.5% of vol for "
      "m=2/4/8/16; peak ~+24% at m=2):\n";
  for (const auto& s : result.summaries) {
    report.summary += "  m=" + std::to_string(s.m) +
                      ": transformation wins from C_off/vol ≈ " +
                      ratio_or(s.crossover_ratio, "never") + ", peak " +
                      pct(s.peak_pct) + " at " + ratio_pct(s.peak_ratio) +
                      "\n";
  }
  return report;
}

// ---- fig7 -----------------------------------------------------------------

Fig7Config fig7_config(const Flags& flags) {
  const double time_limit = flags.get<double>("time-limit");
  const std::int64_t max_nodes = flags.get<std::int64_t>("solver-nodes");
  HEDRA_REQUIRE(time_limit > 0.0, "--time-limit must be > 0");
  HEDRA_REQUIRE(max_nodes >= 1, "--solver-nodes must be >= 1");
  auto config = batch_config<Fig7Config>(flags);
  config.solver.time_limit_sec = time_limit;
  config.solver.max_nodes = static_cast<std::uint64_t>(max_nodes);
  config.solver.jobs = flags.get<int>("solver-jobs");
  return config;
}

Report fig7_report(const Flags& flags, const Fig7Config& config,
                   const Fig7Result& result) {
  using R = Fig7Row;
  const std::vector<Column<R>> columns{
      integer<R>(&R::m, "m", "m"),
      ratio_column<R>(),
      number<R>(&R::incr_rhom_pct, "R_hom vs OPT", pct, "incr_rhom_pct"),
      number<R>(&R::incr_rhet_pct, "R_het vs OPT", pct, "incr_rhet_pct"),
      number<R>(
          &R::optimal_fraction, "proven optimal",
          [](double v) { return format_double(100.0 * v, 0) + "%"; },
          "optimal_fraction"),
  };
  Report report;
  report.header =
      "== Figure 7: increment of R_hom / R_het over the minimum makespan "
      "(exact solver) ==\ncases: ";
  for (const Fig7Case& c : config.cases) {
    report.header += "m=" + std::to_string(c.m) + " n in [" +
                     std::to_string(c.min_nodes) + "," +
                     std::to_string(c.max_nodes) + "]; ";
  }
  report.header += dags_seed(flags);
  report.tables.push_back(make_table(columns, result.rows));
  report.summary =
      "Paper shape: R_het pessimism decays with C_off (<1% once C_off is "
      "large); R_hom is better only for very small C_off.\n";
  return report;
}

// ---- fig8 -----------------------------------------------------------------

Report fig8_report(const Flags& flags, const Fig8Config&,
                   const Fig8Result& result) {
  using R = Fig8Row;
  const std::vector<Column<R>> columns{
      integer<R>(&R::m, "m", "m"),
      ratio_column<R>(),
      number<R>(&R::pct_s1, "S1 %", fixed<1>, "pct_s1"),
      number<R>(&R::pct_s21, "S2.1 %", fixed<1>, "pct_s21"),
      number<R>(&R::pct_s22, "S2.2 %", fixed<1>, "pct_s22"),
  };
  Report report;
  report.header =
      "== Figure 8: occurrence of Theorem 1 scenarios ==\n" + batch_line(flags);
  report.tables.push_back(make_table(columns, result.rows));
  report.summary =
      "S2.1/S2.2 crossover (paper: ~32/20/14/10% of vol for m=2/4/8/16):\n";
  for (const auto& s : result.summaries) {
    report.summary += "  m=" + std::to_string(s.m) + ": " +
                      ratio_or(s.s21_s22_crossover, "not reached") + "\n";
  }
  return report;
}

// ---- fig9 -----------------------------------------------------------------

Report fig9_report(const Flags& flags, const Fig9Config&,
                   const Fig9Result& result) {
  using R = Fig9Row;
  const std::vector<Column<R>> columns{
      integer<R>(&R::m, "m", "m"),
      ratio_column<R>(),
      number<R>(&R::mean_pct, "mean pct change", pct, "mean_pct"),
      number<R>(&R::max_pct, "max pct change", pct, "max_pct"),
  };
  Report report;
  report.header =
      "== Figure 9 + §5.4 maxima: % change of R_hom w.r.t. R_het ==\n" +
      batch_line(flags);
  report.tables.push_back(make_table(columns, result.rows));
  report.summary =
      "Shape summary (paper: peaks ~70/55/40/30%, maxima "
      "95.0/82.5/65.3/47.7%, R_hom better below ~1.6/3.4/4.6/5% for "
      "m=2/4/8/16):\n";
  for (const auto& s : result.summaries) {
    report.summary += "  m=" + std::to_string(s.m) + ": R_het wins from " +
                      ratio_or(s.crossover_ratio, "never") + ", peak mean " +
                      pct(s.peak_mean_pct) + " at " +
                      ratio_pct(s.peak_ratio) + ", max observed " +
                      pct(s.max_observed_pct) + "\n";
  }
  return report;
}

// ---- fig10 and fig11: the platform sweeps ---------------------------------

/// Policy column labels abbreviate to hyphen-initials: breadth-first ->
/// "BF", critical-path-first -> "CPF", random -> "R".
std::string abbreviate(const std::string& name) {
  std::string out;
  bool take = true;
  for (const char c : name) {
    if (take && c != '-') out.push_back(static_cast<char>(std::toupper(c)));
    take = c == '-';
  }
  return out;
}

/// The columns every platform sweep ends with: ratio, m and mean bound
/// after `first`, `extra` after them, then one per policy, the worst
/// policy over the bound, and (CSV only) the violations.
template <typename Row>
std::vector<Column<Row>> platform_columns(std::vector<Column<Row>> columns,
                                          std::vector<Column<Row>> extra) {
  columns.push_back(ratio_column<Row>(fixed<4>));
  columns.push_back(integer<Row>(&Row::m, "m", "m"));
  columns.push_back(
      number<Row>(&Row::mean_bound, "mean R_plat", fixed<1>, "mean_bound"));
  columns.insert(columns.end(), extra.begin(), extra.end());
  const auto& policies = sim::all_policies();
  for (std::size_t p = 0; p < policies.size(); ++p) {
    const std::string name = sim::to_string(policies[p]);
    columns.push_back(
        {"sim " + abbreviate(name),
         [p](const Row& r) { return fixed<1>(r.mean_makespan[p]); },
         "mean_sim_" + name,
         [p](const Row& r) { return fixed<6>(r.mean_makespan[p]); }});
  }
  columns.push_back(number<Row>(&Row::max_sim_over_bound, "worst/bound",
                                fixed<3>, "max_sim_over_bound"));
  columns.push_back(integer<Row>(&Row::violations, "", "violations"));
  return columns;
}

/// "worst sim/bound W, mean slack S%" of a platform summary.
template <typename Summary>
std::string platform_summary(const Summary& s) {
  return "worst sim/bound " + fixed<3>(s.max_sim_over_bound) +
         ", mean slack " + fixed<1>(s.mean_slack_pct) + "%";
}

Fig10Config fig10_config(const Flags& flags) {
  auto config = grid_config<Fig10Config>(flags);
  config.offloads_per_device = flags.get<int>("per-device");
  config.devices = one_to(flags.get<int>("max-devices"));
  return config;
}

Report fig10_report(const Flags& flags, const Fig10Config&,
                    const Fig10Result& result) {
  using R = Fig10Row;
  const auto columns =
      platform_columns<R>({integer<R>(&R::devices, "K", "devices")}, {});
  Report report;
  report.header =
      "== Figure 10: K-device platform bound vs every work-conserving "
      "policy ==\nK in [1, " +
      std::to_string(flags.get<int>("max-devices")) + "], " +
      std::to_string(flags.get<int>("per-device")) +
      " offload(s)/device, " + batch_line(flags);
  report.tables.push_back(make_table(columns, result.rows));
  report.summary =
      "Soundness & tightness per (K, m) — every work-conserving policy must "
      "stay below R_plat:\n";
  for (const auto& s : result.summaries) {
    report.summary += "  K=" + std::to_string(s.devices) +
                      " m=" + std::to_string(s.m) + ": " +
                      platform_summary(s) + ", violations " +
                      violations_text(s.violations) + "\n";
  }
  report.violations = total_violations(result.rows);
  return report;
}

/// "2" for symmetric unit counts, "2-1" for an asymmetric vector (the '-'
/// keeps CSV cells delimiter-free).
std::string units_str(const std::vector<int>& units) {
  const bool symmetric = std::all_of(
      units.begin(), units.end(), [&](int n) { return n == units.front(); });
  std::string out = std::to_string(units.front());
  for (std::size_t i = 1; !symmetric && i < units.size(); ++i) {
    out += '-';
    out += std::to_string(units[i]);
  }
  return out;
}

Fig11Config fig11_config(const Flags& flags) {
  auto config = grid_config<Fig11Config>(flags);
  config.devices = flags.get<int>("devices");
  config.offloads_per_device = flags.get<int>("per-device");
  config.unit_vectors.clear();
  const std::string& vectors = flags.get<std::string>("unit-vectors");
  if (vectors.empty()) {
    for (const int units : one_to(flags.get<int>("max-units"))) {
      config.unit_vectors.emplace_back(
          static_cast<std::size_t>(std::max(config.devices, 0)), units);
    }
    return config;
  }
  for (const auto& entry : split(vectors, ';')) {
    std::vector<int> vec;
    for (const auto& value : split(trim(entry), ',')) {
      const std::int64_t units = parse_int(trim(value));
      HEDRA_REQUIRE(units >= 1 && units <= std::numeric_limits<int>::max(),
                    "unit counts must be >= 1 and fit in an int");
      vec.push_back(static_cast<int>(units));
    }
    config.unit_vectors.push_back(std::move(vec));
  }
  return config;
}

Report fig11_report(const Flags& flags, const Fig11Config& config,
                    const Fig11Result& result) {
  using R = Fig11Row;
  const std::string devices = std::to_string(config.devices);
  const auto columns = platform_columns<R>(
      {{"", [devices](const R&) { return devices; }, "devices"},
       {"n_d", [](const R& r) { return units_str(r.unit_vector); },
        "units"}},
      {number<R>(&R::mean_bound_single, "R_plat(n=1)", fixed<1>,
                 "mean_bound_single")});
  const std::string& vectors = flags.get<std::string>("unit-vectors");
  Report report;
  report.header =
      "== Figure 11: per-device multiplicity n_d vs the generalised platform "
      "bound ==\nK = " +
      devices + ", " +
      (vectors.empty() ? "n_d in [1, " +
                             std::to_string(flags.get<int>("max-units")) + "]"
                       : "unit vectors " + vectors) +
      ", " + std::to_string(flags.get<int>("per-device")) +
      " offload(s)/device, " + batch_line(flags);
  report.tables.push_back(make_table(
      columns, result.rows,
      "K = " + devices + " accelerator class(es), n_d units each\n"));
  report.summary =
      "Soundness & tightening per (n_d, m) — every work-conserving policy "
      "must stay below R_plat(n_d):\n";
  for (const auto& s : result.summaries) {
    report.summary += "  n_d=" + units_str(s.unit_vector) +
                      " m=" + std::to_string(s.m) + ": " +
                      platform_summary(s) + ", bound gain vs n_d=1 " +
                      fixed<1>(s.mean_bound_gain_pct) + "%, violations " +
                      violations_text(s.violations) + "\n";
  }
  report.violations = total_violations(result.rows);
  return report;
}

// ---- fig12 ----------------------------------------------------------------

Fig12Config fig12_config(const Flags& flags) {
  const int max_devices = flags.get<int>("max-devices");
  const int max_units = flags.get<int>("max-units");
  HEDRA_REQUIRE(max_devices >= 1, "--max-devices must be >= 1");
  HEDRA_REQUIRE(max_units >= 1, "--max-units must be >= 1");
  Fig12Config config;
  config.tasksets_per_point = flags.get<int>("tasksets");
  config.num_tasks = flags.get<int>("tasks");
  config.seed = static_cast<std::uint64_t>(flags.get<std::int64_t>("seed"));
  config.jobs = flags.get<int>("jobs");
  config.jobs_per_task = flags.get<int>("jobs-per-task");
  config.coff_ratio = flags.get<double>("coff-ratio");
  config.devices = one_to(max_devices);
  config.units = one_to(max_units);
  if (flags.get<bool>("quick")) {
    config.utilizations = {0.25, 0.75};
    config.devices = {1, 2};
    config.units = {1, 2};
    config.cores = {4};
    config.tasksets_per_point = 4;
    config.num_tasks = 3;
    config.jobs_per_task = 2;
  }
  return config;
}

Report fig12_report(const Flags&, const Fig12Config& config,
                    const Fig12Result& result) {
  using R = Fig12Row;
  const std::vector<Column<R>> columns{
      integer<R>(&R::devices, "K", "devices"),
      integer<R>(&R::units, "n_d", "units"),
      integer<R>(&R::m, "m", "m"),
      number<R>(&R::utilization, "U", fixed<2>, "utilization", fixed<4>),
      {"accepted",
       [](const R& r) {
         return std::to_string(r.admitted) + "/" + std::to_string(r.tasksets);
       }},
      integer<R>(&R::tasksets, "", "tasksets"),
      integer<R>(&R::admitted, "", "admitted"),
      number<R>(&R::acceptance, "", fixed<6>, "acceptance"),
      number<R>(&R::mean_cores_used, "mean cores", fixed<1>,
                "mean_cores_used"),
      number<R>(&R::mean_bound_over_deadline, "mean R/D", fixed<3>,
                "mean_bound_over_deadline"),
      number<R>(&R::max_obs_over_bound, "worst obs/bound", fixed<3>,
                "max_obs_over_bound"),
      integer<R>(&R::violations, "", "violations"),
  };
  Report report;
  report.header =
      "== Figure 12: sporadic taskset admission under shared-accelerator "
      "contention ==\n" +
      std::to_string(config.num_tasks) + " tasks/set, " +
      std::to_string(config.tasksets_per_point) + " sets/point, K in [1, " +
      std::to_string(config.devices.back()) + "], n_d in [1, " +
      std::to_string(config.units.back()) + "], " +
      std::to_string(config.jobs_per_task) + " jobs/task simulated, seed " +
      std::to_string(config.seed) + "\n\n";
  report.tables.push_back(make_table(
      columns, result.rows,
      "Taskset admission under shared-accelerator contention (" +
          result.policy_name + " simulation)\n"));
  report.summary =
      "Capacity & soundness per (K, n_d, m) — every admitted job must stay "
      "below its contention bound:\n";
  for (const auto& s : result.summaries) {
    report.summary +=
        "  K=" + std::to_string(s.devices) + " n_d=" +
        std::to_string(s.units) + " m=" + std::to_string(s.m) +
        ": >=50% acceptance up to U = " +
        (std::isnan(s.half_acceptance_util)
             ? std::string("never")
             : fixed<2>(s.half_acceptance_util)) +
        ", worst obs/bound " + fixed<3>(s.max_obs_over_bound) +
        ", violations " + violations_text(s.violations) + "\n";
  }
  report.violations = total_violations(result.rows);
  return report;
}

// ---- ablation_policies ----------------------------------------------------

Report ablation_report(const Flags&, const AblationConfig&,
                       const AblationResult& result) {
  const Format ratio = [](double v) {
    return format_double(100.0 * v, 1) + "%";
  };
  using P = PolicyAblationRow;
  const std::vector<Column<P>> policy_columns{
      number<P>(&P::ratio, "C_off/vol", ratio, ""),
      {"policy", [](const P& r) { return sim::to_string(r.policy); }},
      number<P>(&P::avg_original, "avg T(tau)", fixed<1>, ""),
      number<P>(&P::avg_transformed, "avg T(tau')", fixed<1>, ""),
      {"pct change",
       [](const P& r) {
         return pct(
             stats::percentage_change(r.avg_original, r.avg_transformed));
       }},
  };
  using A = AnalysisAblationRow;
  const std::vector<Column<A>> analysis_columns{
      number<A>(&A::ratio, "C_off/vol", ratio, ""),
      integer<A>(&A::m, "m", ""),
      number<A>(&A::hom, "R_hom", fixed<1>, ""),
      number<A>(&A::het, "R_het", fixed<1>, ""),
      number<A>(&A::best, "best", fixed<1>, ""),
      number<A>(&A::chain, "chain bound", fixed<1>, ""),
      number<A>(&A::naive, "naive (UNSOUND)", fixed<1>, ""),
  };
  Report report;
  report.header = "== Ablation bench ==\n\n";
  Table policies;
  policies.title =
      "-- Scheduler-policy ablation (m = 8): does the transformation help "
      "under smarter schedulers? --\n";
  for (const auto& group : result.policies) {
    add_rows(policies, policy_columns, group);
    policies.text_rows.emplace_back();
  }
  report.tables.push_back(std::move(policies));
  report.tables.push_back(make_table(
      analysis_columns, result.analyses,
      "-- Analysis-variant ablation (mean bound, lower is tighter; naive "
      "shown only to illustrate what unsoundness buys) --\n"));
  return report;
}

}  // namespace

Figure fig6_figure() {
  return make_figure(
      "fig6_transform_impact",
      "Figure 6: average-performance impact of the DAG transformation",
      grid_flags(), grid_config<Fig6Config>, run_fig6, fig6_report);
}

Figure fig7_figure() {
  return make_figure(
      "fig7_accuracy_vs_ilp", "Figure 7: bound accuracy vs. minimum makespan",
      {dags_flag(20), seed_flag(42),
       {"time-limit", 1.0, "solver seconds per instance"},
       {"solver-nodes", std::int64_t{300000}, "solver node budget"},
       csv_flag(), jobs_flag(),
       {"solver-jobs", 1,
        "threads per B&B solve (work-stealing search; only effective with "
        "--jobs 1, 0 = all hardware threads)"}},
      fig7_config, run_fig7, fig7_report);
}

Figure fig8_figure() {
  return make_figure(
      "fig8_scenarios", "Figure 8: scenario occurrence percentages",
      grid_flags(), grid_config<Fig8Config>, run_fig8, fig8_report);
}

Figure fig9_figure() {
  return make_figure(
      "fig9_hom_vs_het", "Figure 9: R_hom vs R_het percentage change",
      grid_flags(), grid_config<Fig9Config>, run_fig9, fig9_report);
}

Figure fig10_figure() {
  return make_figure(
      "fig10_multi_device",
      "Figure 10: K-device platform bound vs simulation",
      {dags_flag(25), seed_flag(42),
       {"max-devices", 4, "sweep K = 1..max accelerator devices"},
       {"per-device", 1, "offload nodes per device"}, min_nodes_flag(),
       max_nodes_flag(), csv_flag(), jobs_flag()},
      fig10_config, run_fig10, fig10_report);
}

Figure fig11_figure() {
  return make_figure(
      "fig11_units", "Figure 11: unit multiplicity vs bound and sim",
      {dags_flag(25), seed_flag(43),
       {"devices", 2, "K accelerator device classes"},
       {"max-units", 3, "sweep n_d = 1..max units per accelerator class"},
       {"unit-vectors", std::string(),
        "sweep explicit per-class unit vectors instead of the symmetric "
        "1..max-units grid, e.g. '2,1;3,1' (one comma-separated vector per "
        "';'-separated entry, one entry value per device class)"},
       {"per-device", 2, "offload nodes per device"}, min_nodes_flag(),
       max_nodes_flag(), csv_flag(), jobs_flag()},
      fig11_config, run_fig11, fig11_report);
}

Figure fig12_figure() {
  return make_figure(
      "fig12_taskset", "Figure 12: taskset admission vs contention",
      {{"tasksets", 20, "task sets per parameter point"},
       {"tasks", 4, "tasks per set"},
       seed_flag(44),
       {"max-devices", 2, "sweep K = 1..max accelerator classes"},
       {"max-units", 2, "sweep n_d = 1..max units per accelerator class"},
       {"jobs-per-task", 3, "releases simulated per task"},
       {"coff-ratio", 0.2, "target C_off/vol per task"},
       csv_flag(),
       {"quick", false, "smoke mode: tiny grid and batches (for CI)"},
       jobs_flag()},
      fig12_config, run_fig12, fig12_report);
}

Figure ablation_figure() {
  return make_figure(
      "ablation_policies",
      "hedra ablations: scheduler policies and analysis variants",
      {dags_flag(40), seed_flag(42), jobs_flag()},
      batch_config<AblationConfig>, run_ablation, ablation_report);
}

}  // namespace hedra::exp
