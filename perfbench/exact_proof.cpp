/// \file exact_proof.cpp
/// The `exact_proof` workload: the exact minimum makespan (the paper's ILP
/// stand-in) run to a *proof*.  The corpus is fig7-shaped DAGs generated
/// from the seed; a candidate is kept only if its jobs=1 solve is proven
/// within a node budget AND needed at least a floor number of nodes, so
/// selection depends on node counts, never on machine speed, and no kept
/// instance closes at the root.  Candidates are taken in generation order
/// until the kept instances' jobs=1 nodes reach a fixed total, so every
/// seed's corpus is the same amount of search.
///
/// Set-up is the jobs=1 proof of the selected corpus.  The timed round
/// proves the whole corpus at jobs=nproc with a pure node budget and no
/// wall limit.  Referee: every makespan is proven and equals the jobs=1
/// makespan recorded during selection.

#include <algorithm>
#include <string>
#include <vector>

#include "common.h"
#include "exact/bnb.h"
#include "exp/experiment.h"
#include "exp/runner.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

constexpr int kCores = 2;
constexpr int kMinNodes = 15;
constexpr int kMaxNodes = 25;
constexpr double kCoffRatio = 0.35;
constexpr int kCandidatesPerBatch = 16;
/// Selection budget: a candidate not proven within it is skipped.
constexpr std::uint64_t kSelectNodeBudget = 250'000;
/// A kept instance needed at least this many jobs=1 nodes.
constexpr std::uint64_t kNodeFloor = 100'000;
/// Selection stops once the kept instances sum to this many jobs=1 nodes.
constexpr std::uint64_t kCorpusNodes = 4'000'000;
/// Guard against a seed whose candidates never reach the total.
constexpr int kMaxCandidates = 8000;
/// The timed solve's pure node budget (no wall limit): far above any kept
/// instance, so only a solver regression could stop a proof short.
constexpr std::uint64_t kProofNodeBudget = 200'000'000;
constexpr int kSetupReps = 3;
constexpr int kRepeats = 3;  ///< corpus proofs per latency sample (best of)
constexpr double kTailPct = 90.0;

struct Instance {
  hedra::graph::Dag dag;
  hedra::graph::Time makespan = 0;  ///< jobs=1 proven optimum
  std::uint64_t nodes = 0;          ///< jobs=1 nodes to the proof
};

hedra::exact::BnbConfig solver_config(std::uint64_t max_nodes, int jobs) {
  hedra::exact::BnbConfig config;
  config.max_nodes = max_nodes;
  config.time_limit_sec = 1e9;  // pure node budget
  config.jobs = jobs;
  return config;
}

/// Candidates in generation order, then jobs=1 selection.
std::vector<Instance> select_corpus(std::uint64_t seed, Result& result) {
  std::vector<Instance> corpus;
  std::uint64_t total_nodes = 0;
  int candidates = 0;
  std::uint64_t batch_index = 0;
  while (total_nodes < kCorpusNodes && candidates < kMaxCandidates) {
    hedra::exp::BatchConfig batch;
    batch.params = hedra::gen::HierarchicalParams::small_tasks();
    batch.params.min_nodes = kMinNodes;
    batch.params.max_nodes = kMaxNodes;
    batch.coff_ratio = kCoffRatio;
    batch.count = kCandidatesPerBatch;
    batch.seed = hedra::exp::batch_seeds(seed, batch_index + 1).back();
    ++batch_index;
    for (hedra::graph::Dag& dag : hedra::exp::generate_batch(batch)) {
      ++candidates;
      const hedra::exact::BnbResult solved = hedra::exact::min_makespan(
          dag, kCores, solver_config(kSelectNodeBudget, 1));
      if (!exact_instance_shape_ok(solved, kNodeFloor)) continue;
      total_nodes += solved.nodes_explored;
      corpus.push_back(
          Instance{std::move(dag), solved.makespan, solved.nodes_explored});
      if (total_nodes >= kCorpusNodes) break;
    }
  }
  result.check(total_nodes >= kCorpusNodes,
               "corpus selection ran out of candidates after " +
                   std::to_string(candidates));
  return corpus;
}

/// Aggregated search telemetry of one round.
struct RoundStats {
  double wall_s = 0.0;
  double solve_s = 0.0;  ///< sum of per-instance solve walls
  double cpu_s = 0.0;
  hedra::exact::SearchStats total;
  std::vector<std::uint64_t> worker_nodes;  ///< summed per worker index
  int root_shortcuts = 0;
};

/// Proves every instance at `jobs` workers and referees the makespans.
RoundStats prove_corpus(const std::vector<Instance>& corpus, int jobs,
                        Result& result) {
  RoundStats stats;
  const double cpu0 = self_cpu_s();
  const double t0 = now_s();
  for (const Instance& instance : corpus) {
    const double s0 = now_s();
    const hedra::exact::BnbResult solved = hedra::exact::min_makespan(
        instance.dag, kCores, solver_config(kProofNodeBudget, jobs));
    const double s1 = now_s();
    stats.solve_s += s1 - s0;
    result.check(solved.proven_optimal && solved.makespan == instance.makespan,
                 "jobs=" + std::to_string(jobs) + " solve gave makespan " +
                     std::to_string(solved.makespan) +
                     (solved.proven_optimal ? " (proven)" : " (unproven)") +
                     ", jobs=1 selection proved " +
                     std::to_string(instance.makespan));
    const auto& s = solved.stats;
    stats.total.nodes += s.nodes;
    stats.total.prune_incumbent += s.prune_incumbent;
    stats.total.prune_bound += s.prune_bound;
    stats.total.steals += s.steals;
    stats.total.splits += s.splits;
    stats.total.split_refusals += s.split_refusals;
    if (solved.worker_stats.empty() || s.nodes == 0) ++stats.root_shortcuts;
    if (stats.worker_nodes.size() < solved.worker_stats.size()) {
      stats.worker_nodes.resize(solved.worker_stats.size(), 0);
    }
    for (std::size_t w = 0; w < solved.worker_stats.size(); ++w) {
      stats.worker_nodes[w] += solved.worker_stats[w].nodes;
    }
  }
  stats.wall_s = now_s() - t0;
  stats.cpu_s = self_cpu_s() - cpu0;
  return stats;
}

}  // namespace

/// Shape check shared with the self-tests: a kept instance must have run a
/// real search (not the root-bound shortcut) of at least `floor` nodes.
bool exact_instance_shape_ok(const hedra::exact::BnbResult& solved,
                             std::uint64_t floor) {
  return !solved.worker_stats.empty() && solved.nodes_explored >= floor &&
         solved.proven_optimal;
}

Result run_exact_proof(const Options& options) {
  Result result;
  const int jobs = hedra::ThreadPool::default_workers();

  // Screening the candidates is input generation: its cost depends on how
  // many candidates a seed needs, so it is done once and not timed.
  const std::vector<Instance> corpus = select_corpus(options.seed, result);
  if (corpus.empty()) return result;
  std::uint64_t corpus_nodes = 0;
  for (const Instance& instance : corpus) {
    corpus_nodes += instance.nodes;
    result.check(instance.nodes >= kNodeFloor,
                 "corpus instance below the node floor");
  }

  // Set-up, repeated: the jobs=1 proofs of the corpus that fix the referee
  // makespans; the sequential DFS must explore exactly the selection's
  // trees.  Its wall is also the baseline of exact.speedup_vs_jobs1.
  std::vector<double> setup_walls;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const RoundStats seq = prove_corpus(corpus, 1, result);
    setup_walls.push_back(seq.wall_s);
    result.check(seq.total.nodes == corpus_nodes,
                 "jobs=1 proof explored a different tree than selection");
  }
  result.metrics["setup_s"] = median(setup_walls);

  // Each latency sample is the best of kRepeats back-to-back proofs of the
  // identical corpus, filtering interference from other tenants of the
  // machine (the timeit convention); the latency is proof_s.
  std::vector<double> proof_ms;
  std::vector<RoundStats> traced;
  std::vector<double> plain_walls, traced_walls;
  const double end = now_s() + options.seconds;
  while (now_s() < end || proof_ms.empty()) {
    double best = 0.0;
    for (int r = 0; r < kRepeats; ++r) {
      const double wall = prove_corpus(corpus, jobs, result).wall_s;
      plain_walls.push_back(wall);
      best = r == 0 ? wall : std::min(best, wall);
    }
    proof_ms.push_back(1000.0 * best);
    if (!options.trace) continue;
    hedra::obs::set_enabled(true);
    traced.push_back(prove_corpus(corpus, jobs, result));
    hedra::obs::set_enabled(false);
    traced_walls.push_back(traced.back().wall_s);
  }

  const double proof_s = median(proof_ms) / 1000.0;
  // Items are the corpus's jobs=1 search nodes: seeds draw different
  // instances, but every corpus is ~kCorpusNodes of sequential search.
  result.metrics["items_per_s"] = static_cast<double>(corpus_nodes) / proof_s;
  result.metrics["latency_p50_ms"] = percentile(proof_ms, 50.0);
  result.metrics["latency_tail_ms"] = percentile(proof_ms, kTailPct);
  result.metrics["peak_rss_mb"] = self_peak_rss_mb();
  result.metrics["bench.latency_samples"] =
      static_cast<double>(proof_ms.size());
  result.metrics["bench.latency_tail_pct"] = kTailPct;

  if (options.trace && !traced.empty()) {
    double nodes = 0, prunes = 0, splits = 0, steals = 0, refusals = 0;
    double wall = 0, solve = 0, cpu = 0, balance = 0, shortcuts = 0;
    for (const RoundStats& r : traced) {
      nodes += static_cast<double>(r.total.nodes);
      prunes +=
          static_cast<double>(r.total.prune_incumbent + r.total.prune_bound);
      splits += static_cast<double>(r.total.splits);
      steals += static_cast<double>(r.total.steals);
      refusals += static_cast<double>(r.total.split_refusals);
      wall += r.wall_s;
      solve += r.solve_s;
      cpu += r.cpu_s;
      shortcuts += r.root_shortcuts;
      double max_w = 0, sum_w = 0;
      for (const auto n : r.worker_nodes) {
        max_w = std::max(max_w, static_cast<double>(n));
        sum_w += static_cast<double>(n);
      }
      balance += sum_w > 0 ? max_w / (sum_w / static_cast<double>(
                                                   r.worker_nodes.size()))
                           : 0.0;
    }
    const double rounds = static_cast<double>(traced.size());
    result.metrics["exact.nodes"] = nodes / rounds;
    result.metrics["exact.nodes_per_s"] = nodes / wall;
    result.metrics["exact.prune_ratio"] = nodes > 0 ? prunes / nodes : 0.0;
    result.metrics["exact.splits"] = splits / rounds;
    result.metrics["exact.steals"] = steals / rounds;
    result.metrics["exact.split_refusals"] = refusals / rounds;
    result.metrics["exact.worker_balance"] = balance / rounds;
    result.metrics["exact.cpu_per_wall"] =
        cpu / (wall * static_cast<double>(jobs));
    result.metrics["exact.speedup_vs_jobs1"] =
        median(setup_walls) / median(plain_walls);
    result.metrics["exact.root_shortcut_share"] =
        shortcuts / (rounds * static_cast<double>(corpus.size()));
    result.metrics["exact.unattributed_share"] =
        std::max(0.0, 1.0 - solve / wall);
    result.metrics["obs.trace_overhead_pct"] =
        100.0 * (median(traced_walls) / median(plain_walls) - 1.0);
    result.check(shortcuts == 0,
                 "a corpus instance closed at the root (no search ran)");
  }
  return result;
}

}  // namespace perfbench
