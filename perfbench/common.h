#pragma once

/// \file common.h
/// Shared plumbing of the repository benchmark: options, the result record
/// printed as the last stdout line, percentiles, timing, the machine
/// fingerprint.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hedra::exact {
struct BnbResult;
}  // namespace hedra::exact
namespace hedra::model {
class DagTask;
}  // namespace hedra::model
namespace hedra::taskset {
class TaskSet;
struct ContentionAnalysis;
}  // namespace hedra::taskset

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string admissiond;  ///< path of the daemon binary (admit workload)
  std::string work_dir;    ///< scratch directory inside the checkout
};

/// One workload run's outcome.  `attempted` counts checked operations and
/// `failed` the ones whose output a referee or shape check rejected.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> failures;  ///< first few failure messages

  /// Records a failed check (counted in `failed`) with its reason.
  void fail(const std::string& why);
  /// Records one checked operation; `ok == false` counts it as failed.
  void check(bool ok, const std::string& why_if_not);
  [[nodiscard]] bool correct() const { return failed == 0; }
};

/// Seconds on the monotonic clock (util::monotonic_now_ns).
[[nodiscard]] double now_s();

/// Linear-interpolated percentile (`p` in [0, 100]) of `samples`, the
/// numpy/`statistics` "inclusive" method.  Requires a non-empty input.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

/// How many samples lie strictly above the `p`-th percentile.
[[nodiscard]] std::size_t samples_beyond(const std::vector<double>& samples,
                                         double p);

[[nodiscard]] double median(std::vector<double> samples);

/// Peak resident set of this process in MiB (getrusage ru_maxrss).
[[nodiscard]] double self_peak_rss_mb();

/// CPU seconds (user + system) this process has consumed so far.
[[nodiscard]] double self_cpu_s();

/// One-line JSON machine fingerprint: nproc, hardware_concurrency, CPU
/// model, batch-kernel backend, build type, compiler, and the filesystem
/// type of `journal_dir`.
[[nodiscard]] std::string fingerprint_json(const std::string& journal_dir);

/// Prints any failure messages, then the raw result JSON (every metric the
/// run measured, name -> value) as the final stdout line.  run.py turns it
/// into the final result line using BENCHMARK.json's metric lists.
void print_result(const Result& result);

/// The workloads (one file each) and the benchmark's own self-tests.
[[nodiscard]] Result run_sweep(const Options& options);
[[nodiscard]] Result run_admit(const Options& options);
[[nodiscard]] Result run_exact_proof(const Options& options);
/// exact_proof's shape check: a corpus instance must have run a real search
/// (not the root-bound shortcut) of at least `floor` nodes to a proof.
[[nodiscard]] bool exact_instance_shape_ok(
    const hedra::exact::BnbResult& solved, std::uint64_t floor);

/// admit's referee: the reply the daemon must give to `candidate` joining
/// `warm`, worded as the service words it, from the offline exact
/// contention_rta (returned through `analysis` when non-null).
[[nodiscard]] std::string expected_admit_reply(
    const hedra::taskset::TaskSet& warm, const hedra::model::DagTask& candidate,
    hedra::taskset::ContentionAnalysis* analysis);

/// Returns the number of self-test failures (0 = pass).
[[nodiscard]] int run_self_tests();

}  // namespace perfbench
