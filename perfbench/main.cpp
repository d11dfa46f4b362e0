/// \file main.cpp
/// hedra_perfbench — the repository benchmark's measuring program.
///
///     hedra_perfbench --workload sweep|admit|exact_proof --seed N
///                     --seconds S --trace 0|1 [--admissiond PATH]
///                     [--work-dir DIR]
///     hedra_perfbench --self-test
///
/// Prints a human-readable report and, as the last stdout line, the result
/// JSON.  Exits non-zero when any referee or shape check failed.

#include <filesystem>
#include <iostream>
#include <string>

#include "common.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  hedra::ArgParser parser("hedra_perfbench",
                          "the repository benchmark's measuring program");
  const auto* workload =
      parser.add_string("workload", "", "sweep | admit | exact_proof");
  const auto* seed = parser.add_int("seed", 1, "workload seed");
  const auto* seconds =
      parser.add_real("seconds", 10.0, "measured phase length");
  const auto* trace =
      parser.add_int("trace", 0, "1 = traced run reporting per-layer metrics");
  const auto* admissiond = parser.add_string(
      "admissiond", "admissiond", "admission daemon binary (admit)");
  const auto* work_dir = parser.add_string(
      "work-dir", ".bench_build/run", "scratch directory (journals, traces)");
  const auto* self_test =
      parser.add_flag("self-test", "run the benchmark's own self-tests");
  try {
    if (!parser.parse(argc, argv)) return 0;
    if (*self_test) {
      const int failures = perfbench::run_self_tests();
      std::cout << "self-test: " << failures << " failure(s)\n";
      return failures == 0 ? 0 : 1;
    }
    perfbench::Options options;
    options.workload = *workload;
    options.seed = static_cast<std::uint64_t>(*seed);
    options.seconds = *seconds;
    options.trace = *trace != 0;
    options.admissiond = *admissiond;
    options.work_dir = *work_dir;
    std::filesystem::create_directories(options.work_dir);

    std::cout << "fingerprint " << perfbench::fingerprint_json(options.work_dir)
              << "\n";
    perfbench::Result result;
    if (options.workload == "sweep") {
      result = perfbench::run_sweep(options);
    } else if (options.workload == "admit") {
      result = perfbench::run_admit(options);
    } else if (options.workload == "exact_proof") {
      result = perfbench::run_exact_proof(options);
    } else {
      std::cerr << "error: unknown workload '" << options.workload << "'\n";
      return 2;
    }
    if (result.attempted == 0) result.fail("no operation was checked");
    result.metrics["bench.failed_ratio"] =
        static_cast<double>(result.failed) /
        static_cast<double>(std::max<std::uint64_t>(result.attempted, 1));
    perfbench::print_result(result);
    return result.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
