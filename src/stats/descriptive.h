#pragma once

/// \file descriptive.h
/// Descriptive statistics for the Monte-Carlo experiments: every figure in
/// the paper reports an average over 100 random DAGs per parameter point,
/// and §5.4 additionally reports maxima.

#include <vector>

namespace hedra::stats {

/// Summary of a sample.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  ///< sample standard deviation (n-1); 0 if n < 2
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
};

/// Computes all summary fields.  Throws hedra::Error on an empty sample.
[[nodiscard]] Summary summarize(const std::vector<double>& values);

[[nodiscard]] double mean(const std::vector<double>& values);

/// The paper's §5.2 footnote: "the percentage change computes the relative
/// change of two values": 100 · (a − b) / b.  Throws if b == 0.
[[nodiscard]] double percentage_change(double a, double b);

}  // namespace hedra::stats
