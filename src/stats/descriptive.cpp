#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace hedra::stats {

Summary summarize(const std::vector<double>& values) {
  HEDRA_REQUIRE(!values.empty(), "cannot summarize an empty sample");
  Summary s;
  s.count = values.size();
  double total = 0.0;
  s.min = values.front();
  s.max = values.front();
  for (const double v : values) {
    total += v;
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  }
  s.mean = total / static_cast<double>(s.count);
  if (s.count >= 2) {
    double acc = 0.0;
    for (const double v : values) acc += (v - s.mean) * (v - s.mean);
    s.stddev = std::sqrt(acc / static_cast<double>(s.count - 1));
  }
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t mid = sorted.size() / 2;
  s.median = sorted.size() % 2 == 1
                 ? sorted[mid]
                 : 0.5 * (sorted[mid - 1] + sorted[mid]);
  return s;
}

double mean(const std::vector<double>& values) {
  return summarize(values).mean;
}

double percentage_change(double a, double b) {
  HEDRA_REQUIRE(b != 0.0, "percentage change with zero reference");
  return 100.0 * (a - b) / b;
}

}  // namespace hedra::stats
