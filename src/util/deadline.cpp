#include "util/deadline.h"

namespace hedra::util {

std::int64_t monotonic_now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Deadline::Clock::now().time_since_epoch())
      .count();
}

Deadline Deadline::after(std::chrono::nanoseconds budget) {
  Deadline d;
  d.unlimited_ = false;
  d.when_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(budget);
  return d;
}

Deadline Deadline::after_seconds(double seconds) {
  return after(std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double>(seconds)));
}

bool Budget::consume(std::uint64_t units) noexcept {
  if (exhausted_.load(std::memory_order_relaxed)) return false;
  const std::uint64_t before = used_.fetch_add(units, std::memory_order_relaxed);
  const std::uint64_t after = before + units;
  if (after > max_work_) {
    exhausted_.store(true, std::memory_order_relaxed);
    return false;
  }
  // Amortised clock poll: at most once per kClockStride consumed units.
  // (before / stride != after / stride) is true exactly when the counter
  // crossed a stride boundary, so concurrent consumers poll about once per
  // stride in aggregate, not each.
  if (!deadline_.unlimited() &&
      (before / kClockStride != after / kClockStride || before == 0)) {
    if (deadline_.expired()) {
      exhausted_.store(true, std::memory_order_relaxed);
      return false;
    }
  }
  return true;
}

}  // namespace hedra::util
