#pragma once

/// \file deadline.h
/// Cooperative deadline / budget tokens for the long-running entry points.
///
/// A batch reproduction can afford open-ended computation; an admission
/// SERVICE cannot.  The paper's fixpoint (taskset/contention_rta.h) has an
/// input-dependent iteration count, the exact solver explores an
/// exponential tree, and the sweep engine fans out arbitrarily large grids
/// — so every such entry point takes an optional budget token and answers
/// with a typed util::Outcome instead of silently truncating:
///
///   - kComplete         the computation ran to its mathematical end;
///   - kBudgetExhausted  a deadline / work cap cut it short — the partial
///                       answer is SOUND but possibly pessimistic (a
///                       truncated admission test reports "not admitted",
///                       a truncated B&B keeps its incumbent unproven,
///                       a truncated sweep returns completed points only);
///   - kFailed           the computation could not produce even a partial
///                       answer (an injected fault, a corrupt journal...).
///
/// The ladder is strict: degradation must always *fail closed*.  Nothing
/// here preempts anything — callers poll `Budget::consume()` at their
/// natural iteration boundaries (one fixpoint step, one B&B node batch, one
/// simulated event, one sweep point), which keeps the zero-budget hot paths
/// branch-free apart from one predictable test.
///
/// Clock reads are amortised: `consume()` touches the monotonic clock only
/// every `kClockStride` work units, so a budget check costs an increment
/// and a compare in the steady state.  Counters are atomics, so one Budget
/// may be shared by the thread-pool fan-out paths (exactness of the cutoff
/// is within one stride per thread, same contract as the parallel B&B's
/// node budget).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>

namespace hedra::util {

/// Nanoseconds on the monotonic clock (Deadline::Clock).  The single
/// sanctioned time source for telemetry: src/obs/ records durations with
/// this and never touches a clock type directly (enforced by the
/// `obs-clock` lint rule), so observability inherits the same
/// wall-clock-free discipline as the analysis layers.
[[nodiscard]] std::int64_t monotonic_now_ns() noexcept;

/// Typed completion status of a budgeted computation.
enum class Outcome {
  kComplete = 0,         ///< ran to the mathematical end
  kBudgetExhausted = 1,  ///< deadline / work cap hit; partial result is sound
  kFailed = 2,           ///< no usable result (fault, corruption)
};

/// A point on the monotonic clock before which work must finish.  The
/// default-constructed Deadline never expires, so APIs can take one by
/// value with no "optional" wrapper.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// Never expires.
  constexpr Deadline() noexcept = default;

  /// Expires `budget` from now (non-positive budgets are already expired).
  [[nodiscard]] static Deadline after(std::chrono::nanoseconds budget);

  /// Convenience: after() in fractional seconds.
  [[nodiscard]] static Deadline after_seconds(double seconds);

  /// The unlimited default, spelled out.
  [[nodiscard]] static constexpr Deadline never() noexcept { return {}; }

  [[nodiscard]] bool unlimited() const noexcept { return unlimited_; }

  /// True once the monotonic clock passed the deadline (reads the clock).
  [[nodiscard]] bool expired() const noexcept {
    return !unlimited_ && Clock::now() >= when_;
  }

  /// The expiry instant; requires !unlimited().
  [[nodiscard]] Clock::time_point when() const noexcept { return when_; }

 private:
  Clock::time_point when_{};
  bool unlimited_ = true;
};

/// Cooperative budget token: a Deadline plus an optional work-unit cap,
/// with a sticky exhausted flag.  Thread-compatible: counters are relaxed
/// atomics, so one Budget can be threaded through a parallel fan-out; the
/// cutoff is then exact to within kClockStride units per thread.
///
/// Not copyable (it is a live token, not a value); pass `Budget*` — the
/// convention everywhere is that a null budget means "unlimited".
class Budget {
 public:
  static constexpr std::uint64_t kUnlimitedWork =
      std::numeric_limits<std::uint64_t>::max();
  /// Work units between monotonic-clock reads.
  static constexpr std::uint64_t kClockStride = 256;

  /// Unlimited budget (never exhausts; consume() stays cheap).
  Budget() noexcept = default;

  explicit Budget(Deadline deadline,
                  std::uint64_t max_work = kUnlimitedWork) noexcept
      : deadline_(deadline), max_work_(max_work) {}

  Budget(const Budget&) = delete;
  Budget& operator=(const Budget&) = delete;

  /// Records `units` of work.  Returns true while the budget holds; returns
  /// false — permanently — once the work cap is crossed or the deadline has
  /// passed.  The clock is polled at most once per kClockStride units.
  bool consume(std::uint64_t units = 1) noexcept;

  /// Sticky: true once any consume() observed exhaustion (or
  /// force_exhaust() ran).  Does not read the clock.
  [[nodiscard]] bool exhausted() const noexcept {
    return exhausted_.load(std::memory_order_relaxed);
  }

  /// Marks the budget exhausted (e.g. an outer layer cancelling work).
  void force_exhaust() noexcept {
    exhausted_.store(true, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t used() const noexcept {
    return used_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const Deadline& deadline() const noexcept { return deadline_; }

  /// The Outcome this budget implies for a computation that finished its
  /// control flow: kBudgetExhausted if the token tripped, else kComplete.
  [[nodiscard]] Outcome outcome() const noexcept {
    return exhausted() ? Outcome::kBudgetExhausted : Outcome::kComplete;
  }

 private:
  Deadline deadline_;
  std::uint64_t max_work_ = kUnlimitedWork;
  std::atomic<std::uint64_t> used_{0};
  std::atomic<bool> exhausted_{false};
};

}  // namespace hedra::util
