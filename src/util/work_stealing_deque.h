#pragma once

/// \file work_stealing_deque.h
/// Per-worker work-stealing deque for the parallel branch-and-bound search.
///
/// The owner treats its deque as a stack (push_bottom / pop_bottom), so a
/// worker explores its own subtrees in depth-first order; thieves take from
/// the opposite end (steal_top), which holds the *oldest* — and therefore
/// shallowest and typically largest — subtrees.  That end-asymmetry is the
/// whole point of the structure: it keeps owners cache-hot on recent work
/// while handing thieves the coarsest-grained tasks, minimising steal
/// traffic (the work-first principle of Blumofe & Leiserson).
///
/// This is the lock-guarded fallback implementation: every operation takes
/// one uncontended mutex.  The interface is Chase–Lev-shaped on purpose so a
/// lock-free array-based implementation can replace the body without
/// touching any caller; in the traced `exact_proof` benchmark a parallel
/// solve pushes about 33 donated subproblems (and steals about as many)
/// against some 150k search nodes, so the mutex is nowhere near the
/// critical path today.

#include <cstddef>
#include <deque>
#include <utility>

#include "util/thread_annotations.h"

namespace hedra {

template <typename T>
class WorkStealingDeque {
 public:
  WorkStealingDeque() = default;
  WorkStealingDeque(const WorkStealingDeque&) = delete;
  WorkStealingDeque& operator=(const WorkStealingDeque&) = delete;

  /// Owner end: pushes a task onto the bottom (most recent) end.
  void push_bottom(T item) HEDRA_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    items_.push_back(std::move(item));
  }

  /// Owner end: pops the most recently pushed task (LIFO).  Returns false
  /// when the deque is empty.
  [[nodiscard]] bool pop_bottom(T& out) HEDRA_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    if (items_.empty()) return false;
    out = std::move(items_.back());
    items_.pop_back();
    return true;
  }

  /// Thief end: steals the oldest task (FIFO).  Returns false when empty.
  [[nodiscard]] bool steal_top(T& out) HEDRA_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    return true;
  }

  [[nodiscard]] std::size_t size() const HEDRA_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    return items_.size();
  }

  [[nodiscard]] bool empty() const HEDRA_EXCLUDES(mutex_) {
    return size() == 0;
  }

 private:
  mutable util::Mutex mutex_;
  std::deque<T> items_ HEDRA_GUARDED_BY(mutex_);
};

}  // namespace hedra
