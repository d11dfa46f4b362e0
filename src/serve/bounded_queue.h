#pragma once

/// \file bounded_queue.h
/// Bounded FIFO hand-off between the server's threads.
///
/// The admission loop must not buffer unbounded work: a client that writes
/// requests faster than the analysis drains them would otherwise grow the
/// process until the OOM killer answers for us.  The queue therefore has a
/// hard capacity and `try_push` REFUSES instead of blocking — the reader
/// answers an explicit SHED response, which a load balancer can act on,
/// rather than an invisible latency cliff.
///
/// `pop` blocks until an item or close(); close() drains gracefully (pops
/// succeed until the queue is empty, then return nullopt).
///
/// The same queue carries decided replies from the server's worker to its
/// committer, which needs two more operations: a `push` that waits for room
/// instead of refusing, and `take_all`, which hands the consumer the whole
/// backlog as one batch.  Items taken that way keep occupying capacity
/// until the consumer calls `release` — so "at most `capacity` items
/// between producer and consumer" holds for items being processed too.

#include <deque>
#include <iterator>
#include <optional>
#include <utility>
#include <vector>

#include "util/fault.h"
#include "util/thread_annotations.h"

namespace hedra::serve {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}

  /// False when the queue is full or closed (the caller sheds the item).
  [[nodiscard]] bool try_push(T item) HEDRA_EXCLUDES(mutex_) {
    HEDRA_FAULT("serve.queue.push");
    {
      util::MutexLock lock(mutex_);
      if (closed_ || full()) return false;
      items_.push_back(std::move(item));
    }
    ready_.notify_one();
    return true;
  }

  /// Waits for room, then enqueues; false (item dropped) once closed.  For
  /// a queue drained by take_all(): room is freed by release().
  [[nodiscard]] bool push(T item) HEDRA_EXCLUDES(mutex_) {
    {
      util::MutexLock lock(mutex_);
      while (!closed_ && full()) room_.wait(lock);
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    ready_.notify_one();
    return true;
  }

  /// Blocks for at least one item, then takes every queued item, oldest
  /// first; empty once closed AND drained.  The items keep their capacity
  /// until release().
  [[nodiscard]] std::vector<T> take_all() HEDRA_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    while (!closed_ && items_.empty()) ready_.wait(lock);
    std::vector<T> batch(std::make_move_iterator(items_.begin()),
                         std::make_move_iterator(items_.end()));
    items_.clear();
    taken_ += batch.size();
    return batch;
  }

  /// Returns the capacity of `count` items taken by take_all().
  void release(std::size_t count) HEDRA_EXCLUDES(mutex_) {
    {
      util::MutexLock lock(mutex_);
      taken_ -= count;
    }
    room_.notify_all();
  }

  /// Blocks for the next item; nullopt once closed AND drained.
  [[nodiscard]] std::optional<T> pop() HEDRA_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    while (!closed_ && items_.empty()) ready_.wait(lock);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Rejects future pushes; blocked pops drain the backlog then end.
  void close() HEDRA_EXCLUDES(mutex_) {
    {
      util::MutexLock lock(mutex_);
      closed_ = true;
    }
    ready_.notify_all();
    room_.notify_all();
  }

  [[nodiscard]] std::size_t size() const HEDRA_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    return items_.size();
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  [[nodiscard]] bool full() const HEDRA_REQUIRES(mutex_) {
    return items_.size() + taken_ >= capacity_;
  }

  const std::size_t capacity_;
  mutable util::Mutex mutex_;
  util::CondVar ready_;  ///< an item arrived, or closed
  util::CondVar room_;   ///< capacity freed, or closed
  std::deque<T> items_ HEDRA_GUARDED_BY(mutex_);
  std::size_t taken_ HEDRA_GUARDED_BY(mutex_) = 0;  ///< taken, not released
  bool closed_ HEDRA_GUARDED_BY(mutex_) = false;
};

}  // namespace hedra::serve
