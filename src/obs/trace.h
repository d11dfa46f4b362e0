#pragma once

/// \file trace.h
/// Per-request tracing for the serve layer.
///
/// Every admission request can carry a RequestTrace: a flat span tree
/// (parse -> queue-wait -> snapshot-build -> rta-fixpoint ->
/// journal-append+fsync -> publish) stamped with util::monotonic_now_ns().
/// A trace is owned by exactly one thread at a time — the reader thread
/// builds the early spans, queue hand-offs (mutex-synchronised) pass it to
/// the worker and then the committer, which finishes the tree and submits
/// it to a Tracer ring buffer.  RequestTrace itself therefore takes NO locks;
/// only Tracer::submit()/snapshot() touch the annotated util::Mutex, off
/// the analysis hot paths.
///
/// Export is chrome://tracing JSON ("traceEvents" with complete "X"
/// events): one row (tid) per request, microsecond timestamps rebased to
/// the earliest span so the viewer opens at t=0.  The span-sum invariant —
/// child durations nest inside and sum to at most the root request span —
/// is checked by scripts/validate_metrics.py on every CI smoke run.
///
/// Same determinism rules as the metrics registry: no RNG, no wall clock,
/// no clock type outside util::monotonic_now_ns() (lint rule `obs-clock`).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/thread_annotations.h"

namespace hedra::obs {

/// One closed-or-open interval in a request's timeline.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;  ///< 0 while still open
  int parent = -1;          ///< index into RequestTrace::spans(); -1 = root
};

/// The span tree of one request.  Thread-compatible, lock-free: ownership
/// moves between threads only through already-synchronised hand-offs (the
/// bounded queue), never concurrently.
class RequestTrace {
 public:
  explicit RequestTrace(std::uint64_t request_id) : id_(request_id) {}

  /// Opens a span (start stamped now); its parent is the innermost span
  /// still open.  Returns the span's index for the matching end().
  int begin(const std::string& name);

  /// begin() with an explicit start stamp — for work that began before the
  /// trace object existed (the reader stamps parse-start, then allocates).
  int begin_at(const std::string& name, std::int64_t start_ns);

  /// Closes the span at `index` (end stamped now).  Spans close innermost
  /// first; out-of-order ends close every span opened after `index` too
  /// (crash-safe: an exception path can end the root and lose nothing).
  void end(int index);

  /// end() with an explicit end stamp.
  void end_at(int index, std::int64_t end_ns);

  /// Closes every span still open (end stamped now).
  void end_all();

  /// Attaches a key/value annotation, exported as args of the root event
  /// (e.g. verb, decision, task name).
  void note(const std::string& key, const std::string& value) {
    notes_[key] = value;
  }

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const std::map<std::string, std::string>& notes()
      const noexcept {
    return notes_;
  }

 private:
  std::uint64_t id_;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< indices of open spans, innermost last
  std::map<std::string, std::string> notes_;
};

/// Bounded ring of completed request traces.  submit() overwrites the
/// oldest entry once `capacity` traces are held, so a long-running daemon
/// keeps the most recent window at fixed memory.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity = kDefaultCapacity);

  static constexpr std::size_t kDefaultCapacity = 1024;

  /// Takes ownership of a finished trace (open spans are closed first).
  void submit(std::unique_ptr<RequestTrace> trace);

  /// Completed traces, oldest first.
  [[nodiscard]] std::vector<std::shared_ptr<const RequestTrace>> snapshot()
      const;

  /// Traces ever submitted / evicted by the ring.
  [[nodiscard]] std::uint64_t submitted() const;
  [[nodiscard]] std::uint64_t dropped() const;

  /// chrome://tracing JSON of the current ring contents (see file header).
  [[nodiscard]] std::string chrome_trace_json() const;

 private:
  const std::size_t capacity_;
  mutable util::Mutex mutex_;
  std::vector<std::shared_ptr<const RequestTrace>> ring_
      HEDRA_GUARDED_BY(mutex_);
  std::size_t next_ HEDRA_GUARDED_BY(mutex_) = 0;
  std::uint64_t submitted_ HEDRA_GUARDED_BY(mutex_) = 0;
  std::uint64_t dropped_ HEDRA_GUARDED_BY(mutex_) = 0;
};

}  // namespace hedra::obs
