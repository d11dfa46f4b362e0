#pragma once

/// \file admission.h
/// The admission-control core: a long-lived service wrapping
/// taskset::contention_rta (the paper's federated admission test) with the
/// three properties a batch analysis never needed —
///
///  1. *Bounded-latency answers.*  Every request carries a util::Deadline;
///     the analysis consumes a Budget cooperatively and, on exhaustion,
///     degrades down a strict ladder:
///
///         exact fixpoint admitted            -> ADMITTED
///         exact fixpoint rejects (complete)  -> REJECTED   (proof)
///         budget cut, seed bound > deadline  -> REJECTED   (still a proof:
///                                               the seed bound LOWER-bounds
///                                               the contended fixpoint)
///         budget cut, seed bound <= deadline -> PROVISIONAL (unproven,
///                                               NOT admitted)
///
///     The ladder can under-admit, never over-admit: ADMITTED is only ever
///     answered on a complete exact-rational proof.
///
///  2. *RCU-style snapshots.*  The admitted state is an immutable Snapshot
///     behind a shared_ptr; readers (status queries, concurrent
///     inspectors) copy that pointer under a lock held only for the copy,
///     while the single writer builds a successor outside any reader's
///     way and swaps it in after the journal commit.  (A plain mutex, not
///     std::atomic<std::shared_ptr>: the latter's load in GCC 12's
///     libstdc++ unlocks with a relaxed store, which races with the next
///     swap under the C++ memory model and fails ThreadSanitizer.)  The
///     successor's analysis is incremental (taskset::contention_rta_update):
///     an ADMIT or LEAVE re-solves only the tasks sharing a device class
///     with the task that joined or left, plus any task whose cores no
///     longer fit, and carries every other verdict over.
///
///  3. *Crash safety.*  Every state change is journalled (serve/journal.h)
///     BEFORE the snapshot swap, so a restart replays admit/leave records
///     to bit-identical admitted state: to_text() of the recovered set
///     equals to_text() of the pre-crash set.
///
/// Thread model: mutations (admit()/leave()) serialise on an internal
/// writer mutex — the journal handle and the snapshot-swap publish path are
/// machine-checked (Clang thread-safety analysis) to only ever run under
/// it; snapshot() copies one pointer under its own short lock, safe from
/// any thread and never blocked by an analysis in progress.

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "obs/trace.h"
#include "serve/journal.h"
#include "taskset/contention_rta.h"
#include "taskset/taskset.h"
#include "util/deadline.h"
#include "util/thread_annotations.h"

namespace hedra::serve {

/// The service's answer to one request.
enum class Decision {
  kAdmitted,     ///< proven schedulable; state updated
  kRejected,     ///< proven unschedulable (exact or seed-bound proof)
  kProvisional,  ///< budget exhausted before a proof; NOT admitted
  kOk,           ///< non-admission operation succeeded (leave, status)
  kError,        ///< malformed or inapplicable request; state unchanged
};

[[nodiscard]] const char* to_string(Decision decision) noexcept;

/// Immutable admitted state.  Replaced wholesale on every mutation, but
/// cheaply: successive snapshots share every task's graph (model::DagTask
/// handles) and every unchanged seed list (taskset::AnalysisMemo), so a
/// mutation copies a handle per task, not a graph per task.
struct Snapshot {
  taskset::TaskSet set;
  /// contention_rta of `set` (complete, unlimited budget); meaningful only
  /// when the set is non-empty.
  taskset::ContentionAnalysis analysis;
  /// What the next ADMIT or LEAVE reuses of `analysis`: seeds at the core
  /// counts evaluated so far and per-device volumes (empty with the set).
  taskset::AnalysisMemo memo;
  std::uint64_t version = 0;  ///< monotone, bumped per mutation
};

struct AdmissionConfig {
  model::Platform platform;
  /// Journal file; empty disables persistence (tests, ephemeral runs).
  std::string journal_path;
  /// Iteration/seed-evaluation work cap per request on top of the caller's
  /// deadline (0 = unlimited): a belt against clock jumps.
  std::uint64_t max_work_per_request = 0;
};

struct AdmissionReply {
  Decision decision = Decision::kError;
  std::string task;    ///< the request's task name (empty for status ops)
  std::string detail;  ///< human-readable reason / summary
  util::Outcome outcome = util::Outcome::kComplete;
  int cores = 0;       ///< admitted task's dedicated host cores
  Frac response;       ///< admitted task's proven response bound
};

class AdmissionService {
 public:
  /// Opens (and replays) the journal, reconstructing the admitted state.
  /// Throws hedra::Error on journal corruption or a platform mismatch
  /// between the journal and `config` — refusing to serve is safer than
  /// re-interpreting admitted state on the wrong platform.
  explicit AdmissionService(AdmissionConfig config);

  /// The current admitted state.  Blocks at most for another thread's
  /// pointer copy or swap, never for an analysis.
  [[nodiscard]] std::shared_ptr<const Snapshot> snapshot() const
      HEDRA_EXCLUDES(snapshot_mutex_) {
    util::MutexLock lock(snapshot_mutex_);
    return snapshot_;
  }

  /// Runs the admission test for `task` joining the current set under
  /// `deadline`.  See the degradation ladder in the file comment.  When
  /// `trace` is non-null the phases are recorded as spans (snapshot-build,
  /// rta-fixpoint, journal-append+fsync, publish).
  [[nodiscard]] AdmissionReply admit(const model::DagTask& task,
                                     util::Deadline deadline = {},
                                     obs::RequestTrace* trace = nullptr)
      HEDRA_EXCLUDES(writer_mutex_);

  /// Removes a previously admitted task.
  [[nodiscard]] AdmissionReply leave(const std::string& name)
      HEDRA_EXCLUDES(writer_mutex_);

  /// How often each rung of the degradation ladder answered (relaxed
  /// tallies; see the ladder in the file comment).
  struct LadderTallies {
    std::uint64_t admitted = 0;        ///< complete exact proof, admitted
    std::uint64_t rejected_exact = 0;  ///< complete exact proof, rejected
    std::uint64_t rejected_seed = 0;   ///< budget cut, seed-bound proof
    std::uint64_t provisional = 0;     ///< budget cut, no proof
    std::uint64_t errors = 0;          ///< invalid requests / faults
  };
  [[nodiscard]] LadderTallies ladder_tallies() const noexcept;

  /// Journal bytes durably committed so far (0 without a journal).
  [[nodiscard]] std::uint64_t journal_bytes() const noexcept {
    return journal_bytes_.load(std::memory_order_relaxed);
  }

  /// One-line state summary (the STATUS protocol response body): admitted
  /// state, then journal bytes and the degradation-ladder tallies.
  [[nodiscard]] std::string status_line() const;

  [[nodiscard]] const model::Platform& platform() const noexcept {
    return config_.platform;
  }

 private:
  /// The RCU publish: readers holding the previous shared_ptr keep a valid
  /// snapshot; new readers see `next`.  Requiring the writer mutex here
  /// makes "journal before publish, one writer at a time" a compile-time
  /// fact instead of a comment.
  void publish(std::shared_ptr<const Snapshot> next)
      HEDRA_REQUIRES(writer_mutex_) HEDRA_EXCLUDES(snapshot_mutex_) {
    {
      util::MutexLock lock(snapshot_mutex_);
      snapshot_.swap(next);
    }
    // `next` now holds the previous state: if no reader still holds it, it
    // is freed here, outside the readers' lock.
  }

  AdmissionConfig config_;
  /// Serialises mutations; uncontended in the single-worker server.
  util::Mutex writer_mutex_;
  std::optional<Journal> journal_ HEDRA_GUARDED_BY(writer_mutex_);
  /// Guards only the pointer below: taken for a copy or a swap, never
  /// across an analysis or a journal write.
  mutable util::Mutex snapshot_mutex_;
  std::shared_ptr<const Snapshot> snapshot_ HEDRA_GUARDED_BY(snapshot_mutex_);
  /// Mirror of journal_->bytes_committed(), readable without the writer
  /// mutex so status_line() stays lock-free.
  std::atomic<std::uint64_t> journal_bytes_{0};
  std::atomic<std::uint64_t> tally_admitted_{0};
  std::atomic<std::uint64_t> tally_rejected_exact_{0};
  std::atomic<std::uint64_t> tally_rejected_seed_{0};
  std::atomic<std::uint64_t> tally_provisional_{0};
  std::atomic<std::uint64_t> tally_errors_{0};
};

/// One task serialised as its `task ... endtask` block — the journal's
/// admit-record body and the ADMIT request body, byte-identical to the
/// corresponding lines of TaskSet::to_text().
[[nodiscard]] std::string task_to_text(const model::DagTask& task);

}  // namespace hedra::serve
