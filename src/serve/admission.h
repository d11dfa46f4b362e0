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
///     inspectors) copy that pointer under a lock held only for the copy.
///     (A plain mutex, not std::atomic<std::shared_ptr>: the latter's load
///     in GCC 12's libstdc++ unlocks with a relaxed store, which races with
///     the next swap under the C++ memory model and fails
///     ThreadSanitizer.)  Each decision's successor state is analysed
///     incrementally (taskset::contention_rta_update): an ADMIT or LEAVE
///     re-solves only the tasks sharing a device class with the task that
///     joined or left, plus any task whose cores no longer fit, and
///     carries every other verdict over.
///
///  3. *Crash safety with group commit.*  A mutation is two steps.
///     Deciding (stage_admit()/stage_leave()) analyses the request against
///     the private *head* state — the newest decided state, which may run
///     ahead of what is durable — and writes its journal record
///     (serve/journal.h) without fsync.  Committing (commit()) fsyncs once
///     for every record a batch of decisions wrote, then publishes each
///     decided state and counts each reply, in decision order.  So no
///     snapshot and no reply ever shows a state whose record is not
///     durable, and a restart replays admit/leave records to bit-identical
///     admitted state: to_text() of the recovered set equals to_text() of
///     the pre-crash set.  If a write or an fsync fails, the journal rolls
///     back to its last durable byte; every decision that saw a discarded
///     record commits as ERROR, and the next decision starts again from
///     the published state.  admit()/leave() are stage plus commit on the
///     calling thread, so they are durable when they return.
///
/// Thread model: deciding serialises on the writer mutex, which guards the
/// head state; committing serialises on the commit mutex, which orders
/// publishes against head resets.  The admission server decides on its
/// worker thread and commits on a committer thread, so the worker never
/// waits for an fsync; direct admit()/leave() calls do both in turn.
/// snapshot() copies one pointer under its own short lock, safe from any
/// thread and never blocked by an analysis or an fsync.  While run_server
/// drives a service, mutate it only through the server: commits must
/// follow decision order.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
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
  /// Bumped per mutation; a journal rollback returns to the durable one.
  std::uint64_t version = 0;
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

/// A decided request whose reply waits for commit(): it may not be sent,
/// and `next` not published, before every record the decision saw is
/// durable.
struct StagedReply {
  AdmissionReply reply;
  /// The head state after the decision; null when it changed nothing.
  std::shared_ptr<const Snapshot> next;
  /// The journal just after the newest record the decision saw, its own
  /// included (era 0, 0 bytes without a journal).
  JournalPosition seen;
  /// The ladder rung the reply counts toward once committed.
  enum class Rung : std::uint8_t {
    kNone,  ///< not an ADMIT (LEAVE, status and protocol replies)
    kAdmitted,
    kRejectedExact,
    kRejectedSeed,
    kProvisional,
    kError,
  };
  Rung rung = Rung::kNone;
  /// The request's trace and its open journal span, which commit() closes
  /// once the fsync covering the record returns (-1: no record written).
  obs::RequestTrace* trace = nullptr;
  int journal_span = -1;
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
  /// `deadline` and commits the decision: durable when it returns.  See
  /// the degradation ladder in the file comment.  When `trace` is
  /// non-null the phases are recorded as spans (snapshot-build,
  /// rta-fixpoint, journal-append+fsync, publish).  Throws what
  /// stage_admit() throws.
  [[nodiscard]] AdmissionReply admit(const model::DagTask& task,
                                     util::Deadline deadline = {},
                                     obs::RequestTrace* trace = nullptr)
      HEDRA_EXCLUDES(writer_mutex_, commit_mutex_);

  /// Removes a previously admitted task, durably.
  [[nodiscard]] AdmissionReply leave(const std::string& name)
      HEDRA_EXCLUDES(writer_mutex_, commit_mutex_);

  /// Decides an ADMIT against the head state and writes its journal
  /// record without fsync; the reply is final only after commit().
  /// Throws on an injected fault or a failed journal write (the journal
  /// then rolls back, and nothing is decided).
  [[nodiscard]] StagedReply stage_admit(const model::DagTask& task,
                                        util::Deadline deadline = {},
                                        obs::RequestTrace* trace = nullptr)
      HEDRA_EXCLUDES(writer_mutex_, commit_mutex_);

  /// Decides a LEAVE; see stage_admit().
  [[nodiscard]] StagedReply stage_leave(const std::string& name,
                                        obs::RequestTrace* trace = nullptr)
      HEDRA_EXCLUDES(writer_mutex_, commit_mutex_);

  /// Commits decided requests, which must come in decision order and each
  /// exactly once: one fsync covers every record they saw, then, per
  /// request in order, the reply is final — its state published and its
  /// rung counted, or, when a rollback discarded a record it saw, turned
  /// into ERROR and not applied — and `release(i)` runs for batch[i]
  /// before the next request is committed.  Never throws on a journal
  /// failure.
  void commit(std::span<StagedReply> batch,
              const std::function<void(std::size_t)>& release = {})
      HEDRA_EXCLUDES(commit_mutex_);

  /// How often each rung of the degradation ladder answered (relaxed
  /// tallies of committed replies; see the ladder in the file comment).
  struct LadderTallies {
    std::uint64_t admitted = 0;        ///< complete exact proof, admitted
    std::uint64_t rejected_exact = 0;  ///< complete exact proof, rejected
    std::uint64_t rejected_seed = 0;   ///< budget cut, seed-bound proof
    std::uint64_t provisional = 0;     ///< budget cut, no proof
    std::uint64_t errors = 0;          ///< invalid requests / faults
  };
  [[nodiscard]] LadderTallies ladder_tallies() const noexcept;

  /// Journal bytes durably committed as of the last commit (0 without a
  /// journal).
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
  StagedReply stage_admit_locked(const model::DagTask& task,
                                 util::Deadline deadline,
                                 obs::RequestTrace* trace)
      HEDRA_REQUIRES(writer_mutex_) HEDRA_EXCLUDES(commit_mutex_);
  StagedReply stage_leave_locked(const std::string& name,
                                 obs::RequestTrace* trace)
      HEDRA_REQUIRES(writer_mutex_) HEDRA_EXCLUDES(commit_mutex_);

  /// Writes `payload` as the staged decision's journal record and makes
  /// `next` the head state.
  void advance_head(StagedReply& staged, std::shared_ptr<const Snapshot> next,
                    const std::string& payload)
      HEDRA_REQUIRES(writer_mutex_);

  /// After a journal rollback the head holds decisions whose records are
  /// gone: restart it from the published state, which is exactly the
  /// durable one whenever no commit is running.
  void catch_up_head() HEDRA_REQUIRES(writer_mutex_)
      HEDRA_EXCLUDES(commit_mutex_);

  /// Counts a committed reply on its ladder rung.
  void tally(StagedReply::Rung rung);

  /// The RCU publish: readers holding the previous shared_ptr keep a valid
  /// snapshot; new readers see `next`.  Requiring the commit mutex makes
  /// "durable before published" a compile-time fact instead of a comment.
  void publish(std::shared_ptr<const Snapshot> next)
      HEDRA_REQUIRES(commit_mutex_) HEDRA_EXCLUDES(snapshot_mutex_) {
    {
      util::MutexLock lock(snapshot_mutex_);
      snapshot_.swap(next);
    }
    // `next` now holds the previous state: if no reader still holds it, it
    // is freed here, outside the readers' lock.
  }

  AdmissionConfig config_;
  /// Serialises decisions; uncontended in the single-worker server.
  util::Mutex writer_mutex_;
  /// The newest decided state, where the journal stood after its last
  /// record, and the journal era it was decided in.
  std::shared_ptr<const Snapshot> head_ HEDRA_GUARDED_BY(writer_mutex_);
  JournalPosition head_seen_ HEDRA_GUARDED_BY(writer_mutex_);
  /// Serialises commits and head resets: held from a batch's fsync to its
  /// last publish, so whoever holds it sees the published state equal to
  /// the journal's durable one.  Taken after writer_mutex_ when both are.
  util::Mutex commit_mutex_;
  /// Internally synchronised; engaged by the constructor only.
  std::optional<Journal> journal_;
  /// Guards only the pointer below: taken for a copy or a swap, never
  /// across an analysis or a journal write.
  mutable util::Mutex snapshot_mutex_;
  std::shared_ptr<const Snapshot> snapshot_ HEDRA_GUARDED_BY(snapshot_mutex_);
  /// Mirror of journal_->bytes_committed() as of the last commit, readable
  /// without a lock so status_line() stays lock-free.
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
