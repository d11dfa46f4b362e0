#include "serve/admission.h"

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

#include "analysis/platform_rta.h"
#include "graph/dag_io.h"
#include "obs/metrics.h"
#include "util/fault.h"
#include "util/strings.h"

namespace hedra::serve {

namespace {

constexpr std::string_view kAdmitRecord = "admit\n";
constexpr std::string_view kLeavePrefix = "leave ";
constexpr std::string_view kPlatformPrefix = "platform ";

/// Parses one journalled task block by round-tripping it through the
/// hardened TaskSet parser (prepending the platform line), so journal
/// replay and network input share one validation path.
model::DagTask parse_task_block(const std::string& block,
                                const model::Platform& platform) {
  const taskset::TaskSet one =
      taskset::TaskSet::from_text("platform " + platform.spec() + "\n" + block);
  HEDRA_REQUIRE(one.size() == 1,
                "journal admit record holds " + std::to_string(one.size()) +
                    " tasks, expected exactly 1");
  return one[0];
}

}  // namespace

const char* to_string(Decision decision) noexcept {
  switch (decision) {
    case Decision::kAdmitted:
      return "ADMITTED";
    case Decision::kRejected:
      return "REJECTED";
    case Decision::kProvisional:
      return "PROVISIONAL";
    case Decision::kOk:
      return "OK";
    case Decision::kError:
      return "ERROR";
  }
  return "ERROR";
}

std::string task_to_text(const model::DagTask& task) {
  std::ostringstream os;
  os << "task " << task.name() << " period " << task.period() << " deadline "
     << task.deadline() << "\n"
     << graph::write_dag_text(task.dag()) << "endtask\n";
  return os.str();
}

AdmissionService::AdmissionService(AdmissionConfig config)
    : config_(std::move(config)) {
  config_.platform.validate();

  // hedra-lint: allow(fault-seam, startup path; no acknowledged state yet)
  auto snapshot = std::make_shared<Snapshot>();
  snapshot->set = taskset::TaskSet(config_.platform);

  if (!config_.journal_path.empty()) {
    const JournalReplay replay = Journal::replay(config_.journal_path);
    journal_.emplace(config_.journal_path);

    std::vector<model::DagTask> tasks;
    bool have_platform = false;
    for (const std::string& record : replay.records) {
      if (starts_with(record, kPlatformPrefix)) {
        const std::string spec(trim(record.substr(kPlatformPrefix.size())));
        HEDRA_REQUIRE(
            spec == config_.platform.spec(),
            "journal platform '" + spec + "' does not match configured '" +
                config_.platform.spec() + "' — refusing to reinterpret "
                "admitted state on a different platform");
        have_platform = true;
      } else if (starts_with(record, kAdmitRecord)) {
        tasks.push_back(parse_task_block(record.substr(kAdmitRecord.size()),
                                         config_.platform));
      } else if (starts_with(record, kLeavePrefix)) {
        const std::string name(trim(record.substr(kLeavePrefix.size())));
        const auto it =
            std::find_if(tasks.begin(), tasks.end(),
                         [&](const model::DagTask& t) {
                           return t.name() == name;
                         });
        HEDRA_REQUIRE(it != tasks.end(),
                      "journal leave record for unknown task '" + name + "'");
        tasks.erase(it);
      } else {
        throw Error("unknown journal record type: '" +
                    record.substr(0, record.find('\n')) + "'");
      }
    }
    HEDRA_REQUIRE(have_platform || replay.records.empty(),
                  "journal has records but no platform header");
    if (replay.records.empty()) {
      journal_->append(std::string(kPlatformPrefix) + config_.platform.spec());
    }

    snapshot->set = taskset::TaskSet(config_.platform, std::move(tasks));
    snapshot->set.validate();
    if (!snapshot->set.empty()) {
      snapshot->analysis = taskset::contention_rta_update(
          snapshot->set, nullptr, &snapshot->memo);
    }
    snapshot->version = replay.records.size();
    journal_bytes_.store(journal_->bytes_committed(),
                         std::memory_order_relaxed);
  }

  util::MutexLock writer(writer_mutex_);
  head_ = snapshot;
  if (journal_.has_value()) head_seen_ = journal_->durable();
  util::MutexLock lock(snapshot_mutex_);
  snapshot_ = std::move(snapshot);
}

AdmissionReply AdmissionService::admit(const model::DagTask& task,
                                       util::Deadline deadline,
                                       obs::RequestTrace* trace) {
  util::MutexLock writer(writer_mutex_);
  StagedReply staged = stage_admit_locked(task, deadline, trace);
  commit({&staged, 1});
  return std::move(staged.reply);
}

AdmissionReply AdmissionService::leave(const std::string& name) {
  util::MutexLock writer(writer_mutex_);
  StagedReply staged = stage_leave_locked(name, nullptr);
  commit({&staged, 1});
  return std::move(staged.reply);
}

StagedReply AdmissionService::stage_admit(const model::DagTask& task,
                                          util::Deadline deadline,
                                          obs::RequestTrace* trace) {
  util::MutexLock writer(writer_mutex_);
  return stage_admit_locked(task, deadline, trace);
}

StagedReply AdmissionService::stage_leave(const std::string& name,
                                          obs::RequestTrace* trace) {
  util::MutexLock writer(writer_mutex_);
  return stage_leave_locked(name, trace);
}

void AdmissionService::catch_up_head() {
  if (!journal_.has_value() || journal_->era() == head_seen_.era) return;
  util::MutexLock lock(commit_mutex_);
  head_ = snapshot();
  head_seen_ = journal_->durable();
}

void AdmissionService::advance_head(StagedReply& staged,
                                    std::shared_ptr<const Snapshot> next,
                                    const std::string& payload) {
  // Journal BEFORE anyone can see the state: the record is written here,
  // and commit() publishes `next` and releases the reply only once an
  // fsync covers it, so a crash at any point replays to an acknowledged
  // state, never to one the client was not told about.
  if (journal_.has_value()) {
    staged.journal_span = staged.trace != nullptr
                              ? staged.trace->begin("journal-append+fsync")
                              : -1;
    staged.seen = journal_->write(payload, head_seen_.era);
    head_seen_ = staged.seen;
    HEDRA_METRIC("serve.journal.appends");
  }
  head_ = next;
  staged.next = std::move(next);
}

StagedReply AdmissionService::stage_admit_locked(const model::DagTask& task,
                                                 util::Deadline deadline,
                                                 obs::RequestTrace* trace) {
  catch_up_head();
  StagedReply staged;
  staged.seen = head_seen_;
  staged.trace = trace;
  AdmissionReply& reply = staged.reply;
  reply.task = task.name();

  const std::shared_ptr<const Snapshot> current = head_;
  for (const model::DagTask& existing : current->set) {
    if (existing.name() == task.name()) {
      reply.decision = Decision::kError;
      reply.detail = "task '" + task.name() + "' is already admitted";
      staged.rung = StagedReply::Rung::kError;
      return staged;
    }
  }

  const int build_span =
      trace != nullptr ? trace->begin("snapshot-build") : -1;
  // Only the newcomer is validated: every admitted task passed the same
  // checks when it joined, and the name was checked for uniqueness above.
  try {
    current->set.validate_task(task);
  } catch (const Error& e) {
    reply.decision = Decision::kError;
    reply.detail = e.what();
    staged.rung = StagedReply::Rung::kError;
    return staged;
  }
  taskset::TaskSet candidate = current->set.with_appended(task);
  if (trace != nullptr) trace->end(build_span);

  const int rta_span = trace != nullptr ? trace->begin("rta-fixpoint") : -1;
  util::Budget budget(deadline, config_.max_work_per_request == 0
                                    ? util::Budget::kUnlimitedWork
                                    : config_.max_work_per_request);
  const taskset::PriorAnalysis prior{current->analysis, current->memo};
  taskset::AnalysisMemo memo;
  taskset::ContentionAnalysis analysis =
      taskset::contention_rta_update(candidate, &prior, &memo, &budget);
  if (trace != nullptr) trace->end(rta_span);

  if (analysis.schedulable) {
    // contention_rta never reports schedulable under a truncated analysis
    // (fail closed), so this branch is a complete exact-rational proof.
    const taskset::TaskAdmission& admitted = analysis.tasks.back();
    reply.decision = Decision::kAdmitted;
    reply.outcome = util::Outcome::kComplete;
    reply.cores = admitted.cores;
    reply.response = admitted.response;
    reply.detail = "proven by exact fixpoint";

    auto next = std::make_shared<Snapshot>();
    // The allocation fault seam: an injected failure here aborts the admit
    // before anything is journalled or decided.
    HEDRA_FAULT("serve.snapshot.alloc");
    next->set = std::move(candidate);
    next->analysis = std::move(analysis);
    next->memo = std::move(memo);
    next->version = current->version + 1;
    advance_head(staged, std::move(next),
                 std::string(kAdmitRecord) + task_to_text(task));
    staged.rung = StagedReply::Rung::kAdmitted;
    return staged;
  }

  if (analysis.outcome == util::Outcome::kBudgetExhausted) {
    // Degradation ladder, rung 2: the fixpoint ran out of budget, so fall
    // back to the SEED bound — the task's isolated platform bound at every
    // host core, which lower-bounds the contended fixpoint at any
    // allocation.  seed > D is therefore still a proof of infeasibility;
    // anything else stays unproven and is NOT admitted.
    const Frac seed = analysis::rta_platform(task.dag(), config_.platform);
    if (seed > Frac(task.deadline())) {
      reply.decision = Decision::kRejected;
      reply.outcome = util::Outcome::kComplete;
      reply.detail = "seed bound " + seed.to_string() +
                     " exceeds deadline " + std::to_string(task.deadline()) +
                     " on all " + std::to_string(config_.platform.cores) +
                     " cores (proof survives the budget cut)";
      staged.rung = StagedReply::Rung::kRejectedSeed;
      return staged;
    }
    reply.decision = Decision::kProvisional;
    reply.outcome = util::Outcome::kBudgetExhausted;
    reply.detail = "analysis budget exhausted before a proof; not admitted";
    staged.rung = StagedReply::Rung::kProvisional;
    return staged;
  }

  reply.decision = Decision::kRejected;
  reply.outcome = util::Outcome::kComplete;
  for (const taskset::TaskAdmission& t : analysis.tasks) {
    if (!t.schedulable) {
      reply.detail = "task '" + t.name + "' misses its deadline (R = " +
                     t.response.to_string() + ")";
      break;
    }
  }
  staged.rung = StagedReply::Rung::kRejectedExact;
  return staged;
}

StagedReply AdmissionService::stage_leave_locked(const std::string& name,
                                                 obs::RequestTrace* trace) {
  catch_up_head();
  StagedReply staged;
  staged.seen = head_seen_;
  staged.trace = trace;
  staged.reply.task = name;

  const std::shared_ptr<const Snapshot> current = head_;
  const auto it = std::find_if(
      current->set.begin(), current->set.end(),
      [&](const model::DagTask& task) { return task.name() == name; });
  if (it == current->set.end()) {
    staged.reply.decision = Decision::kError;
    staged.reply.detail = "no admitted task named '" + name + "'";
    return staged;
  }
  const auto removed =
      static_cast<std::size_t>(it - current->set.begin());

  auto next = std::make_shared<Snapshot>();
  HEDRA_FAULT("serve.snapshot.alloc");
  next->set = current->set.without(removed);
  if (!next->set.empty()) {
    // A departure only lowers interference and frees cores, so the
    // remaining set stays schedulable; the unlimited update re-solves just
    // the departed task's device sharers and the tasks behind it whose
    // verdicts cannot be carried over.
    const taskset::PriorAnalysis prior{current->analysis, current->memo,
                                       removed};
    next->analysis =
        taskset::contention_rta_update(next->set, &prior, &next->memo);
  }
  next->version = current->version + 1;
  advance_head(staged, std::move(next), std::string(kLeavePrefix) + name);
  staged.reply.decision = Decision::kOk;
  staged.reply.detail = "task '" + name + "' left";
  return staged;
}

void AdmissionService::commit(std::span<StagedReply> batch,
                              const std::function<void(std::size_t)>& release) {
  util::MutexLock lock(commit_mutex_);
  // Commits follow decision order, so a position at or below the durable
  // one is durable for good, and one from an older era that is not was
  // discarded by a rollback (no later record has been synced yet).  Check
  // that before the fsync below moves the durable position on.
  std::vector<bool> lost(batch.size(), false);
  if (journal_.has_value()) {
    const JournalPosition durable = journal_->durable();
    JournalPosition upto = durable;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const JournalPosition& seen = batch[i].seen;
      if (seen.bytes <= durable.bytes) continue;
      if (seen.era != durable.era) {
        lost[i] = true;
      } else {
        upto.bytes = std::max(upto.bytes, seen.bytes);
      }
    }
    if (upto.bytes > durable.bytes) {
      // One fsync for every record the batch wrote.
      try {
        journal_->sync(upto);
        HEDRA_METRIC("serve.journal.syncs");
      } catch (const std::exception&) {
        for (std::size_t i = 0; i < batch.size(); ++i) {
          if (batch[i].seen.bytes > durable.bytes) lost[i] = true;
        }
      }
      journal_bytes_.store(journal_->bytes_committed(),
                           std::memory_order_relaxed);
    }
  }

  for (std::size_t i = 0; i < batch.size(); ++i) {
    StagedReply& staged = batch[i];
    obs::RequestTrace* trace = staged.trace;
    if (trace != nullptr && staged.journal_span >= 0) {
      trace->end(staged.journal_span);
    }
    if (lost[i]) {
      // The decision saw a record the rollback discarded: it is not
      // applied, whatever it decided.
      AdmissionReply error;
      error.task = std::move(staged.reply.task);
      error.detail = "journal rollback: " + journal_->last_error();
      staged.reply = std::move(error);
      staged.next.reset();
      if (staged.rung != StagedReply::Rung::kNone) {
        staged.rung = StagedReply::Rung::kError;
      }
    }
    if (staged.next != nullptr) {
      const int publish_span =
          trace != nullptr ? trace->begin("publish") : -1;
      publish(staged.next);
      if (trace != nullptr) trace->end(publish_span);
    }
    tally(staged.rung);
    if (release) release(i);
  }
}

void AdmissionService::tally(StagedReply::Rung rung) {
  switch (rung) {
    case StagedReply::Rung::kNone:
      return;
    case StagedReply::Rung::kAdmitted:
      tally_admitted_.fetch_add(1, std::memory_order_relaxed);
      HEDRA_METRIC("serve.admit.admitted");
      return;
    case StagedReply::Rung::kRejectedExact:
      tally_rejected_exact_.fetch_add(1, std::memory_order_relaxed);
      HEDRA_METRIC("serve.admit.rejected_exact");
      return;
    case StagedReply::Rung::kRejectedSeed:
      tally_rejected_seed_.fetch_add(1, std::memory_order_relaxed);
      HEDRA_METRIC("serve.admit.rejected_seed");
      return;
    case StagedReply::Rung::kProvisional:
      tally_provisional_.fetch_add(1, std::memory_order_relaxed);
      HEDRA_METRIC("serve.admit.provisional");
      return;
    case StagedReply::Rung::kError:
      tally_errors_.fetch_add(1, std::memory_order_relaxed);
      return;
  }
}

AdmissionService::LadderTallies AdmissionService::ladder_tallies()
    const noexcept {
  LadderTallies t;
  t.admitted = tally_admitted_.load(std::memory_order_relaxed);
  t.rejected_exact = tally_rejected_exact_.load(std::memory_order_relaxed);
  t.rejected_seed = tally_rejected_seed_.load(std::memory_order_relaxed);
  t.provisional = tally_provisional_.load(std::memory_order_relaxed);
  t.errors = tally_errors_.load(std::memory_order_relaxed);
  return t;
}

std::string AdmissionService::status_line() const {
  const std::shared_ptr<const Snapshot> current = snapshot();
  const LadderTallies ladder = ladder_tallies();
  std::ostringstream os;
  os << "tasks=" << current->set.size()
     << " cores_used=" << current->analysis.cores_used
     << " schedulable=" << (current->set.empty() || current->analysis.schedulable ? 1 : 0)
     << " version=" << current->version << " platform="
     << config_.platform.spec()
     << " journal_bytes=" << journal_bytes()
     << " admitted=" << ladder.admitted
     << " rejected_exact=" << ladder.rejected_exact
     << " rejected_seed=" << ladder.rejected_seed
     << " provisional=" << ladder.provisional
     << " admit_errors=" << ladder.errors;
  return os.str();
}

}  // namespace hedra::serve
