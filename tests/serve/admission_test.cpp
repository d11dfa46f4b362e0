#include "serve/admission.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "graph/dag_io.h"
#include "util/fault.h"

namespace hedra::serve {
namespace {

model::DagTask make_task(const std::string& name, const std::string& dag_text,
                         graph::Time period, graph::Time deadline) {
  return model::DagTask(graph::read_dag_text(dag_text), period, deadline,
                        name);
}

/// A trivially schedulable task: one 5-tick host node.
model::DagTask easy_task(const std::string& name) {
  return make_task(name, "node v1 5\n", 1000, 1000);
}

/// Critical path 150 > deadline 100: infeasible on ANY platform, and the
/// seed bound alone proves it.
model::DagTask impossible_task(const std::string& name) {
  return make_task(name,
                   "node a 50\nnode b 50\nnode c 50\nedge a b\nedge b c\n",
                   100, 100);
}

AdmissionConfig config_with(const std::string& journal = "") {
  AdmissionConfig config;
  config.platform = model::Platform::parse("4:acc");
  config.journal_path = journal;
  return config;
}

std::string temp_journal(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

TEST(AdmissionServiceTest, AdmitUpdatesTheSnapshot) {
  AdmissionService service(config_with());
  EXPECT_EQ(service.snapshot()->set.size(), 0u);

  const AdmissionReply reply = service.admit(easy_task("tau1"));
  EXPECT_EQ(reply.decision, Decision::kAdmitted);
  EXPECT_EQ(reply.outcome, util::Outcome::kComplete);
  EXPECT_EQ(reply.task, "tau1");
  EXPECT_GE(reply.cores, 1);
  EXPECT_EQ(reply.response, Frac(5));

  const auto snapshot = service.snapshot();
  EXPECT_EQ(snapshot->set.size(), 1u);
  EXPECT_EQ(snapshot->version, 1u);
  EXPECT_TRUE(snapshot->analysis.schedulable);
}

TEST(AdmissionServiceTest, DuplicateNameIsAnError) {
  AdmissionService service(config_with());
  EXPECT_EQ(service.admit(easy_task("tau1")).decision, Decision::kAdmitted);
  const AdmissionReply reply = service.admit(easy_task("tau1"));
  EXPECT_EQ(reply.decision, Decision::kError);
  EXPECT_EQ(service.snapshot()->set.size(), 1u);
  EXPECT_EQ(service.snapshot()->version, 1u);
}

TEST(AdmissionServiceTest, InfeasibleTaskRejectedWithProof) {
  AdmissionService service(config_with());
  const AdmissionReply reply = service.admit(impossible_task("tau1"));
  EXPECT_EQ(reply.decision, Decision::kRejected);
  EXPECT_EQ(reply.outcome, util::Outcome::kComplete);
  EXPECT_EQ(service.snapshot()->set.size(), 0u);
}

TEST(AdmissionServiceTest, BudgetCutFallsBackToSeedProof) {
  // max_work_per_request = 1 exhausts the budget on the first fixpoint
  // poll, forcing the degradation ladder.  The impossible task's seed bound
  // exceeds its deadline, so the REJECT is still a proof.
  AdmissionConfig config = config_with();
  config.max_work_per_request = 1;
  AdmissionService service(config);

  const AdmissionReply rejected = service.admit(impossible_task("tau1"));
  EXPECT_EQ(rejected.decision, Decision::kRejected);
  EXPECT_EQ(rejected.outcome, util::Outcome::kComplete);
  EXPECT_NE(rejected.detail.find("seed bound"), std::string::npos);

  // The easy task's seed fits its deadline: no proof either way under the
  // cut, so the answer is PROVISIONAL and nothing is applied.
  const AdmissionReply provisional = service.admit(easy_task("tau2"));
  EXPECT_EQ(provisional.decision, Decision::kProvisional);
  EXPECT_EQ(provisional.outcome, util::Outcome::kBudgetExhausted);
  EXPECT_EQ(service.snapshot()->set.size(), 0u);
  EXPECT_EQ(service.snapshot()->version, 0u);
}

TEST(AdmissionServiceTest, ExpiredDeadlineNeverAdmits) {
  AdmissionService service(config_with());
  const AdmissionReply reply =
      service.admit(easy_task("tau1"), util::Deadline::after_seconds(-1.0));
  // An already-expired deadline cannot produce a proof; the answer must be
  // PROVISIONAL (or a seed-bound REJECT), never ADMITTED.
  EXPECT_NE(reply.decision, Decision::kAdmitted);
  EXPECT_EQ(service.snapshot()->set.size(), 0u);
}

TEST(AdmissionServiceTest, LeaveRemovesAndReanalyses) {
  AdmissionService service(config_with());
  EXPECT_EQ(service.admit(easy_task("tau1")).decision, Decision::kAdmitted);
  EXPECT_EQ(service.admit(easy_task("tau2")).decision, Decision::kAdmitted);

  const AdmissionReply reply = service.leave("tau1");
  EXPECT_EQ(reply.decision, Decision::kOk);
  const auto snapshot = service.snapshot();
  EXPECT_EQ(snapshot->set.size(), 1u);
  EXPECT_EQ(snapshot->set[0].name(), "tau2");
  EXPECT_EQ(snapshot->version, 3u);

  EXPECT_EQ(service.leave("tau1").decision, Decision::kError);
}

TEST(AdmissionServiceTest, StatusLineSummarisesTheState) {
  AdmissionService service(config_with());
  EXPECT_EQ(service.status_line(),
            "tasks=0 cores_used=0 schedulable=1 version=0 platform=4:acc "
            "journal_bytes=0 admitted=0 rejected_exact=0 rejected_seed=0 "
            "provisional=0 admit_errors=0");
  EXPECT_EQ(service.admit(easy_task("tau1")).decision, Decision::kAdmitted);
  EXPECT_NE(service.status_line().find("tasks=1"), std::string::npos);
  EXPECT_NE(service.status_line().find("schedulable=1"), std::string::npos);
  EXPECT_NE(service.status_line().find("admitted=1"), std::string::npos);
}

TEST(AdmissionServiceTest, LadderTalliesCountEveryRung) {
  AdmissionService service(config_with());
  EXPECT_EQ(service.admit(easy_task("tau1")).decision, Decision::kAdmitted);
  // Duplicate name: an error, not a ladder rung.
  EXPECT_EQ(service.admit(easy_task("tau1")).decision, Decision::kError);
  const AdmissionService::LadderTallies t = service.ladder_tallies();
  EXPECT_EQ(t.admitted, 1u);
  EXPECT_EQ(t.errors, 1u);
  EXPECT_EQ(t.rejected_exact, 0u);
  EXPECT_EQ(t.rejected_seed, 0u);
  EXPECT_EQ(t.provisional, 0u);
}

TEST(AdmissionServiceTest, JournalReplayIsBitIdentical) {
  const std::string path = temp_journal("admission_replay.journal");
  std::string before;
  {
    AdmissionService service(config_with(path));
    EXPECT_EQ(service.admit(easy_task("tau1")).decision, Decision::kAdmitted);
    EXPECT_EQ(service.admit(easy_task("tau2")).decision, Decision::kAdmitted);
    EXPECT_EQ(service.admit(easy_task("tau3")).decision, Decision::kAdmitted);
    EXPECT_EQ(service.leave("tau2").decision, Decision::kOk);
    before = service.snapshot()->set.to_text();
  }
  AdmissionService recovered(config_with(path));
  EXPECT_EQ(recovered.snapshot()->set.to_text(), before);
  EXPECT_TRUE(recovered.snapshot()->analysis.schedulable);
  // And the recovered service keeps serving.
  EXPECT_EQ(recovered.admit(easy_task("tau4")).decision, Decision::kAdmitted);
}

TEST(AdmissionServiceTest, JournalPlatformMismatchRefusesToServe) {
  const std::string path = temp_journal("admission_mismatch.journal");
  {
    AdmissionService service(config_with(path));
    EXPECT_EQ(service.admit(easy_task("tau1")).decision, Decision::kAdmitted);
  }
  AdmissionConfig other;
  other.platform = model::Platform::parse("2:acc");
  other.journal_path = path;
  EXPECT_THROW(AdmissionService service(other), Error);
}

TEST(AdmissionServiceTest, JournalDirectorySyncFaultRefusesToServe) {
  // Creating the journal must make its directory entry durable before any
  // append is acknowledged; if that fails the service does not start.
  const std::string path = temp_journal("admission_dirsync.journal");
  fault::configure("serve.journal.dirsync=@1");
  EXPECT_THROW(AdmissionService service(config_with(path)), fault::Injected);
  fault::reset();
  AdmissionService service(config_with(path));
  EXPECT_EQ(service.snapshot()->set.size(), 0u);
  EXPECT_EQ(service.admit(easy_task("tau1")).decision, Decision::kAdmitted);
  fault::clear_registry();
}

TEST(AdmissionServiceTest, JournalFaultAbortsBeforePublish) {
  const std::string path = temp_journal("admission_fault.journal");
  AdmissionService service(config_with(path));
  EXPECT_EQ(service.admit(easy_task("tau1")).decision, Decision::kAdmitted);

  fault::configure("serve.journal.write=@1");
  EXPECT_THROW((void)service.admit(easy_task("tau2")), fault::Injected);
  fault::reset();

  // Nothing was journalled OR published for the failed admit.
  EXPECT_EQ(service.snapshot()->set.size(), 1u);
  EXPECT_EQ(service.snapshot()->version, 1u);
  EXPECT_EQ(service.admit(easy_task("tau2")).decision, Decision::kAdmitted);
  fault::clear_registry();
}

TEST(AdmissionServiceTest, SnapshotAllocFaultLeavesStateUntouched) {
  AdmissionService service(config_with());
  fault::configure("serve.snapshot.alloc=@1");
  EXPECT_THROW((void)service.admit(easy_task("tau1")), fault::Injected);
  fault::reset();
  EXPECT_EQ(service.snapshot()->set.size(), 0u);
  EXPECT_EQ(service.admit(easy_task("tau1")).decision, Decision::kAdmitted);
  fault::clear_registry();
}

TEST(AdmissionServiceTest, TaskToTextMatchesTasksetSerialisation) {
  const model::DagTask task = easy_task("tau1");
  taskset::TaskSet set(model::Platform::parse("4:acc"));
  set.add(task);
  const std::string set_text = set.to_text();
  const std::string block = task_to_text(task);
  // The block is exactly the task's lines of the set serialisation.
  EXPECT_NE(set_text.find(block), std::string::npos);
}

}  // namespace
}  // namespace hedra::serve
