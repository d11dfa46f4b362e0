/// \file crash_recovery_test.cpp
/// The headline crash-safety property: a process SIGKILLed in the middle of
/// a journal append must, on restart, replay to EXACTLY the state of the
/// last acknowledged admission — bit-identical TaskSet text, no partial
/// record applied, no acknowledged record lost.
///
/// The test forks a child that arms a kill-action fault at the journal's
/// mid-append seam (`serve.journal.write.mid=@N!kill`), then admits tasks
/// until the fault SIGKILLs it without unwinding — a real torn write, not a
/// simulated one.  The parent waits for the SIGKILL, replays the journal,
/// and checks the recovered state.

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/fd_stream.h"
#include "graph/dag_io.h"
#include "serve/admission.h"
#include "serve/server.h"
#include "util/fault.h"

namespace hedra::serve {
namespace {

model::DagTask easy_task(const std::string& name) {
  return model::DagTask(graph::read_dag_text("node v1 5\n"), 1000, 1000,
                        name);
}

AdmissionConfig config_with(const std::string& journal) {
  AdmissionConfig config;
  config.platform = model::Platform::parse("4:acc");
  config.journal_path = journal;
  return config;
}

/// Forks a child that dies via SIGKILL at the `nth` hit of `site` while
/// admitting tasks tau1..tau9.  Returns only in the parent, after asserting
/// the child was indeed killed.
void run_child_until_killed(const std::string& path, const std::string& site,
                            int nth) {
  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child: never return into gtest.  Everything from here must end in
    // _exit or SIGKILL.
    fault::configure(site + "=@" + std::to_string(nth) + "!kill");
    try {
      AdmissionService service(config_with(path));
      for (int i = 1; i <= 9; ++i) {
        (void)service.admit(easy_task("tau" + std::to_string(i)));
      }
    } catch (...) {
      _exit(2);  // a throw instead of the expected SIGKILL
    }
    _exit(3);  // survived: the fault never fired
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status))
      << "child exited with code "
      << (WIFEXITED(status) ? WEXITSTATUS(status) : -1)
      << " instead of dying by signal";
  ASSERT_EQ(WTERMSIG(status), SIGKILL);
}

TEST(CrashRecoveryTest, KilledMidAppendRecoversAcknowledgedStateExactly) {
  const std::string path =
      ::testing::TempDir() + "/crash_mid_append.journal";
  std::remove(path.c_str());

  // Fault hit #1 is the platform header, hit #4 is tau3's admit record: the
  // child acknowledged tau1 and tau2, died writing tau3.
  run_child_until_killed(path, "serve.journal.write.mid", 4);

  // The journal has a torn tail (header of tau3's record, no payload).
  const JournalReplay replay = Journal::replay(path);
  EXPECT_TRUE(replay.torn_tail);
  ASSERT_EQ(replay.records.size(), 3u);  // platform + tau1 + tau2

  // Recovery: exactly the acknowledged tasks, bit-identical to a set built
  // from those admissions directly.
  AdmissionService recovered(config_with(path));
  taskset::TaskSet expected(model::Platform::parse("4:acc"));
  expected.add(easy_task("tau1"));
  expected.add(easy_task("tau2"));
  EXPECT_EQ(recovered.snapshot()->set.to_text(), expected.to_text());
  EXPECT_TRUE(recovered.snapshot()->analysis.schedulable);

  // The recovered service serves on, truncating the torn tail for good.
  EXPECT_EQ(recovered.admit(easy_task("tau3")).decision, Decision::kAdmitted);
  const JournalReplay after = Journal::replay(path);
  EXPECT_FALSE(after.torn_tail);
  EXPECT_EQ(after.records.size(), 4u);
}

TEST(CrashRecoveryTest, KilledBeforeAnyPayloadRecoversEmpty) {
  const std::string path = ::testing::TempDir() + "/crash_first.journal";
  std::remove(path.c_str());

  // Hit #1 is the platform header itself: the journal is all torn tail.
  run_child_until_killed(path, "serve.journal.write.mid", 1);
  const JournalReplay replay = Journal::replay(path);
  EXPECT_TRUE(replay.records.empty());

  AdmissionService recovered(config_with(path));
  EXPECT_EQ(recovered.snapshot()->set.size(), 0u);
  EXPECT_EQ(recovered.admit(easy_task("tau1")).decision, Decision::kAdmitted);
}

TEST(CrashRecoveryTest, KilledAtTheSyncSeamLosesNothing) {
  const std::string path = ::testing::TempDir() + "/crash_sync.journal";
  std::remove(path.c_str());

  // The sync seam sits AFTER the payload write: the record is complete on
  // disk, so recovery must include it even though fsync never ran (the test
  // observes the page cache; durability against power loss is fsync's job,
  // ordering is the journal's).
  run_child_until_killed(path, "serve.journal.sync", 3);
  const JournalReplay replay = Journal::replay(path);
  EXPECT_FALSE(replay.torn_tail);
  ASSERT_EQ(replay.records.size(), 3u);  // platform + tau1 + tau2

  AdmissionService recovered(config_with(path));
  EXPECT_EQ(recovered.snapshot()->set.size(), 2u);
}

TEST(CrashRecoveryTest, KilledAtAGroupCommitFsyncLosesNoAcknowledgedReply) {
  // A child serves a pipe with pipelined group commit and is SIGKILLed at
  // its third commit fsync, with a burst of requests in flight.  Every
  // ADMITTED or OK line the parent read before the kill must name a record
  // in the journal the child left behind.
  const std::string path = ::testing::TempDir() + "/crash_group.journal";
  std::remove(path.c_str());
  int to_child[2];
  int from_child[2];
  ASSERT_EQ(::pipe(to_child), 0);
  ASSERT_EQ(::pipe(from_child), 0);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    ::close(to_child[1]);
    ::close(from_child[0]);
    try {
      AdmissionService service(config_with(path));
      fault::configure("serve.journal.sync=@3!kill");
      hedra::testing::FdStreamBuf in_buf(to_child[0]);
      hedra::testing::FdStreamBuf out_buf(from_child[1]);
      std::istream in(&in_buf);
      std::ostream out(&out_buf);
      (void)run_server(in, out, service);
    } catch (...) {
      _exit(2);
    }
    _exit(3);  // survived: the fault never fired
  }
  ::close(to_child[0]);
  ::close(from_child[1]);
  const auto admit = [](int i) {
    return "ADMIT tau" + std::to_string(i) +
           " period 1000 deadline 1000\nnode v1 5\nendtask\n";
  };
  // Two requests one at a time (one fsync each), then a burst whose first
  // fsync is the fatal one.
  std::string burst;
  for (int i = 3; i <= 12; ++i) burst += admit(i);
  burst += "LEAVE tau1\nLEAVE tau2\n";
  std::vector<std::string> replies;
  {
    hedra::testing::FdStreamBuf request_buf(to_child[1]);
    hedra::testing::FdStreamBuf reply_buf(from_child[0]);
    std::ostream requests(&request_buf);
    std::istream in(&reply_buf);
    std::string line;
    for (int i = 1; i <= 2; ++i) {
      requests << admit(i) << std::flush;
      ASSERT_TRUE(std::getline(in, line));
      replies.push_back(line);
    }
    requests << burst << std::flush;
    // End the input, so a child that is never killed exits instead of
    // waiting for more.
    ::close(to_child[1]);
    while (std::getline(in, line)) replies.push_back(line);  // until killed
  }
  ::close(from_child[0]);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status))
      << "child exited with code "
      << (WIFEXITED(status) ? WEXITSTATUS(status) : -1)
      << " instead of dying by signal";
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  const JournalReplay replay = Journal::replay(path);
  const auto journalled = [&](const std::string& record) {
    for (const std::string& r : replay.records) {
      if (r.rfind(record, 0) == 0) return true;
    }
    return false;
  };
  int acknowledged = 0;
  for (const std::string& line : replies) {
    std::istringstream fields(line);
    std::string decision, name;
    fields >> decision >> name;
    if (decision == "ADMITTED") {
      ++acknowledged;
      EXPECT_TRUE(journalled("admit\ntask " + name + " "))
          << "acknowledged '" << line << "' has no admit record";
    } else if (decision == "OK") {
      ++acknowledged;
      EXPECT_TRUE(journalled("leave " + name))
          << "acknowledged '" << line << "' has no leave record";
    }
  }
  EXPECT_GE(acknowledged, 2);  // tau1 and tau2, each behind its own fsync
  // And the journal restarts to a state holding every acknowledged task.
  AdmissionService recovered(config_with(path));
  EXPECT_TRUE(recovered.snapshot()->analysis.schedulable);
}

}  // namespace
}  // namespace hedra::serve
