/// \file group_commit_test.cpp
/// Group commit in the admission server: the worker decides requests and
/// writes their journal records while the committer fsyncs the records
/// already written, so one fsync covers a batch.  These tests drive
/// run_server through real pipes, so a burst of requests is in flight
/// while an fsync runs, and check what a failed fsync does to the replies
/// decided on top of the records it lost.

#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <istream>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "common/fd_stream.h"
#include "serve/admission.h"
#include "serve/journal.h"
#include "serve/server.h"
#include "util/fault.h"
#include "util/strings.h"

namespace hedra::serve {
namespace {

std::string temp_journal(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

AdmissionConfig config_with(const std::string& journal) {
  AdmissionConfig config;
  config.platform = model::Platform::parse("16:acc");
  config.journal_path = journal;
  return config;
}

std::string admit_request(const std::string& name) {
  return "ADMIT " + name + " period 1000 deadline 1000\nnode v1 5\nendtask\n";
}

struct Pipe {
  Pipe() { EXPECT_EQ(::pipe(fds), 0); }
  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;
  int fds[2] = {-1, -1};
};

/// run_server on its own thread, spoken to through two pipes.
class PipedServer {
 public:
  explicit PipedServer(AdmissionService& service)
      : thread_([this, &service] {
          hedra::testing::FdStreamBuf in_buf(to_server_.fds[0]);
          std::istream in(&in_buf);
          {
            hedra::testing::FdStreamBuf out_buf(from_server_.fds[1]);
            std::ostream out(&out_buf);
            (void)run_server(in, out, service);
          }
          ::close(from_server_.fds[1]);  // the client reads EOF
        }) {}
  PipedServer(const PipedServer&) = delete;
  PipedServer& operator=(const PipedServer&) = delete;
  ~PipedServer() {
    requests_.flush();
    ::close(to_server_.fds[1]);  // the server reads EOF
    thread_.join();
    ::close(to_server_.fds[0]);
    ::close(from_server_.fds[0]);
  }

  void send(const std::string& text) { requests_ << text << std::flush; }

  std::vector<std::string> read_lines(std::size_t count) {
    std::vector<std::string> lines;
    std::string line;
    while (lines.size() < count && std::getline(replies_, line)) {
      lines.push_back(line);
    }
    return lines;
  }

 private:
  Pipe to_server_;
  Pipe from_server_;
  hedra::testing::FdStreamBuf request_buf_{to_server_.fds[1]};
  hedra::testing::FdStreamBuf reply_buf_{from_server_.fds[0]};
  std::ostream requests_{&request_buf_};
  std::istream replies_{&reply_buf_};
  std::thread thread_;  // last: starts once the pipes exist
};

TEST(GroupCommitTest, SyncFaultMidStreamRollsBackAndServesOn) {
  const std::string path = temp_journal("group_commit_fault.journal");
  AdmissionService service(config_with(path));
  // The platform header's fsync ran above; the second commit fsync from
  // here on is the first one of the burst below.
  fault::clear_registry();
  fault::configure("serve.journal.sync=@2");
  {
    PipedServer server(service);
    server.send(admit_request("t0"));
    const std::vector<std::string> first = server.read_lines(1);
    ASSERT_EQ(first.size(), 1u);
    EXPECT_TRUE(starts_with(first[0], "ADMITTED t0 ")) << first[0];

    // A burst: its first fsync fails.  The replies decided on top of the
    // lost records are ERROR, and once the head is rolled back every later
    // request is decided against the durable state and admitted.
    constexpr int kBurst = 8;
    std::string burst;
    for (int i = 1; i <= kBurst; ++i) {
      burst += admit_request("t" + std::to_string(i));
    }
    server.send(burst);
    const std::vector<std::string> replies = server.read_lines(kBurst);
    ASSERT_EQ(replies.size(), static_cast<std::size_t>(kBurst));
    int lost = 0;
    for (int i = 1; i <= kBurst; ++i) {
      const std::string& line = replies[static_cast<std::size_t>(i - 1)];
      const std::string name = "t" + std::to_string(i);
      // Replies stay in request order.
      if (lost == i - 1 && starts_with(line, "ERROR " + name + " ")) {
        EXPECT_NE(line.find("journal rollback"), std::string::npos) << line;
        ++lost;
      } else {
        EXPECT_TRUE(starts_with(line, "ADMITTED " + name + " ")) << line;
      }
    }
    EXPECT_GE(lost, 1) << "the failed fsync covered no reply";

    // The rolled-back admissions were not applied: admitting them again
    // succeeds, while the acknowledged ones are already admitted.
    server.send(burst + "STATUS\n");
    const std::vector<std::string> again = server.read_lines(kBurst + 1);
    ASSERT_EQ(again.size(), static_cast<std::size_t>(kBurst + 1));
    for (int i = 1; i <= kBurst; ++i) {
      const std::string& line = again[static_cast<std::size_t>(i - 1)];
      const std::string name = "t" + std::to_string(i);
      if (i <= lost) {
        EXPECT_TRUE(starts_with(line, "ADMITTED " + name + " ")) << line;
      } else {
        EXPECT_EQ(line, "ERROR " + name + " task '" + name +
                            "' is already admitted");
      }
    }
    const std::string& status = again.back();
    EXPECT_NE(status.find(" tasks=9 "), std::string::npos) << status;
    EXPECT_NE(status.find(" admitted=9 "), std::string::npos) << status;
    EXPECT_NE(status.find(" admit_errors=8 "), std::string::npos) << status;
    server.send("QUIT\n");
    EXPECT_EQ(server.read_lines(1), std::vector<std::string>{"OK bye"});
  }
  fault::reset();
  fault::clear_registry();

  // The journal replays to the acknowledged state.
  const std::string served = service.snapshot()->set.to_text();
  EXPECT_EQ(service.snapshot()->set.size(), 9u);
  const AdmissionService recovered(config_with(path));
  EXPECT_EQ(recovered.snapshot()->set.to_text(), served);
}

TEST(GroupCommitTest, WritesAndSyncsFromTwoThreads) {
  // The server's worker writes records while its committer syncs them.
  const std::string path = temp_journal("group_commit_threads.journal");
  constexpr int kRecords = 300;
  {
    Journal journal(path);
    std::vector<JournalPosition> written(kRecords);
    std::atomic<int> done{0};
    std::thread syncer([&] {
      for (int synced = 0; synced < kRecords;) {
        const int ready = done.load(std::memory_order_acquire);
        if (ready > synced) {
          journal.sync(written[static_cast<std::size_t>(ready - 1)]);
          EXPECT_GE(journal.durable().bytes,
                    written[static_cast<std::size_t>(ready - 1)].bytes);
          synced = ready;
        } else {
          std::this_thread::yield();
        }
      }
    });
    for (int i = 0; i < kRecords; ++i) {
      written[static_cast<std::size_t>(i)] =
          journal.write("record " + std::to_string(i), 0);
      done.store(i + 1, std::memory_order_release);
    }
    syncer.join();
    EXPECT_EQ(journal.era(), 0u);
  }
  const JournalReplay replay = Journal::replay(path);
  ASSERT_EQ(replay.records.size(), static_cast<std::size_t>(kRecords));
  for (int i = 0; i < kRecords; ++i) {
    EXPECT_EQ(replay.records[static_cast<std::size_t>(i)],
              "record " + std::to_string(i));
  }
}

}  // namespace
}  // namespace hedra::serve
