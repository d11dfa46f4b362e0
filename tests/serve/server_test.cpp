#include "serve/server.h"

#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fd_stream.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault.h"
#include "util/strings.h"

namespace hedra::serve {
namespace {

AdmissionConfig test_config() {
  AdmissionConfig config;
  config.platform = model::Platform::parse("4:acc");
  return config;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  for (auto& line : split(text, '\n')) {
    if (!trim(line).empty()) lines.push_back(std::move(line));
  }
  return lines;
}

constexpr const char* kEasyBody = "node v1 5\nendtask\n";

TEST(ServerTest, FullSessionInOrder) {
  std::istringstream in(
      "ADMIT tau1 period 1000 deadline 1000\n" + std::string(kEasyBody) +
      "STATUS\n"
      "LEAVE tau1\n"
      "STATUS\n"
      "QUIT\n");
  std::ostringstream out;
  AdmissionService service(test_config());
  const ServerStats stats = run_server(in, out, service);

  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_TRUE(starts_with(lines[0], "ADMITTED tau1"));
  EXPECT_NE(lines[1].find("tasks=1"), std::string::npos);
  EXPECT_TRUE(starts_with(lines[2], "OK tau1"));
  EXPECT_NE(lines[3].find("tasks=0"), std::string::npos);
  EXPECT_EQ(lines[4], "OK bye");

  EXPECT_EQ(stats.requests, 5u);
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.errors, 0u);
}

TEST(ServerTest, EofEndsTheLoopWithoutQuit) {
  std::istringstream in("STATUS\n");
  std::ostringstream out;
  AdmissionService service(test_config());
  const ServerStats stats = run_server(in, out, service);
  EXPECT_EQ(stats.requests, 1u);
}

TEST(ServerTest, BadRequestsAnswerErrorAndTheLoopSurvives) {
  std::istringstream in(
      "FROBNICATE\n"
      "ADMIT broken period x deadline 1\nendtask\n"
      "LEAVE ghost\n"
      "ADMIT tau1 period 1000 deadline 1000\n" + std::string(kEasyBody) +
      "QUIT\n");
  std::ostringstream out;
  AdmissionService service(test_config());
  const ServerStats stats = run_server(in, out, service);
  EXPECT_EQ(stats.errors, 3u);
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(service.snapshot()->set.size(), 1u);
}

TEST(ServerTest, RejectionsDoNotMutateState) {
  std::istringstream in(
      "ADMIT impossible period 100 deadline 100\n"
      "node a 50\nnode b 50\nnode c 50\nedge a b\nedge b c\nendtask\n"
      "QUIT\n");
  std::ostringstream out;
  AdmissionService service(test_config());
  const ServerStats stats = run_server(in, out, service);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(service.snapshot()->set.size(), 0u);
}

TEST(ServerTest, InjectedQueueFaultShedsTheRequest) {
  std::istringstream in(
      "ADMIT tau1 period 1000 deadline 1000\n" + std::string(kEasyBody) +
      "QUIT\n");
  std::ostringstream out;
  AdmissionService service(test_config());
  fault::configure("serve.queue.push=@1");
  const ServerStats stats = run_server(in, out, service);
  fault::reset();
  fault::clear_registry();

  EXPECT_EQ(stats.shed, 1u);
  // The injected fault is distinguished from a genuinely full queue.
  EXPECT_EQ(stats.shed_fault, 1u);
  EXPECT_EQ(stats.shed_queue_full, 0u);
  EXPECT_EQ(service.snapshot()->set.size(), 0u);  // never executed
  EXPECT_NE(out.str().find("SHED tau1"), std::string::npos);
}

TEST(ServerTest, InjectedParseFaultIsAnErrorResponse) {
  std::istringstream in(
      "STATUS\n"
      "QUIT\n");
  std::ostringstream out;
  AdmissionService service(test_config());
  fault::configure("serve.request.parse=@1");
  const ServerStats stats = run_server(in, out, service);
  fault::reset();
  fault::clear_registry();

  // The faulted parse became an ERROR response; the loop went on to QUIT.
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_NE(out.str().find("ERROR"), std::string::npos);
  EXPECT_NE(out.str().find("OK bye"), std::string::npos);
}

TEST(ServerTest, StatusCarriesQueueAndShedTallies) {
  std::istringstream in("STATUS\nQUIT\n");
  std::ostringstream out;
  AdmissionService service(test_config());
  (void)run_server(in, out, service);
  const auto lines = lines_of(out.str());
  ASSERT_GE(lines.size(), 1u);
  EXPECT_NE(lines[0].find("queue="), std::string::npos);
  EXPECT_NE(lines[0].find("shed_full=0"), std::string::npos);
  EXPECT_NE(lines[0].find("shed_fault=0"), std::string::npos);
  EXPECT_NE(lines[0].find("journal_bytes="), std::string::npos);
}

TEST(ServerTest, MetricsVerbScrapesPrometheusTextWithEofTerminator) {
  obs::set_enabled(true);
  obs::reset_values();
  std::istringstream in(
      "ADMIT tau1 period 1000 deadline 1000\n" + std::string(kEasyBody) +
      "METRICS\n"
      "QUIT\n");
  std::ostringstream out;
  AdmissionService service(test_config());
  const ServerStats stats = run_server(in, out, service);
  obs::set_enabled(false);

  EXPECT_EQ(stats.requests, 3u);
  const std::string reply = out.str();
  // The scrape block carries the admit counter recorded one line earlier
  // and terminates with the literal sentinel line.
  EXPECT_NE(reply.find("# TYPE hedra_serve_requests counter"),
            std::string::npos);
  EXPECT_NE(reply.find("hedra_serve_admit_admitted 1"), std::string::npos);
  EXPECT_NE(reply.find("\n# EOF\n"), std::string::npos);
  obs::reset_values();
}

TEST(ServerTest, TracedSessionRecordsTheSpanTree) {
  obs::Tracer tracer;
  ServerConfig config;
  config.tracer = &tracer;
  std::istringstream in(
      "ADMIT tau1 period 1000 deadline 1000\n" + std::string(kEasyBody) +
      "STATUS\n"
      "QUIT\n");
  std::ostringstream out;
  AdmissionService service(test_config());
  (void)run_server(in, out, service, config);

  const auto traces = tracer.snapshot();
  ASSERT_EQ(traces.size(), 3u);  // ADMIT, STATUS, QUIT

  // The ADMIT trace: the full phase tree, every span closed and nested
  // inside the root "request" interval, phases sequential (span sums to
  // at most the end-to-end latency — the PR's acceptance criterion).
  const obs::RequestTrace& admit = *traces[0];
  EXPECT_EQ(admit.notes().at("verb"), "ADMIT");
  EXPECT_EQ(admit.notes().at("decision"), "ADMITTED");
  EXPECT_EQ(admit.notes().at("task"), "tau1");
  std::vector<std::string> names;
  for (const obs::Span& span : admit.spans()) names.push_back(span.name);
  const std::vector<std::string> expected{
      "request",        "parse",   "queue-wait", "snapshot-build",
      "rta-fixpoint",   "publish"};
  EXPECT_EQ(names, expected);  // no journal span: no journal configured
  const obs::Span& root = admit.spans()[0];
  std::int64_t child_sum = 0;
  for (std::size_t i = 1; i < admit.spans().size(); ++i) {
    const obs::Span& span = admit.spans()[i];
    EXPECT_GE(span.start_ns, root.start_ns) << span.name;
    EXPECT_LE(span.end_ns, root.end_ns) << span.name;
    EXPECT_LE(span.start_ns, span.end_ns) << span.name;
    child_sum += span.end_ns - span.start_ns;
  }
  EXPECT_LE(child_sum, root.end_ns - root.start_ns);

  EXPECT_EQ(traces[1]->notes().at("verb"), "STATUS");
  EXPECT_EQ(traces[2]->notes().at("verb"), "QUIT");

  // The chrome export carries one row (tid) per request; ids are
  // process-global (a shared Tracer outlives server loops) so only their
  // consecutiveness is pinned, not their absolute values.
  EXPECT_EQ(traces[1]->id(), traces[0]->id() + 1);
  EXPECT_EQ(traces[2]->id(), traces[0]->id() + 2);
  const std::string json = tracer.chrome_trace_json();
  EXPECT_NE(json.find("\"tid\":" + std::to_string(traces[0]->id())),
            std::string::npos);
  EXPECT_NE(json.find("\"tid\":" + std::to_string(traces[2]->id())),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"rta-fixpoint\""), std::string::npos);
}

/// How long the client idles before its second request.
constexpr auto kPause = std::chrono::milliseconds(250);

/// The reader blocks in read_request until the client sends a line; that
/// wait is idle time, not parsing, so it must stay out of the spans.
TEST(ServerTest, ParseSpanExcludesTheWaitForTheClient) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::thread client([write_fd = fds[1]] {
    {
      hedra::testing::FdStreamBuf buf(write_fd);
      std::ostream os(&buf);
      os << "STATUS\n" << std::flush;
      std::this_thread::sleep_for(kPause);
      os << "STATUS\nQUIT\n" << std::flush;
    }
    ::close(write_fd);
  });
  obs::Tracer tracer;
  ServerConfig config;
  config.tracer = &tracer;
  AdmissionService service(test_config());
  std::ostringstream out;
  {
    hedra::testing::FdStreamBuf buf(fds[0]);
    std::istream in(&buf);
    (void)run_server(in, out, service, config);
  }
  client.join();
  ::close(fds[0]);

  const auto traces = tracer.snapshot();
  ASSERT_EQ(traces.size(), 3u);  // STATUS, STATUS after the pause, QUIT
  const obs::RequestTrace& paused = *traces[1];
  ASSERT_GE(paused.spans().size(), 2u);
  const obs::Span& parse = paused.spans()[1];
  ASSERT_EQ(parse.name, "parse");
  const std::int64_t limit_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(kPause).count() /
      2;
  EXPECT_LT(parse.end_ns - parse.start_ns, limit_ns);
  EXPECT_EQ(paused.spans()[0].start_ns, parse.start_ns);
}

TEST(ServerTest, TraceAllocationFaultDropsTheTraceNotTheRequest) {
  obs::Tracer tracer;
  ServerConfig config;
  config.tracer = &tracer;
  std::istringstream in(
      "ADMIT tau1 period 1000 deadline 1000\n" + std::string(kEasyBody) +
      "QUIT\n");
  std::ostringstream out;
  AdmissionService service(test_config());
  fault::configure("serve.trace.alloc=@1");
  const ServerStats stats = run_server(in, out, service, config);
  fault::reset();
  fault::clear_registry();

  // The first request (the ADMIT) lost its trace but was served normally.
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(service.snapshot()->set.size(), 1u);
  EXPECT_EQ(tracer.submitted(), 1u);  // only the QUIT trace survived
}

TEST(ServerTest, QueueCapacityBelowOneIsRefused) {
  // A zero capacity would shed every request; the daemon's --queue flag
  // is checked before the cast, the loop checks again.
  ServerConfig config;
  config.queue_capacity = 0;
  std::istringstream in("STATUS\n");
  std::ostringstream out;
  AdmissionService service(test_config());
  EXPECT_THROW((void)run_server(in, out, service, config), Error);
  EXPECT_TRUE(out.str().empty());
}

TEST(ServerTest, StatusReflectsEveryEarlierRequest) {
  // STATUS is answered after every earlier request is committed, however
  // far the worker has run ahead of the committer.
  std::string script;
  for (int i = 0; i < 4; ++i) {  // four one-core tasks fill the platform
    script += "ADMIT tau" + std::to_string(i) +
              " period 1000 deadline 1000\n" + kEasyBody;
    script += "STATUS\n";
  }
  script += "QUIT\n";
  std::istringstream in(script);
  std::ostringstream out;
  AdmissionService service(test_config());
  (void)run_server(in, out, service);
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 9u);
  for (int i = 0; i < 4; ++i) {
    const std::string& status = lines[static_cast<std::size_t>(2 * i + 1)];
    const std::string n = std::to_string(i + 1);
    EXPECT_NE(status.find("tasks=" + n + " "), std::string::npos) << status;
    EXPECT_NE(status.find("version=" + n + " "), std::string::npos) << status;
    EXPECT_NE(status.find("admitted=" + n + " "), std::string::npos)
        << status;
  }
}

TEST(ServerTest, PerRequestDeadlineDegradesGracefully) {
  ServerConfig config;
  config.request_deadline_sec = 1e-9;
  std::istringstream in(
      "ADMIT tau1 period 1000 deadline 1000\n" + std::string(kEasyBody) +
      "QUIT\n");
  std::ostringstream out;
  AdmissionService service(test_config());
  const ServerStats stats = run_server(in, out, service, config);
  // A 1ns budget cannot complete a proof: the answer degrades (PROVISIONAL
  // or a seed REJECT), it never falsely admits.
  EXPECT_EQ(stats.admitted, 0u);
  EXPECT_EQ(service.snapshot()->set.size(), 0u);
}

}  // namespace
}  // namespace hedra::serve
