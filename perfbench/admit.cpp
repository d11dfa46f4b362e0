/// \file admit.cpp
/// The `admit` workload: the admission daemon end to end — protocol, queue,
/// contention fixpoint, journal, reply.  `admissiond` runs as a child
/// process with a durable journal; at start it replays a warm set of ~1k
/// pure-host tasks plus a small group of tasks sharing the platform's
/// `gpu*2,dsp` device classes.  One client keeps 8 requests outstanding
/// (closed loop, below the queue capacity of 64, so any SHED is a failure)
/// and sends a scripted cycle of units:
///
///   (a) host-only ADMIT -> LEAVE          journal writes
///   (b) device-sharing ADMIT -> LEAVE     the fixpoint iterates
///   (c) ADMIT with a too-tight deadline   rejected, no write
///   (d) STATUS                            a read
///
/// Every unit returns the daemon to the warm set, so each reply is known in
/// advance: the offline contention_rta of (warm set + candidate), computed
/// at set-up and not timed.  Referees compare every reply line, the STATUS
/// counters, and — after the daemon exits — the journal's replayed state.
///
/// The traced run starts a second daemon with telemetry on, scrapes
/// METRICS before and after the measured phase (so start-up replay is not
/// charged), and reads the span self-times from the daemon's trace dump.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "graph/critical_path.h"
#include "graph/dag_io.h"
#include "model/platform.h"
#include "serve/admission.h"
#include "serve/journal.h"
#include "serve/protocol.h"
#include "taskset/contention_rta.h"
#include "taskset/gen.h"
#include "util/error.h"
#include "util/rng.h"

extern char** environ;

namespace perfbench {

namespace {

using hedra::model::DagTask;
using hedra::serve::AdmissionReply;
using hedra::serve::Decision;
using hedra::taskset::TaskSet;

constexpr int kWarmHostTasks = 1000;
constexpr int kDeviceGroupTasks = 6;
constexpr int kPoolSize = 8;       ///< distinct candidates per category
constexpr int kCandidateBatches = 8;  ///< draws before giving up
constexpr int kSpareCores = 64;  ///< host cores left free beside the warm set
constexpr std::size_t kWindow = 8;  ///< requests outstanding
constexpr int kQueueCapacity = 64;
constexpr int kSetupReps = 3;
/// The tail reported is p90: a decision waits behind up to 7 others, so a
/// stall of a second from another tenant of the machine moves p99 by half
/// while p90 holds.  p99 and its samples beyond are printed alongside.
constexpr double kTailPct = 90.0;
constexpr int kReplyTimeoutMs = 60'000;
constexpr const char* kDevices = "gpu*2,dsp";

/// One unit of the script, in send order.
enum class Slot { kAdmitHost, kLeaveHost, kAdmitDevice, kLeaveDevice,
                  kAdmitReject, kStatus };
constexpr Slot kUnit[] = {Slot::kAdmitHost,   Slot::kLeaveHost,
                          Slot::kAdmitDevice, Slot::kLeaveDevice,
                          Slot::kAdmitReject, Slot::kStatus};
constexpr std::size_t kUnitSize = std::size(kUnit);

struct Candidate {
  std::string request;  ///< ADMIT text
  std::string leave;    ///< LEAVE text
  std::string expected_admit;
  std::string expected_leave;
};

/// The generated inputs and every expected reply.
struct Workload {
  TaskSet warm;
  int warm_cores_used = 0;
  std::vector<Candidate> host, device, reject;
  double device_group_iterations = 0.0;  ///< mean fixpoint iterations
  std::string journal_text;  ///< warm.to_text(), the final-state referee
};

TaskSet with_task(const TaskSet& base, const DagTask& extra) {
  TaskSet next(base.platform());
  for (const DagTask& task : base) next.add(task);
  next.add(extra);
  return next;
}

DagTask renamed(const DagTask& task, const std::string& name,
                hedra::graph::Time deadline = 0) {
  return DagTask(task.dag(), task.period(),
                 deadline > 0 ? deadline : task.deadline(), name);
}

std::string admit_text(const DagTask& task) {
  std::ostringstream os;
  os << "ADMIT " << task.name() << " period " << task.period()
     << " deadline " << task.deadline() << "\n"
     << hedra::graph::write_dag_text(task.dag()) << "endtask\n";
  return os.str();
}

}  // namespace

/// The reply the daemon must give to `candidate` joining `warm`, derived
/// from the offline exact contention_rta exactly as the service words it.
std::string expected_admit_reply(const TaskSet& warm, const DagTask& candidate,
                                 hedra::taskset::ContentionAnalysis* out) {
  hedra::taskset::ContentionAnalysis analysis =
      hedra::taskset::contention_rta(with_task(warm, candidate));
  AdmissionReply reply;
  reply.task = candidate.name();
  if (analysis.schedulable) {
    reply.decision = Decision::kAdmitted;
    reply.cores = analysis.tasks.back().cores;
    reply.response = analysis.tasks.back().response;
    reply.detail = "proven by exact fixpoint";
  } else {
    reply.decision = Decision::kRejected;
    for (const auto& t : analysis.tasks) {
      if (!t.schedulable) {
        reply.detail = "task '" + t.name + "' misses its deadline (R = " +
                       t.response.to_string() + ")";
        break;
      }
    }
  }
  if (out != nullptr) *out = std::move(analysis);
  return hedra::serve::format_reply(reply);
}

namespace {

Workload make_workload(std::uint64_t seed, Result& result) {
  hedra::Rng master(seed);
  hedra::taskset::TaskSetGenConfig host;
  host.num_tasks = kWarmHostTasks;
  host.total_utilization = 0.25 * kWarmHostTasks;
  host.dag_params = hedra::gen::HierarchicalParams::small_tasks();
  host.dag_params.min_nodes = 10;
  host.dag_params.max_nodes = 40;
  host.dag_params.num_devices = 0;
  // Federated partition: heavy tasks take several cores.
  host.cores = 4 * kWarmHostTasks;
  const hedra::model::Platform platform = hedra::model::Platform::parse(
      std::to_string(host.cores) + ":" + kDevices);

  hedra::taskset::TaskSetGenConfig device = host;
  device.num_tasks = kDeviceGroupTasks + kPoolSize;
  device.total_utilization = 0.03 * device.num_tasks;
  device.dag_params.num_devices = 2;
  device.coff_ratio = 0.2;
  device.device_units = {2, 1};

  Workload w;
  w.warm = TaskSet(platform);
  hedra::Rng host_rng = master.fork();
  for (const DagTask& t : hedra::taskset::generate_task_set(host, host_rng)) {
    w.warm.add(t);
  }
  // A daemon only ever holds a state it admitted: drop tasks the exact
  // test rejects (UUniFast can draw a structurally infeasible one) until
  // the warm set is schedulable.
  hedra::taskset::ContentionAnalysis warm_analysis;
  for (int round = 0; round < 50; ++round) {
    warm_analysis = hedra::taskset::contention_rta(w.warm);
    if (warm_analysis.schedulable) break;
    TaskSet kept(platform);
    for (std::size_t i = 0; i < w.warm.size(); ++i) {
      if (warm_analysis.tasks[i].schedulable) kept.add(w.warm[i]);
    }
    w.warm = std::move(kept);
  }

  // Resize the platform to the host tasks' partition plus spare cores, so
  // every seed leaves the same room for the device group and candidates
  // (each task's core count is the smallest feasible one, so the
  // partition does not depend on the total).
  w.warm = TaskSet(hedra::model::Platform::parse(
                       std::to_string(warm_analysis.cores_used +
                                      kSpareCores) +
                       ":" + kDevices),
                   std::vector<DagTask>(w.warm.begin(), w.warm.end()));
  // The device-sharing group and the (b) candidates come from one draw that
  // is schedulable as a whole, so each candidate fits beside the group.
  std::vector<DagTask> device_cands;
  hedra::Rng device_rng = master.fork();
  for (int attempt = 0; attempt < kCandidateBatches && device_cands.empty();
       ++attempt) {
    const TaskSet drawn =
        hedra::taskset::generate_task_set(device, device_rng);
    TaskSet all = w.warm;
    for (std::size_t i = 0; i < drawn.size(); ++i) {
      all.add(renamed(drawn[i], "dev" + std::to_string(i + 1)));
    }
    if (!hedra::taskset::contention_rta(all).schedulable) continue;
    for (std::size_t i = 0; i < drawn.size(); ++i) {
      if (i < static_cast<std::size_t>(kDeviceGroupTasks)) {
        w.warm.add(renamed(drawn[i], "dev" + std::to_string(i + 1)));
      } else {
        device_cands.push_back(drawn[i]);
      }
    }
  }
  warm_analysis = hedra::taskset::contention_rta(w.warm);
  result.check(warm_analysis.schedulable && !device_cands.empty(),
               "no schedulable warm set with a device-sharing group");
  w.warm_cores_used = warm_analysis.cores_used;
  w.journal_text = w.warm.to_text();

  // Adds `raw` to `pool` when the exact test's verdict on it joining the
  // warm set is `want`.
  const auto offer = [&](std::vector<Candidate>& pool, const DagTask& raw,
                         const std::string& prefix,
                         hedra::graph::Time deadline, Decision want) {
    if (pool.size() == static_cast<std::size_t>(kPoolSize)) return;
    const DagTask task =
        renamed(raw, prefix + std::to_string(pool.size()), deadline);
    hedra::taskset::ContentionAnalysis analysis;
    const std::string expected = expected_admit_reply(w.warm, task, &analysis);
    if (analysis.schedulable != (want == Decision::kAdmitted)) return;
    Candidate c;
    c.request = admit_text(task);
    c.leave = "LEAVE " + task.name() + "\n";
    c.expected_admit = expected;
    AdmissionReply left;
    left.decision = Decision::kOk;
    left.task = task.name();
    left.detail = "task '" + task.name() + "' left";
    c.expected_leave = hedra::serve::format_reply(left);
    pool.push_back(std::move(c));
    if (prefix == "d") {
      // Shape: the device-sharing tasks' fixpoints iterate.
      double iterations = 0.0;
      int sharing = 0;
      for (const auto& t : analysis.tasks) {
        if (t.devices.empty()) continue;
        iterations += t.iterations;
        ++sharing;
      }
      w.device_group_iterations +=
          sharing > 0 ? iterations / sharing / kPoolSize : 0.0;
    }
  };
  for (const DagTask& raw : device_cands) {
    offer(w.device, raw, "d", 0, Decision::kAdmitted);
  }
  hedra::taskset::TaskSetGenConfig host_cands = host;
  host_cands.num_tasks = 4 * kPoolSize;
  host_cands.total_utilization = 0.08 * host_cands.num_tasks;
  hedra::Rng cand_rng = master.fork();
  for (int batch = 0; batch < kCandidateBatches &&
                      (w.host.size() < static_cast<std::size_t>(kPoolSize) ||
                       w.reject.size() < static_cast<std::size_t>(kPoolSize));
       ++batch) {
    for (const DagTask& raw :
         hedra::taskset::generate_task_set(host_cands, cand_rng)) {
      offer(w.host, raw, "h", 0, Decision::kAdmitted);
      // (c): a deadline of half the critical path, which no schedule can
      // meet, so the exact test rejects it.
      offer(w.reject, raw, "r",
            std::max<hedra::graph::Time>(
                1, hedra::graph::critical_path_length(raw.dag()) / 2),
            Decision::kRejected);
    }
  }
  for (const auto* pool : {&w.host, &w.device, &w.reject}) {
    result.check(pool->size() == static_cast<std::size_t>(kPoolSize),
                 "could not draw " + std::to_string(kPoolSize) +
                     " candidates of every category");
  }
  result.check(w.device_group_iterations > 1.0,
               "device-sharing tasks' fixpoints do not iterate");
  return w;
}

/// Writes the warm set as a journal the daemon replays at start.
void write_journal(const Workload& w, const std::string& path) {
  std::filesystem::remove(path);
  hedra::serve::Journal journal(path);
  journal.append("platform " + w.warm.platform().spec());
  for (const DagTask& task : w.warm) {
    journal.append("admit\n" + hedra::serve::task_to_text(task));
  }
}

/// A running admissiond with pipes on stdin/stdout.  Killed and reaped on
/// destruction if still running.
class Daemon {
 public:
  Daemon(const std::string& binary, std::vector<std::string> args,
         const std::string& log_path) {
    int in_pipe[2] = {-1, -1};
    int out_pipe[2] = {-1, -1};
    if (pipe2(in_pipe, O_CLOEXEC) != 0) throw hedra::Error("pipe failed");
    if (pipe2(out_pipe, O_CLOEXEC) != 0) {
      close(in_pipe[0]);
      close(in_pipe[1]);
      throw hedra::Error("pipe failed");
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, in_pipe[0], 0);
    posix_spawn_file_actions_adddup2(&actions, out_pipe[1], 1);
    posix_spawn_file_actions_addopen(&actions, 2, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    args.insert(args.begin(), binary);
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(in_pipe[0]);
    close(out_pipe[1]);
    in_ = in_pipe[1];
    out_ = out_pipe[0];
    if (rc != 0) {
      close(in_);
      close(out_);
      throw hedra::Error("cannot start '" + binary + "': " + std::strerror(rc));
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (in_ >= 0) close(in_);
    if (out_ >= 0) close(out_);
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
  }

  void send(const std::string& text) {
    std::size_t done = 0;
    while (done < text.size()) {
      const ssize_t n = write(in_, text.data() + done, text.size() - done);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw hedra::Error("daemon stdin closed");
      done += static_cast<std::size_t>(n);
    }
  }

  /// Next reply line (without the newline); throws on EOF or timeout.
  std::string read_line() {
    for (;;) {
      const auto nl = buffer_.find('\n', scanned_);
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        scanned_ = 0;
        return line;
      }
      scanned_ = buffer_.size();
      pollfd p{out_, POLLIN, 0};
      const int ready = poll(&p, 1, kReplyTimeoutMs);
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) throw hedra::Error("daemon reply timed out");
      char chunk[65536];
      const ssize_t n = read(out_, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw hedra::Error("daemon closed its stdout");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// METRICS scrape: counter name (dotted) -> value.
  std::map<std::string, double> scrape() {
    send("METRICS\n");
    std::map<std::string, double> values;
    for (std::string line = read_line(); line != "# EOF";
         line = read_line()) {
      if (line.empty() || line[0] == '#') continue;
      const auto space = line.rfind(' ');
      if (space == std::string::npos) continue;
      values[line.substr(0, space)] = std::strtod(line.c_str() + space + 1,
                                                  nullptr);
    }
    return values;
  }

  /// Sends QUIT, reads its reply, waits for exit; returns peak RSS (MiB).
  double quit() {
    send("QUIT\n");
    (void)read_line();
    close(in_);
    in_ = -1;
    int status = 0;
    struct rusage usage {};
    const pid_t pid = pid_;
    pid_ = -1;
    if (wait4(pid, &status, 0, &usage) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      throw hedra::Error("admissiond did not exit cleanly");
    }
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
  }

 private:
  pid_t pid_ = -1;
  int in_ = -1;
  int out_ = -1;
  std::string buffer_;
  std::size_t scanned_ = 0;
};

std::map<std::string, std::string> status_fields(const std::string& line) {
  std::map<std::string, std::string> fields;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    const auto eq = token.find('=');
    if (eq != std::string::npos) {
      fields[token.substr(0, eq)] = token.substr(eq + 1);
    }
  }
  return fields;
}

struct PhaseStats {
  std::vector<double> decision_ms;
  double wall_s = 0.0;
  std::uint64_t decisions = 0;
  std::uint64_t per_slot[kUnitSize] = {};
};

/// Drives whole script units through a freshly started daemon for
/// `seconds`, refereeing every reply.
PhaseStats drive(Daemon& daemon, const Workload& w, double seconds,
                 std::uint64_t base_version, Result& result) {
  struct Pending {
    double sent_s;
    Slot slot;
    const std::string* expected;  // null for STATUS
    std::uint64_t unit;
  };
  PhaseStats stats;
  std::deque<Pending> pending;
  std::uint64_t next = 0;
  const double start = now_s();
  const double end = start + seconds;
  for (;;) {
    while (pending.size() < kWindow &&
           !(next % kUnitSize == 0 && now_s() >= end)) {
      const std::uint64_t unit = next / kUnitSize;
      const Slot slot = kUnit[next % kUnitSize];
      const Candidate* c = nullptr;
      const std::size_t pick = unit % kPoolSize;
      switch (slot) {
        case Slot::kAdmitHost:
        case Slot::kLeaveHost:
          c = &w.host[pick];
          break;
        case Slot::kAdmitDevice:
        case Slot::kLeaveDevice:
          c = &w.device[pick];
          break;
        case Slot::kAdmitReject:
          c = &w.reject[pick];
          break;
        case Slot::kStatus:
          break;
      }
      const bool leave = slot == Slot::kLeaveHost || slot == Slot::kLeaveDevice;
      const std::string& text =
          c == nullptr ? std::string("STATUS\n")
                       : (leave ? c->leave : c->request);
      const std::string* expected =
          c == nullptr ? nullptr
                       : (leave ? &c->expected_leave : &c->expected_admit);
      pending.push_back(Pending{now_s(), slot, expected, unit});
      daemon.send(text);
      ++next;
    }
    if (pending.empty()) break;
    const std::string line = daemon.read_line();
    const double got = now_s();
    const Pending p = pending.front();
    pending.pop_front();
    ++stats.per_slot[static_cast<std::size_t>(p.slot)];
    if (p.expected != nullptr) {
      stats.decision_ms.push_back(1000.0 * (got - p.sent_s));
      ++stats.decisions;
      result.check(line == *p.expected,
                   "reply '" + line + "', expected '" + *p.expected + "'");
      continue;
    }
    // STATUS after unit u's four mutations: the warm set, version advanced
    // by 4(u+1), ladder tallies of u+1 whole units, nothing shed.
    const auto fields = status_fields(line);
    const std::uint64_t units = p.unit + 1;
    const auto is = [&](const char* key, const std::string& want) {
      const auto it = fields.find(key);
      return it != fields.end() && it->second == want;
    };
    const bool ok =
        line.rfind("OK ", 0) == 0 &&
        is("tasks", std::to_string(w.warm.size())) &&
        is("cores_used", std::to_string(w.warm_cores_used)) &&
        is("schedulable", "1") &&
        is("version", std::to_string(base_version + 4 * units)) &&
        is("admitted", std::to_string(2 * units)) &&
        is("rejected_exact", std::to_string(units)) &&
        is("rejected_seed", "0") && is("provisional", "0") &&
        is("admit_errors", "0") && is("shed_full", "0") &&
        is("shed_fault", "0");
    result.check(ok, "STATUS '" + line + "' disagrees with the script");
  }
  stats.wall_s = now_s() - start;
  return stats;
}

/// Starts a daemon on a fresh copy of the warm journal and waits until it
/// answers (journal replayed).
std::unique_ptr<Daemon> start_daemon(const Options& options,
                                     const std::string& journal,
                                     const std::string& pristine,
                                     const std::string& platform,
                                     bool telemetry, const std::string& tag) {
  std::filesystem::copy_file(
      pristine, journal, std::filesystem::copy_options::overwrite_existing);
  std::vector<std::string> args = {"--platform", platform, "--journal",
                                   journal, "--queue",
                                   std::to_string(kQueueCapacity)};
  if (telemetry) {
    args.insert(args.end(),
                {"--trace-out", options.work_dir + "/admit_trace.json",
                 "--metrics-out", options.work_dir + "/admit_metrics.json"});
  }
  auto daemon = std::make_unique<Daemon>(
      options.admissiond, args, options.work_dir + "/admissiond_" + tag + ".log");
  daemon->send("STATUS\n");
  const std::string ready = daemon->read_line();
  if (ready.rfind("OK ", 0) != 0) {
    throw hedra::Error("admissiond start-up reply: " + ready);
  }
  return daemon;
}

/// One span of the daemon's chrome://tracing dump.
struct TraceSpan {
  std::string name;
  std::uint64_t tid = 0;
  double dur_us = 0.0;
  int parent = -1;
  std::string verb;  ///< root spans only
};

std::vector<TraceSpan> read_trace(const std::string& path) {
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::vector<TraceSpan> spans;
  const auto field = [&](std::size_t from, std::size_t to, const char* key) {
    const auto at = text.find(key, from);
    return at < to ? at + std::strlen(key) : std::string::npos;
  };
  std::size_t pos = 0;
  while ((pos = text.find("{\"name\":\"", pos)) != std::string::npos) {
    const std::size_t end = text.find("}}", pos);
    if (end == std::string::npos) break;
    TraceSpan span;
    const std::size_t name_at = pos + 9;
    span.name = text.substr(name_at, text.find('"', name_at) - name_at);
    if (const auto at = field(pos, end, "\"tid\":"); at != std::string::npos) {
      span.tid = std::strtoull(text.c_str() + at, nullptr, 10);
    }
    if (const auto at = field(pos, end, "\"dur\":"); at != std::string::npos) {
      span.dur_us = std::strtod(text.c_str() + at, nullptr);
    }
    if (const auto at = field(pos, end, "\"parent\":");
        at != std::string::npos) {
      span.parent = static_cast<int>(std::strtol(text.c_str() + at, nullptr, 10));
    }
    if (const auto at = field(pos, end, "\"verb\":\"");
        at != std::string::npos) {
      span.verb = text.substr(at, text.find('"', at) - at);
    }
    spans.push_back(std::move(span));
    pos = end;
  }
  return spans;
}

/// Span self-times (ms) per metric name, plus decision totals.  A
/// decision's service time is its request span minus parse and queue-wait
/// (the reader's parse span opens before the blocking read, so it also
/// holds the wait for the request to arrive).
struct SpanBreakdown {
  std::map<std::string, std::vector<double>> self_ms;
  double decision_service_ms = 0.0;
  std::map<std::string, double> decision_self_total_ms;
};

SpanBreakdown breakdown(const std::vector<TraceSpan>& spans) {
  static const std::map<std::string, std::string> kMetric = {
      {"parse", "serve.parse_ms"},
      {"queue-wait", "serve.queue_wait_ms"},
      {"snapshot-build", "serve.snapshot_build_ms"},
      {"rta-fixpoint", "taskset.rta_fixpoint_ms"},
      {"journal-append+fsync", "serve.journal_ms"},
      {"publish", "serve.publish_ms"},
      {"request", "serve.request_self_ms"}};
  SpanBreakdown out;
  std::size_t i = 0;
  while (i < spans.size()) {
    std::size_t j = i;
    while (j < spans.size() && spans[j].tid == spans[i].tid) ++j;
    // spans[i, j) is one request; indices are positions in that range.
    std::vector<double> self(j - i);
    for (std::size_t k = i; k < j; ++k) self[k - i] = spans[k].dur_us;
    for (std::size_t k = i; k < j; ++k) {
      const int parent = spans[k].parent;
      if (parent >= 0 && static_cast<std::size_t>(parent) < j - i) {
        self[static_cast<std::size_t>(parent)] -= spans[k].dur_us;
      }
    }
    const std::string& verb = spans[i].verb;
    const bool decision = verb == "ADMIT" || verb == "LEAVE";
    if (verb != "METRICS" && verb != "QUIT") {
      for (std::size_t k = i; k < j; ++k) {
        const auto it = kMetric.find(spans[k].name);
        if (it == kMetric.end()) continue;
        out.self_ms[it->second].push_back(self[k - i] / 1000.0);
        if (decision) {
          out.decision_self_total_ms[it->second] += self[k - i] / 1000.0;
        }
      }
      if (decision) {
        double service_us = spans[i].dur_us;
        for (std::size_t k = i; k < j; ++k) {
          if (spans[k].name == "parse" || spans[k].name == "queue-wait") {
            service_us -= spans[k].dur_us;
          }
        }
        out.decision_service_ms += service_us / 1000.0;
      }
    }
    i = j;
  }
  return out;
}

double counter_delta(const std::map<std::string, double>& before,
                     const std::map<std::string, double>& after,
                     const std::string& dotted) {
  std::string prom = "hedra_" + dotted;
  std::replace(prom.begin(), prom.end(), '.', '_');
  const auto a = after.find(prom);
  const auto b = before.find(prom);
  return (a == after.end() ? 0.0 : a->second) -
         (b == before.end() ? 0.0 : b->second);
}

}  // namespace

Result run_admit(const Options& options) {
  Result result;
  signal(SIGPIPE, SIG_IGN);
  const Workload w = make_workload(options.seed, result);
  if (!result.correct()) return result;
  const std::string platform = w.warm.platform().spec();
  const std::string pristine = options.work_dir + "/admit_warm.journal";
  const std::string journal = options.work_dir + "/admit.journal";
  const std::uint64_t base_version = 1 + w.warm.size();

  // Set-up, repeated: start the daemon on the warm journal and wait until
  // it has replayed it.  The last daemon serves the measured phase.  The
  // journal itself is input, written once and not timed (its 1k fsyncs
  // measure the disk, not the program).
  write_journal(w, pristine);
  std::vector<double> setup_walls;
  std::unique_ptr<Daemon> daemon;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (daemon != nullptr) (void)daemon->quit();
    const double t0 = now_s();
    daemon = start_daemon(options, journal, pristine, platform, false, "plain");
    setup_walls.push_back(now_s() - t0);
  }
  result.metrics["setup_s"] = median(setup_walls);

  const double plain_seconds = options.trace ? options.seconds / 2
                                             : options.seconds;
  const PhaseStats plain =
      drive(*daemon, w, plain_seconds, base_version, result);
  result.metrics["peak_rss_mb"] = daemon->quit();
  daemon.reset();

  // The journal replays to the warm set: every unit left what it admitted.
  const auto check_journal = [&] {
    hedra::serve::AdmissionConfig config;
    config.platform = w.warm.platform();
    config.journal_path = journal;
    const hedra::serve::AdmissionService replayed(config);
    result.check(replayed.snapshot()->set.to_text() == w.journal_text,
                 "journal does not replay to the expected final set");
  };
  check_journal();

  const auto decision_rate = [](const PhaseStats& s) {
    return static_cast<double>(s.decisions) / s.wall_s;
  };
  result.metrics["items_per_s"] = decision_rate(plain);
  result.metrics["latency_p50_ms"] = percentile(plain.decision_ms, 50.0);
  result.metrics["latency_tail_ms"] = percentile(plain.decision_ms, kTailPct);
  result.metrics["bench.latency_samples"] =
      static_cast<double>(plain.decision_ms.size());
  result.metrics["bench.latency_tail_pct"] = kTailPct;
  std::cout << "admit: " << plain.decisions << " decisions, p99 "
            << percentile(plain.decision_ms, 99.0) << " ms with "
            << samples_beyond(plain.decision_ms, 99.0)
            << " samples beyond; units (a)/(b)/(c)/(d) = "
            << plain.per_slot[0] << "/" << plain.per_slot[2] << "/"
            << plain.per_slot[4] << "/" << plain.per_slot[5] << "\n";
  // Shape: every slot of every unit was answered (whole units only).
  for (std::size_t s = 1; s < kUnitSize; ++s) {
    result.check(plain.per_slot[s] == plain.per_slot[0],
                 "reply counts do not match the script's unit mix");
  }
  if (!options.trace) return result;

  // Traced phase: a fresh daemon with telemetry, METRICS diffed around it.
  daemon = start_daemon(options, journal, pristine, platform, true, "traced");
  const auto before = daemon->scrape();
  const PhaseStats traced =
      drive(*daemon, w, options.seconds / 2, base_version, result);
  const auto after = daemon->scrape();
  // Probe: one device-sharing ADMIT, scraped on both sides.
  const auto probe_before = daemon->scrape();
  daemon->send(w.device[0].request);
  result.check(daemon->read_line() == w.device[0].expected_admit,
               "probe ADMIT reply differs from the offline referee");
  const auto probe_after = daemon->scrape();
  daemon->send(w.device[0].leave);
  result.check(daemon->read_line() == w.device[0].expected_leave,
               "probe LEAVE reply differs from the offline referee");
  (void)daemon->quit();
  daemon.reset();
  check_journal();

  const double decisions = static_cast<double>(traced.decisions);
  const auto delta = [&](const char* name) {
    return counter_delta(before, after, name);
  };
  const double solves = delta("taskset.rta.fixpoint_solves");
  const double analyses = delta("taskset.rta.analyses");
  result.metrics["taskset.rta_solves_per_decision"] = solves / decisions;
  result.metrics["taskset.rta_iterations_per_solve"] =
      solves > 0 ? delta("taskset.rta.iterations") / solves : 0.0;
  result.metrics["taskset.rta_seed_evals_per_decision"] =
      delta("taskset.rta.seed_evals") / decisions;
  const double paths = delta("taskset.rta.int_path") +
                       delta("taskset.rta.frac_path");
  result.metrics["taskset.rta_int_path_share"] =
      paths > 0 ? delta("taskset.rta.int_path") / paths : 0.0;
  result.metrics["taskset.rta_iterations_per_solve.device_group"] =
      w.device_group_iterations;
  result.metrics["serve.journal_appends_per_decision"] =
      delta("serve.journal.appends") / decisions;
  const double shed =
      delta("serve.shed.queue_full") + delta("serve.shed.fault");
  result.metrics["serve.shed"] = shed;
  result.check(shed == 0, "the daemon shed requests below queue capacity");
  result.check(analyses > 0, "METRICS recorded no contention analyses");
  // The probe decision's fixpoint iterated past its seeds.
  result.check(counter_delta(probe_before, probe_after,
                             "taskset.rta.iterations") >
                   counter_delta(probe_before, probe_after,
                                 "taskset.rta.fixpoint_solves"),
               "device-sharing ADMIT did not iterate its fixpoint");

  const std::vector<TraceSpan> trace =
      read_trace(options.work_dir + "/admit_trace.json");
  result.check(!trace.empty(), "the daemon's trace dump holds no spans");
  const SpanBreakdown spans = breakdown(trace);
  for (const auto& [name, samples] : spans.self_ms) {
    result.metrics[name + ".p50"] = percentile(samples, 50.0);
    result.metrics[name + ".p99"] = percentile(samples, 99.0);
  }
  const auto share = [&](const char* metric) {
    const auto it = spans.decision_self_total_ms.find(metric);
    return it == spans.decision_self_total_ms.end() ||
                   spans.decision_service_ms <= 0
               ? 0.0
               : it->second / spans.decision_service_ms;
  };
  result.metrics["serve.fixpoint_share"] = share("taskset.rta_fixpoint_ms");
  result.metrics["serve.journal_share"] = share("serve.journal_ms");
  result.metrics["serve.unattributed_share"] = share("serve.request_self_ms");
  result.metrics["obs.trace_overhead_pct"] =
      100.0 * (decision_rate(plain) / decision_rate(traced) - 1.0);
  std::cout << "admit traced: fixpoint " << 100.0 * share("taskset.rta_fixpoint_ms")
            << "% and journal " << 100.0 * share("serve.journal_ms")
            << "% of decision service time; request self time (LEAVE "
               "work, body parse, reply) "
            << 100.0 * share("serve.request_self_ms") << "%\n";
  return result;
}

}  // namespace perfbench
