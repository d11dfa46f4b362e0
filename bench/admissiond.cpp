/// \file admissiond.cpp
/// The admission-control daemon: hedra's contention-RTA (taskset/
/// contention_rta.h, the paper's federated admission test hardened with
/// per-request deadlines) behind a line protocol on stdin/stdout.
///
///     admissiond --platform 4:gpu*2,dsp --journal /var/lib/hedra.journal
///
/// speaks the protocol of serve/protocol.h: ADMIT (with a dag_io body
/// terminated by `endtask`), LEAVE, STATUS, QUIT.  Restarting with the same
/// --journal replays the admitted state bit-identically.
///
/// `--smoke` is the self-checking mode CI runs: it generates random task
/// sets with the fig12 generator, pipes every task through the daemon's
/// own protocol loop (real journal, real parser, real deadlines), and
/// re-derives each decision with the offline exact-rational contention_rta
/// — any divergence (an ADMIT the offline test rejects, or vice versa) is
/// a hard failure.  Every third task the offline test admits LEAVEs again
/// after the next ADMIT, so departures from the middle of the set — and
/// the daemon's incremental re-analysis after them — are refereed too.
/// PROVISIONAL answers are checked for fail-closedness only: they must
/// never correspond to an applied admission.  Each set's daemon keeps a
/// journal in a temporary directory; once the set is served, the journal
/// must replay to exactly the state the daemon ended in.
///
/// `--faults '<spec>'` (or HEDRA_FAULTS in the environment) arms the fault
/// registry first, so the smoke doubles as a fail-closed property check
/// under injected faults.

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "graph/dag_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/admission.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "taskset/gen.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/fault.h"

namespace {

using hedra::serve::AdmissionConfig;
using hedra::serve::AdmissionService;
using hedra::serve::ServerConfig;
using hedra::serve::ServerStats;

/// One scripted request of a smoke set: ADMIT or LEAVE of set[task].
struct SmokeOp {
  bool leave = false;
  std::size_t task = 0;
};

/// `set` without the task named `name` (which must be present).
hedra::taskset::TaskSet without_named(const hedra::taskset::TaskSet& set,
                                      const std::string& name) {
  for (std::size_t i = 0; i < set.size(); ++i) {
    if (set[i].name() == name) return set.without(i);
  }
  throw hedra::Error("smoke: no task named '" + name + "'");
}

/// The smoke script of one set: every task is ADMITted in order, and every
/// third task the offline exact test admits (counted across all sets in
/// `admits`) LEAVEs right after the next ADMIT, so it departs from the
/// middle of the set — or at the end, when it was the set's last task.
/// Planned with the offline test before any fault is armed.
std::vector<SmokeOp> smoke_plan(const hedra::taskset::TaskSet& set,
                                int& admits) {
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<SmokeOp> ops;
  hedra::taskset::TaskSet admitted(set.platform());
  std::size_t pending = kNone;
  for (std::size_t k = 0; k < set.size(); ++k) {
    ops.push_back(SmokeOp{false, k});
    hedra::taskset::TaskSet candidate = admitted.with_appended(set[k]);
    const bool admitted_now =
        hedra::taskset::contention_rta(candidate).schedulable;
    if (admitted_now) admitted = std::move(candidate);
    if (pending != kNone) {
      ops.push_back(SmokeOp{true, pending});
      admitted = without_named(admitted, set[pending].name());
      pending = kNone;
    }
    if (admitted_now && ++admits % 3 == 0) pending = k;
  }
  if (pending != kNone) ops.push_back(SmokeOp{true, pending});
  return ops;
}

/// A temporary directory for the smoke's journals, removed with its
/// contents on destruction.
class SmokeDir {
 public:
  SmokeDir() {
    std::string pattern =
        (std::filesystem::temp_directory_path() / "admissiond-smoke-XXXXXX")
            .string();
    if (::mkdtemp(pattern.data()) == nullptr) {
      throw hedra::Error("smoke: cannot create a journal directory");
    }
    path_ = pattern;
  }
  SmokeDir(const SmokeDir&) = delete;
  SmokeDir& operator=(const SmokeDir&) = delete;
  ~SmokeDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// The daemon configuration of smoke set `index`: its platform and its own
/// journal in `dir`.
AdmissionConfig journalled(const hedra::taskset::TaskSet& set,
                           const SmokeDir& dir, int index) {
  AdmissionConfig config;
  config.platform = set.platform();
  config.journal_path = dir.path();
  config.journal_path += "/set" + std::to_string(index) + ".journal";
  return config;
}

/// Pipes `count` generated task sets through a fresh service's protocol
/// loop and cross-checks every decision offline.  `arm_faults` runs once
/// the scripts are planned, so injected faults reach the daemon but never
/// the planning.  Returns the number of divergences (0 = pass).
int run_smoke(int count, int tasks_per_set, std::uint64_t seed,
              const ServerConfig& server_config,
              const std::function<void()>& arm_faults) {
  hedra::taskset::TaskSetGenConfig gen_config;
  gen_config.num_tasks = tasks_per_set;
  gen_config.total_utilization = 2.5;
  gen_config.dag_params.max_depth = 3;
  gen_config.dag_params.n_par = 4;
  gen_config.dag_params.min_nodes = 10;
  gen_config.dag_params.max_nodes = 40;
  gen_config.dag_params.wcet_max = 50;
  gen_config.dag_params.num_devices = 2;
  gen_config.cores = 4;
  const std::vector<hedra::taskset::TaskSet> sets =
      hedra::taskset::generate_taskset_batch(gen_config, count, seed);
  std::vector<std::vector<SmokeOp>> plans;
  int admits = 0;
  for (const hedra::taskset::TaskSet& set : sets) {
    plans.push_back(smoke_plan(set, admits));
  }
  arm_faults();

  // Two severities: an unsound ADMIT is fatal always; a softer mismatch
  // (REJECT/PROVISIONAL/ERROR where offline admits) is under-admission —
  // fatal only when nothing can legitimately truncate the analysis, i.e.
  // expected fail-closed behaviour under armed faults or a per-request
  // deadline.
  const bool lenient = hedra::fault::enabled() ||
                       server_config.request_deadline_sec > 0.0;
  int unsound = 0;
  int mismatches = 0;
  int checked = 0;
  int leaves = 0;

  // Phase 1: drive every set through the daemon's protocol loop — with any
  // armed faults live.  Outputs and final admitted names are collected so
  // the offline referee below can run with injection DISABLED (the referee
  // shares the instrumented analysis code; a fault firing inside the
  // referee would corrupt the verdict it is refereeing).  Each set has its
  // own journal, so the journal's fault seams are live too.
  const SmokeDir dir;
  std::vector<std::string> outputs;
  std::vector<std::vector<std::string>> final_names;
  std::vector<std::string> final_texts;
  for (int si = 0; si < count; ++si) {
    const hedra::taskset::TaskSet& set = sets[static_cast<std::size_t>(si)];
    std::ostringstream script;
    for (const SmokeOp& op : plans[static_cast<std::size_t>(si)]) {
      const auto& task = set[op.task];
      if (op.leave) {
        script << "LEAVE " << task.name() << "\n";
        continue;
      }
      script << "ADMIT " << task.name() << " period " << task.period()
             << " deadline " << task.deadline() << "\n"
             << hedra::graph::write_dag_text(task.dag()) << "endtask\n";
    }
    script << "QUIT\n";
    std::istringstream in(script.str());
    std::ostringstream out;

    std::vector<std::string> names;
    std::string final_text =
        hedra::taskset::TaskSet(set.platform()).to_text();
    std::optional<AdmissionService> service;
    try {
      service.emplace(journalled(set, dir, si));
    } catch (const hedra::Error& e) {
      // A fault in the service constructor (the journal's platform
      // header): the set was never served, so nothing was acknowledged.
      std::cerr << "smoke: set " << si << " never served: " << e.what()
                << "\n";
    }
    if (service.has_value()) {
      (void)hedra::serve::run_server(in, out, *service, server_config);
      for (const auto& task : service->snapshot()->set) {
        names.push_back(task.name());
      }
      final_text = service->snapshot()->set.to_text();
    }
    outputs.push_back(out.str());
    final_names.push_back(std::move(names));
    final_texts.push_back(std::move(final_text));
  }
  hedra::fault::reset();

  // The journal of every set replays to the state the daemon ended in:
  // what it acknowledged is durable, and a rolled-back record is gone.
  for (int si = 0; si < count; ++si) {
    const std::string& expected = final_texts[static_cast<std::size_t>(si)];
    const AdmissionService replayed(
        journalled(sets[static_cast<std::size_t>(si)], dir, si));
    if (replayed.snapshot()->set.to_text() != expected) {
      ++unsound;
      std::cerr << "journal divergence: set " << si
                << " replays to a state the daemon did not end in\n";
    }
  }

  // Phase 2: the offline referee replays the same script — admissions and
  // departures — with the unlimited exact-rational test.  The daemon's
  // ADMIT set must match the referee's exactly (sans faults);
  // PROVISIONAL/REJECT/ERROR answers must correspond to tasks the daemon
  // did NOT apply, and a LEAVE must succeed exactly for admitted tasks.
  for (int si = 0; si < count; ++si) {
    const hedra::taskset::TaskSet& set = sets[static_cast<std::size_t>(si)];
    hedra::taskset::TaskSet admitted(set.platform());

    // Correlate responses by task name, not order: under overload SHED
    // lines from the reader overtake queued responses (documented in
    // server.h), so positional matching would misattribute decisions.  A
    // name gets at most one ADMIT and one LEAVE; only an ADMITTED line
    // answers the first and only an OK line the second.
    std::map<std::string, std::string> admit_reply;
    std::map<std::string, bool> left;
    std::istringstream responses(outputs[static_cast<std::size_t>(si)]);
    std::string line;
    while (std::getline(responses, line)) {
      std::istringstream fields(line);
      std::string decision, name;
      fields >> decision >> name;
      if (name.empty()) continue;
      if (decision == "OK") {
        left[name] = true;
      } else if (decision == "ADMITTED" || !admit_reply.count(name)) {
        admit_reply[name] = line;
      }
    }

    for (const SmokeOp& op : plans[static_cast<std::size_t>(si)]) {
      const auto& task = set[op.task];
      if (op.leave) {
        ++leaves;
        const bool daemon_left = left.count(task.name()) > 0;
        const bool present = std::any_of(
            admitted.begin(), admitted.end(),
            [&](const auto& t) { return t.name() == task.name(); });
        if (daemon_left && !present) {
          ++unsound;
          std::cerr << "UNSOUND LEAVE: set " << si << " task " << task.name()
                    << " left but was never admitted\n";
        }
        if (daemon_left != present) {
          ++mismatches;
          if (!lenient) {
            std::cerr << "divergence: set " << si << " LEAVE " << task.name()
                      << ": daemon " << (daemon_left ? "removed" : "kept")
                      << " it, offline state "
                      << (present ? "holds" : "lacks") << " it\n";
          }
        }
        if (daemon_left && present) {
          admitted = without_named(admitted, task.name());
        }
        continue;
      }
      const auto it = admit_reply.find(task.name());
      line = it == admit_reply.end() ? std::string("<no response>") : it->second;
      const bool daemon_admitted = line.rfind("ADMITTED", 0) == 0;

      hedra::taskset::TaskSet candidate = admitted.with_appended(task);
      const auto offline = hedra::taskset::contention_rta(candidate);
      ++checked;
      if (daemon_admitted && !offline.schedulable) {
        ++unsound;
        std::cerr << "UNSOUND ADMIT: set " << si << " task " << task.name()
                  << " ('" << line << "')\n";
      }
      if (daemon_admitted != offline.schedulable) {
        ++mismatches;
        if (!lenient) {
          std::cerr << "divergence: set " << si << " task " << task.name()
                    << ": daemon said '" << line << "', offline says "
                    << (offline.schedulable ? "SCHEDULABLE"
                                            : "NOT SCHEDULABLE")
                    << "\n";
        }
      }
      if (daemon_admitted) admitted = std::move(candidate);
    }

    // The daemon's applied state must equal its acknowledged admissions
    // minus its acknowledged departures, task for task and in order.  With
    // faults armed the acknowledgements come from the daemon's own
    // replies, so this still holds: ADMITTED implies applied, exactly.
    std::vector<std::string> acknowledged;
    for (const auto& task : admitted) acknowledged.push_back(task.name());
    if (final_names[static_cast<std::size_t>(si)] != acknowledged) {
      ++unsound;
      std::cerr << "state divergence: set " << si << " final state has "
                << final_names[static_cast<std::size_t>(si)].size()
                << " tasks, acknowledged " << acknowledged.size() << "\n";
    }
  }
  std::cout << "smoke: " << checked << " decisions and " << leaves
            << " leaves cross-checked, " << unsound
            << " unsound, " << mismatches << " mismatch(es)"
            << (lenient ? " [lenient: only unsound is fatal]" : "")
            << "\n";
  return lenient ? unsound : unsound + mismatches;
}

/// Writes `text` to `path` or throws — telemetry dumps are an explicit
/// request, so a silent write failure would be a lie to the scraper.
void write_file_or_throw(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
  out.flush();
  if (!out) throw hedra::Error("cannot write '" + path + "'");
}

}  // namespace

int main(int argc, char** argv) {
  hedra::ArgParser parser("admissiond",
                          "admission-control daemon over stdin/stdout");
  const auto* platform =
      parser.add_string("platform", "4:acc", "platform spec (model::Platform)");
  const auto* journal =
      parser.add_string("journal", "", "journal file (empty = no persistence)");
  const auto* deadline_ms = parser.add_real(
      "deadline-ms", 0.0, "per-request analysis deadline (0 = unlimited)");
  const auto* queue =
      parser.add_int("queue", 64, "bounded request queue capacity");
  const auto* faults = parser.add_string(
      "faults", "", "fault-injection spec (see util/fault.h); also reads "
                    "HEDRA_FAULTS when empty");
  const auto* fault_seed =
      parser.add_int("fault-seed", 0, "fault-injection RNG seed");
  const auto* smoke = parser.add_flag(
      "smoke", "self-check: pipe generated sets through the daemon and "
               "cross-check every decision offline");
  const auto* smoke_sets =
      parser.add_int("smoke-sets", 20, "task sets in --smoke mode");
  const auto* smoke_tasks =
      parser.add_int("smoke-tasks", 4, "tasks per set in --smoke mode");
  const auto* seed = parser.add_int("seed", 44, "generator seed (--smoke)");
  const auto* trace_out = parser.add_string(
      "trace-out", "", "write a chrome://tracing JSON of per-request spans "
                       "here on exit (enables telemetry)");
  const auto* metrics_out = parser.add_string(
      "metrics-out", "", "write a hedra-metrics-v1 JSON dump here on exit "
                         "(enables telemetry)");
  try {
    if (!parser.parse(argc, argv)) return 0;

    const auto arm_faults = [&] {
      if (!faults->empty()) {
        hedra::fault::configure(*faults,
                                static_cast<std::uint64_t>(*fault_seed));
      } else {
        (void)hedra::fault::install_from_env();
      }
    };

    // A cast of a negative capacity would make the queue unbounded, and a
    // zero one would shed every request.
    HEDRA_REQUIRE(*queue >= 1, "--queue must be >= 1");
    ServerConfig server_config;
    server_config.queue_capacity = static_cast<std::size_t>(*queue);
    server_config.request_deadline_sec = *deadline_ms / 1000.0;

    // Either output flag arms the whole telemetry layer: the metrics
    // registry records, and every request carries a span tree.
    const bool telemetry = !trace_out->empty() || !metrics_out->empty();
    hedra::obs::Tracer tracer;
    if (telemetry) {
      hedra::obs::set_enabled(true);
      server_config.tracer = &tracer;
    }
    const auto dump_telemetry = [&] {
      if (!trace_out->empty()) {
        write_file_or_throw(*trace_out, tracer.chrome_trace_json());
      }
      if (!metrics_out->empty()) {
        write_file_or_throw(*metrics_out, hedra::obs::metrics_json());
      }
    };

    if (*smoke) {
      const int divergences =
          run_smoke(static_cast<int>(*smoke_sets),
                    static_cast<int>(*smoke_tasks),
                    static_cast<std::uint64_t>(*seed), server_config,
                    arm_faults);
      dump_telemetry();
      return divergences == 0 ? 0 : 1;
    }

    arm_faults();
    AdmissionConfig config;
    config.platform = hedra::model::Platform::parse(*platform);
    config.journal_path = *journal;
    AdmissionService service(config);
    const ServerStats stats =
        hedra::serve::run_server(std::cin, std::cout, service, server_config);
    std::cerr << "admissiond: " << stats.requests << " requests ("
              << stats.admitted << " admitted, " << stats.rejected
              << " rejected, " << stats.provisional << " provisional, "
              << stats.errors << " errors, " << stats.shed << " shed)\n";
    dump_telemetry();
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
