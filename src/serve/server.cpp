#include "serve/server.h"

#include <atomic>
#include <ostream>
#include <sstream>
#include <thread>
#include <vector>

#include "graph/dag_io.h"
#include "obs/metrics.h"
#include "serve/bounded_queue.h"
#include "serve/protocol.h"
#include "util/deadline.h"
#include "util/error.h"
#include "util/fault.h"
#include "util/thread_annotations.h"

namespace hedra::serve {

namespace {

const char* verb_name(Request::Kind kind) {
  switch (kind) {
    case Request::Kind::kAdmit:
      return "ADMIT";
    case Request::Kind::kLeave:
      return "LEAVE";
    case Request::Kind::kStatus:
      return "STATUS";
    case Request::Kind::kMetrics:
      return "METRICS";
    case Request::Kind::kQuit:
      return "QUIT";
    case Request::Kind::kInvalid:
      return "INVALID";
  }
  return "INVALID";
}

/// The ERROR detail for a failure: a hedra::Error verbatim, anything else
/// marked as internal.
std::string error_detail(const std::exception& e) {
  if (dynamic_cast<const Error*>(&e) != nullptr) return e.what();
  return std::string("internal error: ") + e.what();
}

/// Parses an ADMIT body into the request's task, on the reader thread.  A
/// body that does not parse leaves `task` empty with the reason in
/// `error`, which the worker answers as `ERROR <name> <reason>`.
void parse_body(Request& request) {
  try {
    request.task.emplace(graph::read_dag_text(request.dag_text),
                         request.period, request.deadline, request.name);
  } catch (const std::exception& e) {
    request.error = error_detail(e);
  }
}

/// Decides one request on the worker.  Never throws: every failure —
/// parse residue, analysis faults, journal errors — becomes an ERROR
/// reply, because a service survives bad requests and bad luck; only the
/// transport ending stops it.  STATUS, METRICS and QUIT are answered when
/// released, so they see every earlier request committed.
StagedReply decide(AdmissionService& service, const Request& request,
                   const ServerConfig& config, obs::RequestTrace* trace) {
  StagedReply staged;  // an ERROR reply until decided otherwise
  AdmissionReply& reply = staged.reply;
  try {
    switch (request.kind) {
      case Request::Kind::kInvalid:
        reply.detail = request.error;
        return staged;
      case Request::Kind::kAdmit: {
        if (!request.task.has_value()) {
          reply.task = request.name;
          reply.detail = request.error;
          return staged;
        }
        const util::Deadline deadline =
            config.request_deadline_sec > 0.0
                ? util::Deadline::after_seconds(config.request_deadline_sec)
                : util::Deadline::never();
        return service.stage_admit(*request.task, deadline, trace);
      }
      case Request::Kind::kLeave:
        return service.stage_leave(request.name, trace);
      case Request::Kind::kStatus:
      case Request::Kind::kMetrics:
      case Request::Kind::kQuit:
        return staged;
    }
  } catch (const std::exception& e) {
    reply.task = request.name;
    reply.detail = error_detail(e);
    return staged;
  }
  reply.detail = "unhandled request kind";
  return staged;
}

/// A request the worker has decided and the committer has yet to release.
struct Pending {
  Request::Kind kind = Request::Kind::kInvalid;
  std::string name;
  StagedReply staged;
  std::unique_ptr<obs::RequestTrace> trace;
};

/// Trace ids are process-global, not per-run_server: one Tracer often
/// outlives several server loops (the smoke harness runs one per task
/// set), and chrome://tracing keys rows on the id — a restart must not
/// fold two requests onto one row.
std::atomic<std::uint64_t> g_request_seq{0};

/// The reply stream, shared by the reader thread (SHED lines) and the
/// worker (replies).  Interleaved writes would corrupt the line protocol,
/// so the stream itself is the guarded datum.
struct SharedOut {
  explicit SharedOut(std::ostream& os) : out(os) {}
  util::Mutex mutex;
  std::ostream& out HEDRA_GUARDED_BY(mutex);
};

}  // namespace

ServerStats run_server(std::istream& in, std::ostream& out,
                       AdmissionService& service, const ServerConfig& config) {
  HEDRA_REQUIRE(config.queue_capacity >= 1,
                "the request queue needs a capacity of at least 1");
  ServerStats stats;
  BoundedQueue<Request> queue(config.queue_capacity);
  // Decided replies waiting for the fsync that covers them: at most a
  // queue's worth, so a slow disk backs up into the request queue and the
  // reader sheds, as under any other overload.
  BoundedQueue<Pending> decided(config.queue_capacity);
  SharedOut shared_out(out);
  std::atomic<std::uint64_t> shed_queue_full{0};
  std::atomic<std::uint64_t> shed_fault{0};

  // Reader: parse + enqueue; shed when the worker is saturated.  Parsing
  // (including an injected serve.request.parse fault) must not kill the
  // reader, so failures become kInvalid requests answered in order.
  std::thread reader([&] {
    for (;;) {
      std::optional<Request> request;
      try {
        request = read_request(in);
      } catch (const std::exception& e) {
        Request invalid;
        invalid.kind = Request::Kind::kInvalid;
        invalid.error = e.what();
        request = std::move(invalid);
      }
      if (!request.has_value()) break;  // EOF
      // Stamped after the blocking read returns: the request and parse
      // spans must not hold the time spent waiting for the client.
      const std::int64_t parse_start =
          config.tracer != nullptr ? util::monotonic_now_ns() : 0;
      if (request->kind == Request::Kind::kAdmit) parse_body(*request);
      if (config.tracer != nullptr) {
        // Tracing is best-effort: an injected allocation fault here drops
        // the trace, never the request.
        try {
          HEDRA_FAULT("serve.trace.alloc");
          request->trace = std::make_unique<obs::RequestTrace>(
              g_request_seq.fetch_add(1, std::memory_order_relaxed) + 1);
          request->trace->begin_at("request", parse_start);
          request->trace->end(request->trace->begin_at("parse", parse_start));
          request->trace->note("verb", verb_name(request->kind));
          request->queue_wait_span = request->trace->begin("queue-wait");
        } catch (const std::exception&) {
          request->trace.reset();
        }
      }
      const bool quit = request->kind == Request::Kind::kQuit;
      const std::string name = request->name;
      bool pushed = false;
      bool push_faulted = false;
      try {
        pushed = queue.try_push(std::move(*request));
      } catch (const std::exception&) {
        // A fault at the queue boundary (serve.queue.push) loses the
        // hand-off; the request was never executed, so SHED is the honest
        // answer — and the reader thread must survive.  Distinguished from
        // a genuinely full queue in the stats and STATUS.
        pushed = false;
        push_faulted = true;
      }
      if (!pushed) {
        if (push_faulted) {
          shed_fault.fetch_add(1, std::memory_order_relaxed);
          HEDRA_METRIC("serve.shed.fault");
        } else {
          shed_queue_full.fetch_add(1, std::memory_order_relaxed);
          HEDRA_METRIC("serve.shed.queue_full");
        }
        util::MutexLock lock(shared_out.mutex);
        shared_out.out << "SHED" << (name.empty() ? "" : " " + name) << "\n"
                       << std::flush;
      }
      if (quit) break;
    }
    queue.close();
  });

  // Committer: one fsync per batch of decided requests, then the replies,
  // in request order.  STATUS and METRICS are answered here, after every
  // earlier request is committed.
  const auto respond = [&](Pending& pending, AdmissionReply& reply) {
    ++stats.requests;
    std::unique_ptr<obs::RequestTrace> trace = std::move(pending.trace);
    if (pending.kind == Request::Kind::kMetrics) {
      // The scrape verb: the whole registry in Prometheus text format,
      // terminated by a literal `# EOF` line (see protocol.h).
      const std::string text = obs::prometheus_text();
      {
        util::MutexLock lock(shared_out.mutex);
        shared_out.out << text << "# EOF\n" << std::flush;
      }
      if (trace != nullptr) config.tracer->submit(std::move(trace));
      return;
    }
    if (pending.kind == Request::Kind::kStatus) {
      // Server-side half of the enriched STATUS: the queue and shed
      // tallies live in this loop, not in the service.
      std::ostringstream detail;
      detail << service.status_line() << " queue=" << queue.size()
             << " shed_full="
             << shed_queue_full.load(std::memory_order_relaxed)
             << " shed_fault=" << shed_fault.load(std::memory_order_relaxed);
      reply.decision = Decision::kOk;
      reply.detail = detail.str();
    } else if (pending.kind == Request::Kind::kQuit) {
      reply.decision = Decision::kOk;
      reply.detail = "bye";
    }
    switch (reply.decision) {
      case Decision::kAdmitted:
        ++stats.admitted;
        break;
      case Decision::kRejected:
        ++stats.rejected;
        break;
      case Decision::kProvisional:
        ++stats.provisional;
        break;
      case Decision::kError:
        ++stats.errors;
        HEDRA_METRIC("serve.errors");
        break;
      case Decision::kOk:
        break;
    }
    {
      util::MutexLock lock(shared_out.mutex);
      shared_out.out << format_reply(reply) << "\n" << std::flush;
    }
    if (trace != nullptr) {
      trace->note("decision", to_string(reply.decision));
      if (!pending.name.empty()) trace->note("task", pending.name);
      trace->end_all();
      if (!trace->spans().empty()) {
        const obs::Span& root = trace->spans().front();
        HEDRA_METRIC_OBSERVE("serve.request.latency_ns",
                             root.end_ns - root.start_ns);
      }
      config.tracer->submit(std::move(trace));
    }
  };
  std::thread committer([&] {
    for (;;) {
      std::vector<Pending> batch = decided.take_all();
      if (batch.empty()) break;  // closed and drained
      std::vector<StagedReply> staged(batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        staged[i] = std::move(batch[i].staged);
      }
      service.commit(staged, [&](std::size_t i) {
        respond(batch[i], staged[i].reply);
      });
      decided.release(batch.size());
    }
  });

  // Worker: decide each request against the head state, write its record,
  // and hand it to the committer — never waiting for an fsync.
  for (;;) {
    std::optional<Request> request = queue.pop();
    if (!request.has_value()) break;  // closed and drained
    Pending pending;
    pending.kind = request->kind;
    pending.name = request->name;
    pending.trace = std::move(request->trace);
    if (pending.trace != nullptr && request->queue_wait_span >= 0) {
      pending.trace->end(request->queue_wait_span);
    }
    HEDRA_METRIC("serve.requests");
    HEDRA_METRIC_SET("serve.queue.depth",
                     static_cast<std::int64_t>(queue.size()));
    pending.staged = decide(service, *request, config, pending.trace.get());
    (void)decided.push(std::move(pending));
    if (request->kind == Request::Kind::kQuit) break;
  }
  decided.close();
  committer.join();
  queue.close();  // in case QUIT ended the worker before the reader
  reader.join();
  stats.shed_queue_full = shed_queue_full.load(std::memory_order_relaxed);
  stats.shed_fault = shed_fault.load(std::memory_order_relaxed);
  stats.shed = stats.shed_queue_full + stats.shed_fault;
  return stats;
}

}  // namespace hedra::serve
