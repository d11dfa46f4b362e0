#pragma once

/// \file server.h
/// The daemon loop, three threads in a pipeline:
///
///  - the *reader* parses requests off an input stream — an ADMIT's body
///    into its model::DagTask — and hands them over through a
///    BoundedQueue;
///  - the *worker* (the calling thread) decides each request against the
///    service's head state and writes its journal record without fsync
///    (AdmissionService::stage_admit/stage_leave);
///  - the *committer* fsyncs once for every record written since its last
///    fsync, then publishes the decided states and writes one response
///    line per request, in request order (AdmissionService::commit).
///
/// So the worker decides the next requests while the disk syncs the last
/// ones, and a reply never leaves before the fsync that covers every
/// record its decision saw.  STATUS and METRICS are answered by the
/// committer too, after every earlier request is committed.  At most
/// `queue_capacity` requests are decided but not yet answered; beyond
/// that the worker waits and the request queue fills.
///
/// Overload behaviour: when the request queue is full the READER answers
/// `SHED <name>` immediately instead of blocking — bounded memory, and the
/// client learns in O(1) that the request was dropped unprocessed.  Under
/// overload a SHED line can therefore overtake the responses of
/// still-queued earlier requests; every response names its task, so
/// clients correlate by name, not by order.  In the common (non-saturated)
/// case responses come back strictly in request order.
///
/// Every request is executed under the configured per-request deadline.
/// Injected faults (util/fault.h) and analysis errors surface as ERROR
/// responses, and so does every decision a journal rollback discarded —
/// the loop survives them; only QUIT or input EOF end it.

#include <cstdint>
#include <iosfwd>

#include "obs/trace.h"
#include "serve/admission.h"

namespace hedra::serve {

struct ServerConfig {
  /// Request queue capacity, also the bound on requests decided but not
  /// yet answered; at least 1.
  std::size_t queue_capacity = 64;
  /// Per-request analysis deadline; <= 0 means unlimited.
  double request_deadline_sec = 0.0;
  /// When non-null every request carries a RequestTrace (parse ->
  /// queue-wait -> admission phases), submitted here on completion.  Null
  /// (the default) records nothing — no allocation, no timestamps.
  obs::Tracer* tracer = nullptr;
};

struct ServerStats {
  std::uint64_t requests = 0;   ///< requests executed (incl. errors)
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t provisional = 0;
  std::uint64_t shed = 0;       ///< refused at the queue, never executed
  /// The two distinguishable causes of a SHED reply (shed = their sum):
  /// a genuinely full queue vs an injected serve.queue.push fault losing
  /// the hand-off.
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_fault = 0;
  std::uint64_t errors = 0;
};

/// Runs the loop until EOF or QUIT; returns the tally.  Throws
/// hedra::Error if `config.queue_capacity` is 0.
ServerStats run_server(std::istream& in, std::ostream& out,
                       AdmissionService& service,
                       const ServerConfig& config = {});

}  // namespace hedra::serve
