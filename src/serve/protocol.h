#pragma once

/// \file protocol.h
/// The admission daemon's line protocol — plain text over stdin/stdout (or
/// any istream/ostream pair), reusing the taskset text serialisation for
/// DAG bodies so a `.taskset` file can be replayed against a live daemon
/// with nothing but sed.
///
/// Requests (one per line, except ADMIT which carries a body):
///
///     ADMIT <name> period <T> deadline <D>
///     node v1 5
///     node v2 9 offload
///     edge v1 v2
///     endtask
///     LEAVE <name>
///     STATUS
///     METRICS
///     QUIT
///
/// The ADMIT body is exactly the dag_io line format of PR 5's taskset
/// files, terminated by `endtask`.  Responses are single lines:
///
///     ADMITTED <name> cores=<m> response=<frac> <detail>
///     REJECTED <name> <detail>
///     PROVISIONAL <name> <detail>
///     OK <detail>
///     ERROR <detail>
///     SHED <name>
///
/// except METRICS, whose response is the Prometheus text exposition of the
/// obs registry (src/obs/metrics.h), a multi-line block terminated by a
/// literal `# EOF` line — the one scrape-shaped verb in the protocol.
///
/// Hardening: request parsing never trusts the peer.  Body size and line
/// counts are capped, unknown commands and malformed headers turn into
/// kInvalid requests (the worker answers ERROR and the connection lives
/// on), and a request truncated by EOF is an explicit error, not a hang.

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>

#include "graph/dag.h"
#include "obs/trace.h"
#include "serve/admission.h"

namespace hedra::serve {

/// Caps on one ADMIT request body — beyond either, the request is refused
/// before any parsing work is spent on it.
inline constexpr std::size_t kMaxBodyBytes = 4u * 1024 * 1024;
inline constexpr std::size_t kMaxBodyLines = 200'000;

struct Request {
  enum class Kind { kAdmit, kLeave, kStatus, kMetrics, kQuit, kInvalid };
  Kind kind = Kind::kInvalid;
  std::string name;            ///< task name (admit / leave)
  graph::Time period = 0;      ///< admit only
  graph::Time deadline = 0;    ///< admit only
  std::string dag_text;        ///< admit only: dag_io lines, no endtask
  /// admit only: `dag_text` parsed into the task by the server's reader
  /// thread; empty when the body did not parse (reason in `error`).
  std::optional<model::DagTask> task;
  std::string error;           ///< kInvalid / unparsed body: what was wrong
  /// The request's span tree when the server traces (server.h); built by
  /// the reader thread, handed to the worker and then the committer
  /// through queues (their mutexes order the hand-offs), finished and
  /// submitted by the committer.
  std::unique_ptr<obs::RequestTrace> trace;
  int queue_wait_span = -1;  ///< open "queue-wait" span for the worker
};

/// Reads the next request (skipping blank and '#' comment lines).  Returns
/// nullopt at clean EOF.  Malformed input yields Kind::kInvalid with the
/// reason in `error` — the stream stays usable for the next line.
[[nodiscard]] std::optional<Request> read_request(std::istream& in);

/// The single-line response for `reply`.
[[nodiscard]] std::string format_reply(const AdmissionReply& reply);

}  // namespace hedra::serve
