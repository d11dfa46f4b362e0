#!/usr/bin/env python3
"""Validates hedra's telemetry dumps: the hedra-metrics-v1 JSON emitted by
`admissiond --metrics-out` / obs::metrics_json(), and (with --trace) the
chrome://tracing JSON emitted by `admissiond --trace-out`.

Usage: validate_metrics.py <metrics.json> [--trace <trace.json>]
                           [--require-metric NAME]...

The metrics check pins the v1 schema: every counter/gauge is an integer,
every histogram has monotone boundaries, per-bucket counts summing to
`count`, and a non-negative `sum_ns`.  --require-metric fails unless the
named metric exists somewhere in the dump — CI uses it to pin the metric
sites a PR promises.  A dump whose `serve.journal.syncs` exceeds its
`serve.journal.appends` is rejected: every commit fsync covers at least one
admit/leave record.

The trace check pins the span contract of serve/server.cpp: every event is
a complete ("X") event with non-negative ts/dur; spans sharing a tid (one
tid per request) nest inside that request's root "request" span; and the
children of each root sum to no more than the root's duration plus a small
per-span slack for clock quantisation — the acceptance criterion that
span trees actually add up to the end-to-end latency.
"""

import json
import sys

# Spans recorded inside one ADMIT request (serve/server.cpp + admission.cpp).
ADMIT_SPANS = {
    "parse",
    "queue-wait",
    "snapshot-build",
    "rta-fixpoint",
    "journal-append+fsync",
    "publish",
}

# Clock-resolution slack per child span when checking that children fit the
# root interval (ns).  Timestamps are exact integers from one monotonic
# clock, so this only absorbs the begin/end call overhead itself.
SLACK_NS_PER_SPAN = 50_000


def fail(message: str) -> None:
    print(f"validate_metrics: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_metrics(path: str, required: list) -> int:
    with open(path, encoding="utf-8") as handle:
        dump = json.load(handle)

    if dump.get("schema") != "hedra-metrics-v1":
        fail(f"unexpected schema {dump.get('schema')!r}")
    missing = {"schema", "enabled", "counters", "gauges",
               "histograms"} - dump.keys()
    if missing:
        fail(f"missing top-level keys: {sorted(missing)}")
    if not isinstance(dump["enabled"], bool):
        fail("'enabled' must be a boolean")

    names = set()
    for name, value in dump["counters"].items():
        names.add(name)
        if not isinstance(value, int) or value < 0:
            fail(f"counter {name!r} has invalid value {value!r}")
    for name, value in dump["gauges"].items():
        if name in names:
            fail(f"metric {name!r} appears under two kinds")
        names.add(name)
        if not isinstance(value, int):
            fail(f"gauge {name!r} has invalid value {value!r}")
    for name, hist in dump["histograms"].items():
        if name in names:
            fail(f"metric {name!r} appears under two kinds")
        names.add(name)
        missing = {"boundaries_ns", "buckets", "sum_ns", "count"} - hist.keys()
        if missing:
            fail(f"histogram {name!r} missing {sorted(missing)}")
        bounds = hist["boundaries_ns"]
        buckets = hist["buckets"]
        if len(buckets) != len(bounds) + 1:
            fail(f"histogram {name!r}: {len(buckets)} buckets for "
                 f"{len(bounds)} boundaries (want boundaries+1)")
        if any(b <= 0 for b in bounds) or sorted(bounds) != bounds:
            fail(f"histogram {name!r} boundaries not positive-monotone")
        if any(not isinstance(b, int) or b < 0 for b in buckets):
            fail(f"histogram {name!r} has invalid bucket counts")
        if sum(buckets) != hist["count"]:
            fail(f"histogram {name!r}: buckets sum to {sum(buckets)}, "
                 f"count says {hist['count']}")
        if not isinstance(hist["sum_ns"], int) or hist["sum_ns"] < 0:
            fail(f"histogram {name!r} has invalid sum_ns")

    for name in required:
        if name not in names:
            fail(f"required metric {name!r} is missing")

    # Group commit: one fsync covers at least one admit/leave record, so a
    # run syncing more often than it appends counted something twice.
    syncs = dump["counters"].get("serve.journal.syncs", 0)
    appends = dump["counters"].get("serve.journal.appends", 0)
    if syncs > appends:
        fail(f"serve.journal.syncs ({syncs}) exceeds "
             f"serve.journal.appends ({appends})")
    return len(names)


def check_trace(path: str) -> int:
    with open(path, encoding="utf-8") as handle:
        trace = json.load(handle)

    events = trace.get("traceEvents")
    if not isinstance(events, list):
        fail("'traceEvents' must be a list")

    by_tid = {}
    for event in events:
        for key in ("name", "ph", "pid", "tid", "ts", "dur"):
            if key not in event:
                fail(f"event {event!r} missing {key!r}")
        if event["ph"] != "X":
            fail(f"event {event['name']!r} is not a complete ('X') event")
        if float(event["ts"]) < 0 or float(event["dur"]) < 0:
            fail(f"event {event['name']!r} has negative ts/dur")
        by_tid.setdefault(event["tid"], []).append(event)

    requests = 0
    for tid, spans in sorted(by_tid.items()):
        roots = [s for s in spans if s["name"] == "request"]
        if len(roots) != 1:
            fail(f"tid {tid}: expected exactly one root 'request' span, "
                 f"found {len(roots)}")
        root = roots[0]
        requests += 1
        start = float(root["ts"])
        end = start + float(root["dur"])
        slack_us = SLACK_NS_PER_SPAN / 1000.0
        children = [s for s in spans if s is not root]
        child_sum = 0.0
        for child in children:
            c_start = float(child["ts"])
            c_end = c_start + float(child["dur"])
            if c_start < start - slack_us or c_end > end + slack_us:
                fail(f"tid {tid}: span {child['name']!r} "
                     f"[{c_start}, {c_end}] escapes its request "
                     f"[{start}, {end}]")
            if child["name"] not in ADMIT_SPANS:
                fail(f"tid {tid}: unexpected span name {child['name']!r}")
            child_sum += float(child["dur"])
        # Phase spans tile the request sequentially (no overlap by
        # construction), so their sum is bounded by the root duration.
        budget = float(root["dur"]) + slack_us * max(1, len(children))
        if child_sum > budget:
            fail(f"tid {tid}: child spans sum to {child_sum}us, exceeding "
                 f"the request's {root['dur']}us (+slack {budget}us)")
    return requests


def main() -> None:
    if len(sys.argv) < 2:
        fail("usage: validate_metrics.py <metrics.json> "
             "[--trace <trace.json>] [--require-metric NAME]...")
    path = sys.argv[1]
    trace_path = None
    if "--trace" in sys.argv:
        trace_path = sys.argv[sys.argv.index("--trace") + 1]
    required = [
        sys.argv[i + 1]
        for i, arg in enumerate(sys.argv)
        if arg == "--require-metric"
    ]

    metric_count = check_metrics(path, required)
    message = f"validate_metrics: OK ({metric_count} metrics"
    if trace_path is not None:
        requests = check_trace(trace_path)
        message += f", {requests} traced requests"
    print(message + ")")


if __name__ == "__main__":
    main()
