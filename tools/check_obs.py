#!/usr/bin/env python3
"""Validate the observability artifacts a lego_serve run emits:
Chrome trace_event JSON schema, metrics-snapshot JSON schema, and
access-log shape/line count.

Usage:
  check_obs.py [--trace FILE] [--stats FILE
                [--expect-failpoints N] [--require-shared-cache]]
               [--access-log FILE --expect-requests N]

Metrics snapshots carrying DSE engine counters must include the
dse.segment.* segmentation-search family and every dse.cache.* /
dse.eval.* metric of the counter table in src/dse/counters.hh (as a
gauge for its Gauge rows, as a counter otherwise); snapshots carrying
serve.* counters must include the robustness family (serve.shed,
serve.degraded, serve.stalled, serve.internal_errors counters and
the serve.queue_depth gauge) and the concurrency family
(serve.coalesced counter, serve.in_flight gauge).
--expect-failpoints N requires >= N distinct failpoint.* counters
with >= 1 hit each — the chaos-smoke proof that the fault-injection
replay actually fired its seams. --require-shared-cache asserts the
stats snapshot came from a pure shared-cache reader: zero model
evaluations and frontier sweeps, zero frontier misses, >= 1 frontier
hit served from the mmap'd snapshot tier, and a mapped generation
>= 1 — the multi-process smoke proof that every answer came
copy-free out of the published file.

Every given artifact is validated; any violation exits 1 with a
message. Stdlib only — runs on a bare CI python3.
"""

import argparse
import json
import os
import re
import sys

FAILURES = []

# One LEGO_DSE_COUNTERS row: X(set, owner, field, kind, "metric", ...
COUNTER_ROW = re.compile(r'X\(set,[\s\\]*\w+,[\s\\]*\w+,[\s\\]*(\w+),'
                         r'[\s\\]*"([^"]+)"')


def counter_table():
    """(counter, gauge) metric names of src/dse/counters.hh."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "..", "src", "dse", "counters.hh")
    with open(path) as f:
        rows = COUNTER_ROW.findall(f.read())
    if not rows:
        sys.exit(f"check_obs: no counter rows parsed from {path}")
    return ([m for kind, m in rows if kind != "Gauge"],
            [m for kind, m in rows if kind == "Gauge"])


def fail(msg):
    FAILURES.append(msg)
    print(f"FAIL: {msg}")


def check_trace(path):
    with open(path) as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return fail(f"{path}: traceEvents missing or not a list")
    if not events:
        fail(f"{path}: traceEvents is empty")
    for i, ev in enumerate(events):
        ctx = f"{path}: traceEvents[{i}]"
        for key in ("name", "cat", "ph", "ts", "pid", "tid"):
            if key not in ev:
                return fail(f"{ctx}: missing {key!r}")
        if ev["ph"] not in ("X", "i", "M"):
            return fail(f"{ctx}: unexpected ph {ev['ph']!r}")
        if ev["ts"] < 0:
            return fail(f"{ctx}: negative ts")
        if ev["ph"] == "X" and ev.get("dur", 0) < 0:
            return fail(f"{ctx}: negative dur")
    other = doc.get("otherData", {})
    for key in ("dropped_events", "kept_events", "build"):
        if key not in other:
            fail(f"{path}: otherData missing {key!r}")
    if other.get("kept_events") != len(events):
        fail(f"{path}: kept_events {other.get('kept_events')} != "
             f"{len(events)} events")
    names = {ev["name"] for ev in events}
    print(f"ok: {path}: {len(events)} events, "
          f"{len(names)} distinct spans, "
          f"{other.get('dropped_events', 0)} dropped")


def check_stats(path, expect_failpoints=None,
                require_shared_cache=False):
    with open(path) as f:
        doc = json.load(f)
    build = doc.get("build")
    if not isinstance(build, dict) or "git" not in build:
        fail(f"{path}: missing build-info stamp")
    serve = doc.get("serve")
    if not isinstance(serve, dict):
        return fail(f"{path}: no serve metrics object")
    for section in ("counters", "gauges", "histograms"):
        if section not in serve:
            return fail(f"{path}: metrics missing {section!r}")
    for name, hist in serve["histograms"].items():
        for key in ("count", "p50", "p95", "p99", "buckets"):
            if key not in hist:
                return fail(f"{path}: histogram {name}: missing "
                            f"{key!r}")
    counters = serve["counters"]
    # Any snapshot carrying DSE engine counters must also carry the
    # segmentation-search family and every row of the counter table
    # (zero-valued when nothing fired — the counters exist either
    # way).
    if any(name.startswith("dse.") for name in counters):
        table_counters, table_gauges = counter_table()
        for name in ["dse.segment.runs", "dse.segment.plans",
                     "dse.segment.infeasible",
                     "dse.segment.accepted"] + table_counters:
            if name not in counters:
                return fail(f"{path}: counters missing {name!r}")
        for name in table_gauges:
            if name not in serve["gauges"]:
                return fail(f"{path}: gauges missing {name!r}")
    # A serving snapshot must carry the full robustness family, so
    # dashboards can alert on shed/degraded/stalled without probing
    # whether the loop predates hardened serving.
    if any(name.startswith("serve.") for name in counters):
        for name in ("serve.shed", "serve.degraded",
                     "serve.stalled", "serve.internal_errors",
                     "serve.coalesced"):
            if name not in counters:
                return fail(f"{path}: counters missing {name!r}")
        for name in ("serve.queue_depth", "serve.in_flight"):
            if name not in serve["gauges"]:
                return fail(f"{path}: gauges missing {name!r}")
    if expect_failpoints is not None:
        # Failpoint hit counters land in the process-global registry.
        fired = set()
        for obj in (serve, doc.get("process") or {}):
            for name, value in obj.get("counters", {}).items():
                if name.startswith("failpoint.") and value >= 1:
                    fired.add(name)
        if len(fired) < expect_failpoints:
            return fail(f"{path}: {len(fired)} failpoint counters "
                        f"with hits, expected >= {expect_failpoints}"
                        f" ({sorted(fired)})")
    if require_shared_cache:
        # A pure reader process: every answer out of the mmap'd
        # snapshot, nothing recomputed, nothing missed.
        evals = counters.get("dse.eval.model_evals")
        if evals != 0:
            fail(f"{path}: shared-cache reader ran {evals} model "
                 "evals (want 0)")
        sweeps = counters.get("dse.eval.searches")
        if sweeps != 0:
            fail(f"{path}: shared-cache reader ran {sweeps} frontier "
                 "sweeps (want 0)")
        misses = counters.get("dse.cache.front_misses")
        if misses != 0:
            fail(f"{path}: shared-cache reader had {misses} "
                 "frontier misses (want 0)")
        shared = counters.get("dse.cache.shared_front_hits", 0)
        if shared < 1:
            fail(f"{path}: no frontier hits served from the mapped "
                 "tier")
        gen = serve["gauges"].get("dse.cache.generation", 0)
        if gen < 1:
            fail(f"{path}: mapped snapshot generation {gen} < 1 "
                 "(reader not attached?)")
        if not FAILURES:
            print(f"ok: {path}: shared-cache reader: 0 evals, "
                  f"{shared} mapped frontier hits, generation "
                  f"{gen}")
    nc = len(counters)
    nh = len(serve["histograms"])
    print(f"ok: {path}: {nc} counters, {nh} histograms")


def check_access_log(path, expect_requests):
    lines = []
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                rec = json.loads(raw)
            except json.JSONDecodeError as e:
                return fail(f"{path}:{lineno}: not JSON: {e}")
            for key in ("seq", "id", "ok", "models", "wall_ms"):
                if key not in rec:
                    return fail(f"{path}:{lineno}: missing {key!r}")
            if not rec["ok"] and "error" not in rec:
                return fail(f"{path}:{lineno}: rejected request "
                            "without error text")
            lines.append(rec)
    if expect_requests is not None and len(lines) != expect_requests:
        return fail(f"{path}: {len(lines)} access-log lines, "
                    f"expected {expect_requests}")
    rejected = sum(1 for r in lines if not r["ok"])
    print(f"ok: {path}: {len(lines)} lines ({rejected} rejected)")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trace", help="Chrome trace_event JSON")
    ap.add_argument("--stats", help="metrics snapshot JSON")
    ap.add_argument("--expect-failpoints", type=int, default=None,
                    help="minimum distinct failpoint.* counters "
                         "with >= 1 hit in the stats snapshot")
    ap.add_argument("--access-log", help="per-request JSON lines")
    ap.add_argument("--expect-requests", type=int, default=None,
                    help="exact access-log line count")
    ap.add_argument("--require-shared-cache",
                    action="store_true",
                    help="fail unless the stats snapshot shows a "
                         "pure shared-cache reader (0 model evals, "
                         "0 frontier misses, >= 1 mapped frontier "
                         "hit, generation >= 1)")
    args = ap.parse_args()
    if not (args.trace or args.stats or args.access_log):
        ap.error("nothing to check")
    if args.trace:
        check_trace(args.trace)
    if args.stats:
        check_stats(args.stats, args.expect_failpoints,
                    args.require_shared_cache)
    if args.access_log:
        check_access_log(args.access_log, args.expect_requests)
    sys.exit(1 if FAILURES else 0)


if __name__ == "__main__":
    main()
