#!/usr/bin/env python3
"""Build and run the LEGO benchmark; print one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The measuring program (perfbench/*.cc)
is built with CMake into $CARGO_TARGET_DIR (default .bench_build).
With --trace 0 the result holds the end-to-end metrics declared in
BENCHMARK.json; with --trace 1 it holds the per-layer metrics, part of
them computed here from the program's Chrome trace (span self times),
and the trace is rewritten grouped by design / request / model next
to the build as traces/<workload>-<seed>.json.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer metric -> span whose self time it sums. A traced run traces
# one pass, so the sums are seconds per pass.
SELF_TIME = {
    "frontend.generate_s": "frontend.generate",
    "backend.codegen_s": "backend.codegen",
    "backend.bitwidth_s": "backend.bitwidth",
    "backend.pipeline_s": "backend.pipeline",
    "backend.reduce_tree_s": "backend.reduce_tree",
    "backend.rewire_s": "backend.rewire",
    "backend.pin_reuse_s": "backend.pin_reuse",
    "backend.power_gate_s": "backend.power_gate",
    "backend.dag_copy_s": "backend.dag_copy",
    "backend.dag_cost_s": "backend.dag_cost",
    "backend.verilog_s": "backend.verilog",
    "backend.interp_s": "backend.interp",
    "lp.delay_match_s": "lp.delay_match",
}
# Per-layer metric -> span whose whole duration it sums: the serve
# phases and the back-end replay, which enclose other layers' spans.
TOTAL_TIME = {
    "backend.replay_s": "backend.replay",
    "serve.resolve_s": "serve.resolve",
    "serve.sweep_s": "serve.sweep",
    "serve.compose_s": "serve.compose",
}
# Per-layer metric -> (span, quantile) over span durations, in ms.
DURATION_QUANTILE = {
    "serve.queue_ms_p50": ("serve.queued", 0.50),
    "serve.queue_ms_p99": ("serve.queued", 0.99),
    "serve.service_ms_p50": ("serve.request", 0.50),
    "serve.service_ms_p99": ("serve.request", 0.99),
}
# Spans that cover waiting, not work on their thread: left out of the
# nesting, so they neither have nor are children.
WAIT_SPANS = {"pool.wait", "serve.queued", "loadgen.request"}
# Span arguments that name the design / request / model a span is for.
GROUP_ARGS = {"design": "design", "seq": "request", "model": "model"}

# Counted metrics belong to the layers a workload runs; on a workload
# that does not run a layer they are 0 (first matching prefix wins).
LAYER_PREFIXES = [
    ("explore", ("dse.explore",)),
    ("serve", ("serve.", "loadgen.")),
    ("dse", ("dse.", "pool.")),
    ("gen", ("frontend.", "backend.", "lp.")),
]
WORKLOAD_LAYERS = {
    "gen_scale": {"gen"},
    "gen_kernels": {"gen"},
    "serve_zoo": {"serve", "dse"},
    "dse_explore": {"explore", "dse"},
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir, target):
    """Configure (once) and build `target`; output goes to stderr."""
    cmds = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmds.append(["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"])
    cmds.append(["cmake", "--build", build_dir, "--target", target,
                 "-j", str(os.cpu_count() or 1)])
    for cmd in cmds:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, target)


def layer_of(metric):
    for layer, prefixes in LAYER_PREFIXES:
        if metric.startswith(prefixes):
            return layer
    return None


def quantile(values, q):
    """Nearest-rank quantile, as the measuring program computes it."""
    if not values:
        return 0.0
    v = sorted(values)
    rank = min(max(math.ceil(q * len(v)), 1), len(v))
    return v[rank - 1]


def analyze_trace(events):
    """Self time (ns) per span name, durations per name, and a group
    label per event (from its own argument or its enclosing span)."""
    self_ns, dur_ns, group = {}, {}, {}
    by_tid = {}
    for i, e in enumerate(events):
        if e.get("ph") != "X":
            continue
        dur_ns.setdefault(e["name"], []).append(round(e["dur"] * 1000))
        by_tid.setdefault(e["tid"], []).append(i)
    for idxs in by_tid.values():
        spans = []
        for i in idxs:
            e = events[i]
            start = round(e["ts"] * 1000)
            spans.append((start, -round(e["dur"] * 1000), i))
        spans.sort()
        stack = []  # [end_ns, event index, child ns]
        for start, neg_dur, i in spans:
            e, end = events[i], start - neg_dur
            own = next((f"{label} {e['args'][arg]}"
                        for arg, label in GROUP_ARGS.items()
                        if arg in e.get("args", {})), None)
            if e["name"] in WAIT_SPANS:
                group[i] = own or "other"
                self_ns[e["name"]] = self_ns.get(e["name"], 0) - neg_dur
                continue
            while stack and stack[-1][0] <= start:
                top = stack.pop()
                name = events[top[1]]["name"]
                self_ns[name] = self_ns.get(name, 0) + (
                    top[0] - round(events[top[1]]["ts"] * 1000) - top[2])
            if stack and end <= stack[-1][0]:
                stack[-1][2] += end - start
                group[i] = own or group[stack[-1][1]]
            else:
                group[i] = own or "other"
            stack.append([end, i, 0])
        for top in stack:
            name = events[top[1]]["name"]
            self_ns[name] = self_ns.get(name, 0) + (
                top[0] - round(events[top[1]]["ts"] * 1000) - top[2])
    return self_ns, dur_ns, group


def write_grouped(trace, group, path):
    """Rewrite the Chrome trace with one process per design / request
    / model, so the viewer shows each one's spans together."""
    events = trace["traceEvents"]
    pids = {}
    for i, e in enumerate(events):
        label = group.get(i, "other")
        e["pid"] = pids.setdefault(label, len(pids) + 1)
    for label, pid in pids.items():
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": label}})
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(trace, f)


def per_layer(raw, trace):
    """Span-derived metrics from the trace, merged with the program's
    counts. Records every span's self time in the trace's otherData."""
    self_ns, dur_ns, group = analyze_trace(trace["traceEvents"])
    m = dict(raw["metrics"])
    for metric, span in SELF_TIME.items():
        m[metric] = self_ns.get(span, 0) / 1e9
    for metric, span in TOTAL_TIME.items():
        m[metric] = sum(dur_ns.get(span, [])) / 1e9
    for metric, (span, q) in DURATION_QUANTILE.items():
        m[metric] = quantile(dur_ns.get(span, []), q) / 1e6
    interp_cycles = m.pop("raw.interp_cycles", 0)
    m["backend.interp_cycles_per_s"] = (
        interp_cycles / m["backend.interp_s"] if m["backend.interp_s"] else 0)
    work_s = sum(sum(dur_ns.get(s, [])) for s in
                 ("bench.explore", "serve.request")) / 1e9
    m["dse.model_evals_per_s"] = (
        m.get("dse.model_evals", 0) / work_s if work_s else 0)
    trace.setdefault("otherData", {})["self_time_s"] = {
        name: ns / 1e9 for name, ns in sorted(self_ns.items())}
    return m, group


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the checker self-test")
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    if args.selftest:
        exe = build(build_dir, "lego_bench_selftest")
        sys.exit(subprocess.run([exe]).returncode)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    declared = spec["per_layer" if args.trace else "end_to_end"]

    exe = build(build_dir, "lego_bench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    trace_path = os.path.join(build_dir, "traces",
                              f"{args.workload}-{args.seed}.json")
    if args.trace:
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        cmd += ["--trace-out", trace_path]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        fail(f"{args.workload} exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    raw = json.loads(lines[-1])

    if args.trace:
        with open(trace_path) as f:
            trace = json.load(f)
        metrics, group = per_layer(raw, trace)
        write_grouped(trace, group, trace_path)
        if raw["dropped_events"]:
            fail(f"trace dropped {raw['dropped_events']} events")
    else:
        metrics = dict(raw["metrics"])
        metrics["ok_rate"] = 1 - raw["failed"] / max(1, raw["attempted"])

    active = WORKLOAD_LAYERS[args.workload]
    out = {}
    for d in declared:
        name = d["name"]
        if name not in metrics:
            if not args.trace or layer_of(name) in active:
                fail(f"{args.workload} did not report {name}")
            metrics[name] = 0.0  # The workload does not run this layer.
        out[name] = {"value": metrics.pop(name), "unit": d["unit"]}
    if metrics:
        fail("undeclared metrics: " + ", ".join(sorted(metrics)))
    print(json.dumps({"correct": raw["correct"],
                      "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": out}))


if __name__ == "__main__":
    main()
