#!/usr/bin/env python3
"""Per-layer summary of a traced benchmark run.

    python3 perfbench/trace_summary.py RUN_DIR

Merges the benchmark's spans (bench_spans.json: one span per public call,
with id, parent and request id in args) and the obs::Profiler's net.*
scopes (profile.json) into one Chrome trace, RUN_DIR/trace.json, which
Perfetto and tools/trace_inspect.py open unchanged. Profiler spans carry no
parent, so each gets the innermost span enclosing it on the same thread.
Prints self time per span name (duration minus direct children) and
returns the per-layer metrics: the driver's measured values plus those
derived from spans, every ratio printed with its base.
"""

import json
import os
import sys

# Every per-layer metric of a traced run, with its unit.
PER_LAYER = {
    "graph.identity_copy_ms": "ms",
    "graph.content_hash_ms": "ms",
    "storage.write_ms": "ms",
    "storage.open_ms": "ms",
    "storage.bytes": "bytes",
    "sim.ctor_ms": "ms",
    "sim.ctor_nocheck_ms": "ms",
    "sim.ctor_small_ms": "ms",
    "sim.run_ms": "ms",
    "sim.round_ms": "ms",
    "sim.checker_share": "ratio",
    "sim.ns_per_message": "ns",
    "sim.messages": "count",
    "sim.payload_bits": "bits",
    "core.arb_mis_ms": "ms",
    "core.outside_sim_ms": "ms",
    "core.shatter_rounds": "count",
    "core.residual_nodes": "count",
    "core.coverage": "ratio",
    "mis.verify_ms": "ms",
    "engine.priorities_ms": "ms",
    "engine.tas_rounds": "count",
    "fault.certify_ms": "ms",
    "fault.resilient_ms": "ms",
    "serve.handle_us.update": "us",
    "serve.handle_us.query": "us",
    "serve.handle_us.compute": "us",
    "serve.handle_us.verify": "us",
    "serve.update_coverage": "ratio",
    "serve.apply_ms": "ms",
    "serve.codec_us": "us",
    "serve.rtt_idle_us": "us",
    "serve.wait_us": "us",
    "serve.cache_hit_ratio": "ratio",
    "serve.incremental_ratio": "ratio",
    "serve.residual_nodes": "count",
    "serve.reply_bytes.update": "bytes",
    "serve.reply_bytes.read": "bytes",
    "obs.recorder_events_per_req": "count",
    "obs.trace_overhead": "ratio",
    "bench.calib_ms": "ms",
}


def load_spans(run_dir):
    """Bench and profiler spans as dicts with integer ns start/end."""
    with open(os.path.join(run_dir, "bench_spans.json")) as fh:
        bench = json.load(fh)["traceEvents"]
    with open(os.path.join(run_dir, "profile.json")) as fh:
        profile = json.load(fh)["traceEvents"]
    spans = []
    for ev in bench:
        spans.append(dict(ev, start=round(ev["ts"] * 1000),
                          end=round((ev["ts"] + ev["dur"]) * 1000)))
    next_id = max((ev["args"]["id"] for ev in bench), default=0) + 1
    for ev in profile:
        spans.append(dict(ev, start=round(ev["ts"] * 1000),
                          end=round((ev["ts"] + ev["dur"]) * 1000),
                          args={"id": next_id, "parent": 0, "request": 0}))
        next_id += 1
    return spans


def assign_parents(spans):
    """Gives profiler spans the innermost enclosing span on their thread."""
    spans.sort(key=lambda s: (s["tid"], s["start"], -s["end"]))
    stack = []
    for span in spans:
        while stack and (stack[-1]["tid"] != span["tid"]
                         or stack[-1]["end"] < span["end"]):
            stack.pop()
        if span["cat"] != "bench" and stack:
            span["args"]["parent"] = stack[-1]["args"]["id"]
            span["args"]["request"] = stack[-1]["args"]["request"]
        stack.append(span)


def self_times(spans):
    """name -> [count, total_ns, self_ns]."""
    child_ns = {}
    for span in spans:
        parent = span["args"]["parent"]
        child_ns[parent] = child_ns.get(parent, 0) + span["end"] - span["start"]
    table = {}
    for span in spans:
        dur = span["end"] - span["start"]
        row = table.setdefault(span["name"], [0, 0, 0])
        row[0] += 1
        row[1] += dur
        row[2] += dur - child_ns.get(span["args"]["id"], 0)
    return table


def descendants(spans, root_id):
    children = {}
    for span in spans:
        children.setdefault(span["args"]["parent"], []).append(span)
    out, todo = [], [root_id]
    while todo:
        for child in children.get(todo.pop(), []):
            out.append(child)
            todo.append(child["args"]["id"])
    return out


def write_trace(run_dir, spans):
    events = [{key: span[key] for key in
               ("name", "cat", "ph", "pid", "tid", "ts", "dur", "args")}
              for span in spans]
    with open(os.path.join(run_dir, "trace.json"), "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def summarize(run_dir, measured, report):
    """Per-layer metrics ({name: {value, unit}}) of one traced run."""
    spans = load_spans(run_dir)
    assign_parents(spans)
    write_trace(run_dir, spans)
    by_id = {span["args"]["id"]: span for span in spans}

    def under(span, name):
        while span["args"]["parent"] in by_id:
            span = by_id[span["args"]["parent"]]
            if span["name"] == name:
                return True
        return False

    probe = [s for s in spans
             if s["name"] == "core.arb_mis" and under(s, "probe.offline")]
    if len(probe) != 1:
        raise RuntimeError("expected one core.arb_mis probe span")
    inner = descendants(spans, probe[0]["args"]["id"])
    run_ns = sum(s["end"] - s["start"] for s in inner if s["name"] == "net.run")
    round_ns = sum(s["end"] - s["start"] for s in inner
                   if s["name"] == "net.round")

    m = dict(measured)
    m["sim.run_ms"] = run_ns / 1e6
    m["sim.round_ms"] = round_ns / 1e6
    m["core.outside_sim_ms"] = m["core.arb_mis_ms"] - m["sim.run_ms"]
    m["sim.ns_per_message"] = run_ns / m["sim.messages"]
    covered_ms = (m["sim.run_ms"] + m["sim.ctor_ms"]
                  + m["graph.identity_copy_ms"])
    m["core.coverage"] = covered_ms / m["core.arb_mis_ms"]
    update_us = 1000 * (m["fault.certify_ms"] + m["serve.apply_ms"]
                        + m["graph.content_hash_ms"])
    m["serve.update_coverage"] = update_us / m["serve.handle_us.update"]
    m["obs.trace_overhead"] = report["obs.trace_overhead"]

    table = self_times(spans)
    print(f"{'span':34s} {'count':>8s} {'total ms':>12s} {'self ms':>12s}")
    for name in sorted(table, key=lambda n: -table[n][2]):
        count, total, self_ns = table[name]
        print(f"{name:34s} {count:8d} {total / 1e6:12.3f} "
              f"{self_ns / 1e6:12.3f}")
    print(f"core.coverage = {covered_ms:.3f} ms (sim.run_ms + sim.ctor_ms + "
          f"graph.identity_copy_ms) / {m['core.arb_mis_ms']:.3f} ms "
          f"core.arb_mis_ms = {m['core.coverage']:.3f}")
    print(f"serve.update_coverage = {update_us:.1f} us (fault.certify_ms + "
          f"serve.apply_ms + graph.content_hash_ms) / "
          f"{m['serve.handle_us.update']:.1f} us serve.handle_us.update = "
          f"{m['serve.update_coverage']:.3f}")
    print(f"sim.checker_share = 1 - {m['base.checker_off_ms']:.1f} ms "
          f"(checker off) / {m['base.checker_on_ms']:.1f} ms (on) = "
          f"{m['sim.checker_share']:.3f}")
    print(f"sim.ns_per_message = {run_ns / 1e6:.1f} ms net.run / "
          f"{m['sim.messages']} messages = {m['sim.ns_per_message']:.2f}")
    print(f"serve.cache_hit_ratio = {m['base.cache_hits']} hits / "
          f"({m['base.cache_hits']} + {m['base.cache_misses']} misses) = "
          f"{m['serve.cache_hit_ratio']:.4f}")
    print(f"serve.incremental_ratio = {m['base.repairs_incremental']} "
          f"incremental repairs / {m['base.updates']} updates = "
          f"{m['serve.incremental_ratio']:.3f}")
    print(f"obs.recorder_events_per_req = {m['base.recorder_events']} events "
          f"/ {m['base.daemon_requests']} requests = "
          f"{m['obs.recorder_events_per_req']:.2f}")
    print(f"serve.wait_us = {m['base.client_update_p50_us']:.1f} us client "
          f"p50 - {m['base.handle_update_p50_us']:.1f} us handle p50 - "
          f"{m['serve.rtt_idle_us']:.1f} us idle rtt = "
          f"{m['serve.wait_us']:.1f}")
    print(f"obs.trace_overhead = traced / untraced mean time of the "
          f"workload's stream = {m['obs.trace_overhead']:.4f}")

    missing = [name for name in PER_LAYER if name not in m]
    if missing:
        raise RuntimeError(f"per-layer metrics missing: {missing}")
    return {name: {"value": m[name], "unit": unit}
            for name, unit in PER_LAYER.items()}


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with open(os.path.join(sys.argv[1], "result.json")) as fh:
        saved = json.load(fh)
    summarize(sys.argv[1], saved["metrics"], saved["report"])
