#!/usr/bin/env python3
"""Unit tests for the stdlib Python tooling (bench_gate, trace_inspect).

Run directly or via ctest (the `tooling.py_unit` test):

    python3 tools/test_tools.py

The C++ side of these contracts is covered by the test suite; these tests
pin the Python side — gate arithmetic edge cases (a gate that silently
passes is worse than no gate) and rejection of malformed telemetry
artifacts (a validator that accepts garbage hides real corruption).

Stdlib only: the image has no third-party Python packages.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_gate  # noqa: E402
import trace_inspect  # noqa: E402


def write_temp(dirname, name, data):
    path = os.path.join(dirname, name)
    mode = "wb" if isinstance(data, bytes) else "w"
    with open(path, mode) as fh:
        fh.write(data)
    return path


def gbench_json(items):
    return json.dumps({
        "benchmarks": [{"name": k, "items_per_second": v}
                       for k, v in items.items()],
    })


def metrics_json(counters, schema="arbmis.metrics.v2"):
    return json.dumps({"schema": schema, "counters": counters})


class GateThroughputTest(unittest.TestCase):
    def run_gate(self, base, cur, tolerance=0.25,
                 benchmarks=("BM_x",)):
        with tempfile.TemporaryDirectory() as tmp:
            args = argparse.Namespace(
                baseline=write_temp(tmp, "base.json", gbench_json(base)),
                current=write_temp(tmp, "cur.json", gbench_json(cur)),
                benchmarks=list(benchmarks),
                tolerance=tolerance)
            return bench_gate.gate_throughput(args)

    def test_exactly_at_floor_passes(self):
        # The floor is inclusive: cur == base * (1 - tolerance) is OK.
        self.assertEqual(self.run_gate({"BM_x": 1000.0},
                                       {"BM_x": 750.0}), 0)

    def test_just_below_floor_fails(self):
        self.assertEqual(self.run_gate({"BM_x": 1000.0},
                                       {"BM_x": 749.999}), 1)

    def test_improvement_passes(self):
        self.assertEqual(self.run_gate({"BM_x": 1000.0},
                                       {"BM_x": 2500.0}), 0)

    def test_zero_tolerance_requires_no_regression(self):
        self.assertEqual(self.run_gate({"BM_x": 1000.0}, {"BM_x": 1000.0},
                                       tolerance=0.0), 0)
        self.assertEqual(self.run_gate({"BM_x": 1000.0}, {"BM_x": 999.0},
                                       tolerance=0.0), 1)

    def test_missing_benchmark_is_a_failure_not_a_pass(self):
        # A renamed benchmark must not silently disable the gate.
        self.assertEqual(self.run_gate({"BM_x": 1000.0}, {}), 1)
        self.assertEqual(self.run_gate({}, {"BM_x": 1000.0}), 1)

    def test_each_selected_benchmark_gates_independently(self):
        base = {"BM_x": 1000.0, "BM_y": 1000.0}
        cur = {"BM_x": 100.0, "BM_y": 990.0}
        self.assertEqual(self.run_gate(base, cur,
                                       benchmarks=("BM_x", "BM_y")), 1)

    def test_zero_baseline_never_divides(self):
        # base == 0 is degenerate but must not crash or fail spuriously.
        self.assertEqual(self.run_gate({"BM_x": 0.0}, {"BM_x": 0.0}), 0)


class GateMetricsTest(unittest.TestCase):
    def run_gate(self, base, cur, metrics=("sim.messages",),
                 regen_command=None, capture=None):
        with tempfile.TemporaryDirectory() as tmp:
            args = argparse.Namespace(
                metrics_baseline=write_temp(tmp, "base.json",
                                            metrics_json(base)),
                metrics_current=write_temp(tmp, "cur.json",
                                           metrics_json(cur)),
                metrics=list(metrics),
                regen_command=regen_command)
            if capture is None:
                return bench_gate.gate_metrics(args)
            with contextlib.redirect_stdout(capture):
                return bench_gate.gate_metrics(args)

    def test_equal_counters_pass(self):
        self.assertEqual(self.run_gate({"sim.messages": 42},
                                       {"sim.messages": 42}), 0)

    def test_off_by_one_is_drift(self):
        # Deterministic counters are compared exactly — no tolerance.
        self.assertEqual(self.run_gate({"sim.messages": 42},
                                       {"sim.messages": 43}), 1)

    def test_missing_counter_is_a_failure(self):
        self.assertEqual(self.run_gate({}, {"sim.messages": 42}), 1)
        self.assertEqual(self.run_gate({"sim.messages": 42}, {}), 1)

    def test_missing_baseline_counter_names_counter_and_regen(self):
        # A counter absent from the committed baseline usually means the
        # baseline predates it: the error must name the counter and echo
        # the regeneration command so the fix is in the CI log itself.
        out = io.StringIO()
        regen = "./run_benches.sh --serve && git add results/"
        self.assertEqual(
            self.run_gate({}, {"serve.requests": 7},
                          metrics=("serve.requests",),
                          regen_command=regen, capture=out), 1)
        text = out.getvalue()
        self.assertIn("'serve.requests'", text)
        self.assertIn("missing from baseline", text)
        self.assertIn(regen, text)

    def test_missing_baseline_counter_without_regen_has_fallback_hint(self):
        out = io.StringIO()
        self.assertEqual(
            self.run_gate({}, {"serve.requests": 7},
                          metrics=("serve.requests",), capture=out), 1)
        self.assertIn("re-run the workload", out.getvalue())

    def test_unselected_counters_are_ignored(self):
        self.assertEqual(self.run_gate({"sim.messages": 1, "other": 5},
                                       {"sim.messages": 1, "other": 9}), 0)

    def test_wrong_schema_is_rejected(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = write_temp(tmp, "bad.json",
                              metrics_json({}, schema="arbmis.metrics.v1"))
            with self.assertRaises(ValueError):
                bench_gate.load_metrics_counters(path)


class BenchGateMainTest(unittest.TestCase):
    def test_exit_codes(self):
        with tempfile.TemporaryDirectory() as tmp:
            base = write_temp(tmp, "base.json",
                              gbench_json({"BM_x": 1000.0}))
            good = write_temp(tmp, "good.json",
                              gbench_json({"BM_x": 900.0}))
            bad = write_temp(tmp, "bad.json",
                             gbench_json({"BM_x": 100.0}))
            argv = ["--baseline", base, "--benchmark", "BM_x"]
            self.assertEqual(bench_gate.main(argv + ["--current", good]), 0)
            self.assertEqual(bench_gate.main(argv + ["--current", bad]), 1)

    def test_nothing_to_gate_is_an_error(self):
        with self.assertRaises(SystemExit):
            bench_gate.main([])


# The event table test artifacts carry in their headers. It is test data,
# not a copy of src/obs/events.h: the tool decodes whatever table an
# artifact declares.
EVENT_TABLE = [
    {"name": "run_begin", "text": "algorithm", "fields": ["nodes", "edges"]},
    {"name": "round", "text": None, "fields": ["halted", "messages"]},
    {"name": "violation", "text": "what", "fields": []},
]


def header(table=EVENT_TABLE, **manifest):
    doc = {"manifest": {"schema": "arbmis.obs.v2", **manifest}}
    if table is not None:
        doc["events"] = table
    return doc


def manifest_line(table=EVENT_TABLE):
    return json.dumps(header(table, tool="t", seed=1))


class EventsJsonlTest(unittest.TestCase):
    def test_minimal_valid_stream(self):
        text = "\n".join([
            manifest_line(),
            json.dumps({"ev": "run_begin", "round": 0, "nodes": 4,
                        "algorithm": "luby"}),
            json.dumps({"ev": "round", "round": 1, "messages": 8}),
        ])
        manifests, events = trace_inspect.parse_events_jsonl(text)
        self.assertEqual(len(manifests), 1)
        self.assertEqual([e["ev"] for e in events], ["run_begin", "round"])

    def test_missing_manifest_header_is_rejected(self):
        text = json.dumps({"ev": "round", "round": 1})
        with self.assertRaises(trace_inspect.FormatError):
            trace_inspect.parse_events_jsonl(text)

    def test_unknown_kind_is_rejected(self):
        text = "\n".join([manifest_line(),
                          json.dumps({"ev": "nope", "round": 1})])
        with self.assertRaises(trace_inspect.FormatError):
            trace_inspect.parse_events_jsonl(text)

    def test_unexpected_field_is_rejected(self):
        # Schema drift between producer and inspector must be loud.
        text = "\n".join([manifest_line(),
                          json.dumps({"ev": "round", "round": 1,
                                      "bogus": 3})])
        with self.assertRaises(trace_inspect.FormatError):
            trace_inspect.parse_events_jsonl(text)

    def test_non_integer_counter_field_is_rejected(self):
        text = "\n".join([manifest_line(),
                          json.dumps({"ev": "round", "round": 1,
                                      "messages": "8"})])
        with self.assertRaises(trace_inspect.FormatError):
            trace_inspect.parse_events_jsonl(text)

    def test_missing_round_is_rejected(self):
        text = "\n".join([manifest_line(),
                          json.dumps({"ev": "round", "messages": 8})])
        with self.assertRaises(trace_inspect.FormatError):
            trace_inspect.parse_events_jsonl(text)

    def test_header_without_event_table_is_rejected(self):
        text = "\n".join([manifest_line(table=None),
                          json.dumps({"ev": "round", "round": 1})])
        with self.assertRaises(trace_inspect.FormatError):
            trace_inspect.parse_events_jsonl(text)

    def test_v1_header_is_rejected(self):
        line = json.dumps({"manifest": {"schema": "arbmis.obs.v1"}})
        with self.assertRaises(trace_inspect.FormatError):
            trace_inspect.parse_events_jsonl(line)

    def test_kind_the_cpp_lacks_validates_from_the_header(self):
        # The tool keeps no mirror of the C++ table: a kind that exists
        # only in the artifact's header decodes like any other.
        table = EVENT_TABLE + [{"name": "warp_drive", "text": "pilot",
                                "fields": ["parsecs"]}]
        text = "\n".join([manifest_line(table),
                          json.dumps({"ev": "warp_drive", "round": 2,
                                      "parsecs": 12, "pilot": "han"})])
        _, events = trace_inspect.parse_events_jsonl(text)
        self.assertEqual(events[0]["parsecs"], 12)
        with tempfile.TemporaryDirectory() as tmp:
            path = write_temp(tmp, "warp.jsonl", text)
            self.assertEqual(trace_inspect.do_validate(path), 0)


def varint(value):
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def binary_stream(records, table=EVENT_TABLE):
    blob = trace_inspect.BINARY_MAGIC + bytes([trace_inspect.BINARY_VERSION])
    head = json.dumps(header(table)).encode()
    blob += b"\x00" + varint(len(head)) + head
    for rec in records:
        blob += rec
    return blob


def binary_event(kind, round_no, values=(), text=b"", table=EVENT_TABLE):
    kind_byte = [row["name"] for row in table].index(kind)
    rec = b"\x01" + bytes([kind_byte]) + varint(round_no)
    rec += varint(len(values))
    for v in values:
        rec += varint(v)
    rec += varint(len(text)) + text
    return rec


class EventsBinaryTest(unittest.TestCase):
    def test_round_trip(self):
        blob = binary_stream([
            binary_event("round", 3, values=(1, 20)),
            binary_event("violation", 4, text=b"over budget"),
        ])
        manifests, events = trace_inspect.parse_events_binary(blob)
        self.assertEqual(len(manifests), 1)
        self.assertEqual(events[0],
                         {"ev": "round", "round": 3, "halted": 1,
                          "messages": 20})
        self.assertEqual(events[1],
                         {"ev": "violation", "round": 4,
                          "what": "over budget"})

    def test_bad_magic(self):
        with self.assertRaises(trace_inspect.FormatError):
            trace_inspect.parse_events_binary(b"NOTMAGIC\x01")

    def test_unknown_version(self):
        blob = trace_inspect.BINARY_MAGIC + b"\x02"
        with self.assertRaises(trace_inspect.FormatError):
            trace_inspect.parse_events_binary(blob)

    def test_truncated_event_is_rejected(self):
        blob = binary_stream([binary_event("round", 3, values=(1, 20))])
        with self.assertRaises(trace_inspect.FormatError):
            trace_inspect.parse_events_binary(blob[:-1])

    def test_unknown_kind_byte_is_rejected(self):
        bad = b"\x01" + bytes([250]) + varint(0) + varint(0) + varint(0)
        with self.assertRaises(trace_inspect.FormatError):
            trace_inspect.parse_events_binary(binary_stream([bad]))

    def test_kind_byte_just_past_the_table_is_rejected(self):
        bad = (b"\x01" + bytes([len(EVENT_TABLE)]) + varint(0) + varint(0)
               + varint(0))
        with self.assertRaises(trace_inspect.FormatError):
            trace_inspect.parse_events_binary(binary_stream([bad]))

    def test_header_without_event_table_is_rejected(self):
        blob = binary_stream([binary_event("round", 1)], table=None)
        with self.assertRaises(trace_inspect.FormatError):
            trace_inspect.parse_events_binary(blob)

    def test_kind_the_cpp_lacks_decodes_from_the_header(self):
        table = EVENT_TABLE + [{"name": "warp_drive", "text": None,
                                "fields": ["parsecs"]}]
        blob = binary_stream([binary_event("warp_drive", 5, values=(12,),
                                           table=table)], table=table)
        _, events = trace_inspect.parse_events_binary(blob)
        self.assertEqual(events, [{"ev": "warp_drive", "round": 5,
                                   "parsecs": 12}])

    def test_too_many_values_is_rejected(self):
        # "violation" declares zero counter fields.
        bad = binary_event("violation", 1, values=(7,))
        with self.assertRaises(trace_inspect.FormatError):
            trace_inspect.parse_events_binary(binary_stream([bad]))

    def test_text_on_textless_kind_is_rejected(self):
        bad = binary_event("round", 1, text=b"nope")
        with self.assertRaises(trace_inspect.FormatError):
            trace_inspect.parse_events_binary(binary_stream([bad]))

    def test_missing_manifest_is_rejected(self):
        blob = (trace_inspect.BINARY_MAGIC
                + bytes([trace_inspect.BINARY_VERSION])
                + binary_event("round", 1))
        with self.assertRaises(trace_inspect.FormatError):
            trace_inspect.parse_events_binary(blob)


class ChromeTraceTest(unittest.TestCase):
    def test_valid_trace(self):
        doc = {"traceEvents": [{"ph": "X", "name": "round", "ts": 0,
                                "dur": 5, "pid": 1, "tid": 1}]}
        self.assertEqual(len(trace_inspect.parse_chrome_trace(doc)), 1)

    def test_non_complete_span_is_rejected(self):
        doc = {"traceEvents": [{"ph": "B", "name": "round", "ts": 0,
                                "dur": 5, "pid": 1, "tid": 1}]}
        with self.assertRaises(trace_inspect.FormatError):
            trace_inspect.parse_chrome_trace(doc)

    def test_missing_span_key_is_rejected(self):
        doc = {"traceEvents": [{"ph": "X", "name": "round"}]}
        with self.assertRaises(trace_inspect.FormatError):
            trace_inspect.parse_chrome_trace(doc)


class MetricsTest(unittest.TestCase):
    def test_non_integer_counter_is_rejected(self):
        doc = {"schema": "arbmis.metrics.v2",
               "counters": {"sim.messages": 1.5}}
        with self.assertRaises(trace_inspect.FormatError):
            trace_inspect.parse_metrics(doc)

    def test_v1_dump_is_rejected_by_version(self):
        # Version 1 carried a per-round series; it is detected as a
        # metrics dump and refused by name, not misread as events.
        doc = {"schema": "arbmis.metrics.v1", "counters": {}}
        with tempfile.TemporaryDirectory() as tmp:
            path = write_temp(tmp, "m.json", json.dumps(doc))
            with self.assertRaisesRegex(trace_inspect.FormatError,
                                        "arbmis.metrics.v2"):
                trace_inspect.detect_and_parse(path)


class DetectAndDiffTest(unittest.TestCase):
    def test_metrics_with_manifest_key_routes_to_metrics(self):
        # A metrics dump embeds a "manifest" key; detection must not
        # misroute it to the JSONL event parser.
        doc = {"schema": "arbmis.metrics.v2", "counters": {"c": 1},
               "manifest": {"schema": "arbmis.obs.v2"}}
        with tempfile.TemporaryDirectory() as tmp:
            path = write_temp(tmp, "m.json", json.dumps(doc))
            kind, _ = trace_inspect.detect_and_parse(path)
        self.assertEqual(kind, "metrics")

    def test_diff_detects_single_field_drift(self):
        a = "\n".join([manifest_line(),
                       json.dumps({"ev": "round", "round": 1,
                                   "messages": 8})])
        b = a.replace('"messages": 8', '"messages": 9')
        with tempfile.TemporaryDirectory() as tmp:
            pa = write_temp(tmp, "a.jsonl", a)
            pb = write_temp(tmp, "b.jsonl", b)
            self.assertEqual(trace_inspect.do_diff(pa, pa), 0)
            self.assertEqual(trace_inspect.do_diff(pa, pb), 1)

    def test_diff_ignores_manifest_differences(self):
        a = "\n".join([manifest_line(),
                       json.dumps({"ev": "round", "round": 1})])
        b = a.replace('"seed": 1', '"seed": 2')
        self.assertNotEqual(a, b)
        with tempfile.TemporaryDirectory() as tmp:
            pa = write_temp(tmp, "a.jsonl", a)
            pb = write_temp(tmp, "b.jsonl", b)
            self.assertEqual(trace_inspect.do_diff(pa, pb), 0)

    def test_validate_rejects_garbage(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = write_temp(tmp, "junk.bin", b"\xff\xfe not an artifact")
            self.assertEqual(trace_inspect.do_validate(path), 1)


if __name__ == "__main__":
    unittest.main()
