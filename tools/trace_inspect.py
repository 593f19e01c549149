#!/usr/bin/env python3
"""Inspect, validate, and diff arbmis telemetry artifacts.

Handles every artifact the telemetry subsystem (src/obs, documented in
docs/OBSERVABILITY.md) writes, auto-detected by content:

  * event streams, JSONL   — header line {"manifest":{...},"events":[...]},
                             then events
  * event streams, binary  — magic "ARBMISEV" + version 0x01, header
                             record, then events
  * Chrome traces          — {"traceEvents":[...]} from --trace=
  * metrics dumps          — {"schema":"arbmis.metrics.v2"} from --metrics=

Usage:

    python3 tools/trace_inspect.py --validate out.jsonl
    python3 tools/trace_inspect.py --summary  out.bin
    python3 tools/trace_inspect.py --diff a.jsonl b.jsonl

--validate exits 0 iff the artifact is well-formed against the event
table its own header carries (written from ARBMIS_OBS_EVENT_TABLE in
src/obs/events.h), so this tool keeps no copy of the schema.
--diff compares two event streams for semantic equality: manifests are
excluded (they legitimately differ in threads/git_sha), event
records must match exactly and in order — the offline version of the
byte-identity the differential harness enforces in-process.

Stdlib only: the image has no third-party Python packages.
"""

import argparse
import json
import sys

SCHEMA_VERSION = "arbmis.obs.v2"
METRICS_SCHEMA_VERSION = "arbmis.metrics.v2"
BINARY_MAGIC = b"ARBMISEV"
BINARY_VERSION = 1


class FormatError(Exception):
    pass


def check_header(obj, where):
    """Validates an artifact header {"manifest":{...},"events":[...]}.

    Returns (manifest, kinds): kinds is the header's event table in
    kind-byte order, as (name, fields, text_field) triples.
    """
    manifest = obj.get("manifest")
    if not isinstance(manifest, dict):
        raise FormatError(f"{where}: 'manifest' is not an object")
    if manifest.get("schema") != SCHEMA_VERSION:
        raise FormatError(f"{where}: schema {manifest.get('schema')!r}, "
                          f"expected {SCHEMA_VERSION!r}")
    table = obj.get("events")
    if not isinstance(table, list):
        raise FormatError(f"{where}: header carries no 'events' table")
    kinds = [(row.get("name"), row.get("fields"), row.get("text"))
             if isinstance(row, dict) else (None, None, None)
             for row in table]
    for i, (name, fields, text) in enumerate(kinds):
        if not (isinstance(name, str) and isinstance(fields, list)
                and all(isinstance(f, str) for f in fields)
                and (text is None or isinstance(text, str))):
            raise FormatError(f"{where}: malformed events[{i}]")
    return manifest, kinds


def check_event(obj, where, schemas):
    """Validates one decoded JSONL event object; `schemas` maps each kind
    of the header table to its (fields, text_field)."""
    kind = obj.get("ev")
    if kind not in schemas:
        raise FormatError(f"{where}: unknown event kind {kind!r}")
    fields, text_field = schemas[kind]
    if not isinstance(obj.get("round"), int):
        raise FormatError(f"{where}: missing/non-integer 'round'")
    allowed = {"ev", "round"} | set(fields)
    if text_field is not None:
        allowed.add(text_field)
    for key, value in obj.items():
        if key not in allowed:
            raise FormatError(f"{where}: unexpected field {key!r} on "
                              f"{kind!r}")
        if key in fields and not isinstance(value, int):
            raise FormatError(f"{where}: field {key!r} is not an integer")
        if key == text_field and not isinstance(value, str):
            raise FormatError(f"{where}: text field {key!r} is not a string")


# ---------------------------------------------------------------------------
# Per-format parsers. Each returns (kind, summary_dict) where kind names
# the artifact type; events formats also return the decoded stream.
# ---------------------------------------------------------------------------

def parse_events_jsonl(text):
    """Returns (manifests, events) or raises FormatError."""
    manifests, events, schemas = [], [], None
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty file")
    for i, line in enumerate(lines):
        where = f"line {i + 1}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as err:
            raise FormatError(f"{where}: not JSON: {err}") from err
        if "manifest" in obj:
            manifest, kinds = check_header(obj, where)
            manifests.append(manifest)
            schemas = {name: (fields, text) for name, fields, text in kinds}
        elif "ev" in obj:
            if schemas is None:
                raise FormatError("first line is not the header")
            check_event(obj, where, schemas)
            events.append(obj)
        else:
            raise FormatError(f"{where}: neither a header nor an event")
    return manifests, events


def read_varint(buf, pos):
    value, shift = 0, 0
    while True:
        if pos >= len(buf):
            raise FormatError(f"offset {pos}: truncated varint")
        byte = buf[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7


def parse_events_binary(buf):
    """Decodes the binary stream into (manifests, events)."""
    if buf[: len(BINARY_MAGIC)] != BINARY_MAGIC:
        raise FormatError("bad magic")
    if len(buf) < len(BINARY_MAGIC) + 1:
        raise FormatError("truncated header")
    version = buf[len(BINARY_MAGIC)]
    if version != BINARY_VERSION:
        raise FormatError(f"unknown binary version {version}")
    pos = len(BINARY_MAGIC) + 1
    manifests, events, kinds = [], [], None
    while pos < len(buf):
        where = f"offset {pos}"
        record_type = buf[pos]
        pos += 1
        if record_type == 0x00:
            length, pos = read_varint(buf, pos)
            blob = buf[pos:pos + length]
            if len(blob) != length:
                raise FormatError(f"{where}: truncated header")
            pos += length
            try:
                obj = json.loads(blob.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError) as err:
                raise FormatError(f"{where}: bad header JSON: {err}") \
                    from err
            manifest, kinds = check_header(obj, where)
            manifests.append(manifest)
        elif record_type == 0x01:
            if kinds is None:
                raise FormatError(f"{where}: event before the header")
            if pos >= len(buf):
                raise FormatError(f"{where}: truncated event")
            kind_byte = buf[pos]
            pos += 1
            if kind_byte >= len(kinds):
                raise FormatError(f"{where}: unknown kind byte {kind_byte}")
            kind, fields, text_field = kinds[kind_byte]
            round_no, pos = read_varint(buf, pos)
            num_values, pos = read_varint(buf, pos)
            if num_values > len(fields):
                raise FormatError(f"{where}: {kind}: {num_values} values, "
                                  f"schema has {len(fields)}")
            event = {"ev": kind, "round": round_no}
            for i in range(num_values):
                event[fields[i]], pos = read_varint(buf, pos)
            text_len, pos = read_varint(buf, pos)
            blob = buf[pos:pos + text_len]
            if len(blob) != text_len:
                raise FormatError(f"{where}: truncated text")
            pos += text_len
            if text_field is not None:
                event[text_field] = blob.decode("utf-8", "replace")
            elif text_len:
                raise FormatError(f"{where}: {kind}: unexpected text")
            events.append(event)
        else:
            raise FormatError(f"{where}: unknown record type {record_type}")
    if not manifests:
        raise FormatError("no header record")
    return manifests, events


def parse_chrome_trace(doc):
    spans = doc.get("traceEvents")
    if not isinstance(spans, list):
        raise FormatError("'traceEvents' is not a list")
    for i, span in enumerate(spans):
        where = f"traceEvents[{i}]"
        if span.get("ph") != "X":
            raise FormatError(f"{where}: ph {span.get('ph')!r} != 'X'")
        for key in ("name", "ts", "dur", "pid", "tid"):
            if key not in span:
                raise FormatError(f"{where}: missing {key!r}")
    other = doc.get("otherData")
    if other is not None and other.get("schema") not in (None,
                                                         SCHEMA_VERSION):
        raise FormatError(f"otherData schema {other.get('schema')!r}")
    return spans


def parse_metrics(doc):
    if doc.get("schema") != METRICS_SCHEMA_VERSION:
        raise FormatError(f"schema {doc.get('schema')!r}, expected "
                          f"{METRICS_SCHEMA_VERSION!r}")
    counters = doc.get("counters", {})
    if not all(isinstance(v, int) for v in counters.values()):
        raise FormatError("non-integer counter value")
    return doc


def is_metrics(doc):
    """True for any arbmis.metrics.* dump; parse_metrics then checks the
    version, so a retired one fails by name."""
    return str(doc.get("schema", "")).startswith("arbmis.metrics.")


def detect_and_parse(path):
    """Returns (kind, payload): kind in {events, trace, metrics}."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[: len(BINARY_MAGIC)] == BINARY_MAGIC:
        return "events", parse_events_binary(raw)
    text = raw.decode("utf-8")
    stripped = text.lstrip()
    if not stripped:
        raise FormatError("empty file")
    first_line = stripped.splitlines()[0]
    try:
        head = json.loads(first_line)
    except json.JSONDecodeError:
        head = None
    # Order matters: a metrics dump also embeds a "manifest" key, so the
    # single-document formats are ruled out before the JSONL event format
    # (whose header line is {"manifest":{...},"events":[...]}).
    if isinstance(head, dict):
        if is_metrics(head):
            return "metrics", parse_metrics(json.loads(text))
        if "traceEvents" in head:
            return "trace", parse_chrome_trace(json.loads(text))
        if "ev" in head or "manifest" in head:
            return "events", parse_events_jsonl(text)
    doc = json.loads(text)
    if "traceEvents" in doc:
        return "trace", parse_chrome_trace(doc)
    if is_metrics(doc):
        return "metrics", parse_metrics(doc)
    raise FormatError("unrecognized artifact (not events/trace/metrics)")


# ---------------------------------------------------------------------------
# Modes.
# ---------------------------------------------------------------------------

def do_validate(path):
    try:
        kind, _ = detect_and_parse(path)
    except (FormatError, OSError, UnicodeDecodeError,
            json.JSONDecodeError) as err:
        print(f"INVALID {path}: {err}")
        return 1
    print(f"OK {path}: valid {kind} artifact")
    return 0


def do_summary(path):
    kind, payload = detect_and_parse(path)
    if kind == "events":
        manifests, events = payload
        manifest = manifests[-1]
        print(f"{path}: event stream ({len(events)} events)")
        print(f"  tool={manifest.get('tool')!r} "
              f"workload={manifest.get('workload')!r} "
              f"seed={manifest.get('seed')} "
              f"threads={manifest.get('threads')}")
        by_kind = {}
        for event in events:
            by_kind[event["ev"]] = by_kind.get(event["ev"], 0) + 1
        for name in sorted(by_kind):
            print(f"  {name:16s} {by_kind[name]}")
        rounds = [e for e in events if e["ev"] == "round"]
        if rounds:
            messages = sum(e.get("messages", 0) for e in rounds)
            print(f"  rounds observed: {len(rounds)}, "
                  f"messages: {messages}")
        for dump in (e for e in events if e["ev"] == "recorder_dump"):
            print(f"  recorder dump: reason={dump.get('reason')!r} "
                  f"buffered={dump.get('buffered_events', 0)} events / "
                  f"{dump.get('buffered_bytes', 0)} bytes, "
                  f"evicted={dump.get('evicted_events', 0)} events / "
                  f"{dump.get('evicted_bytes', 0)} bytes")
    elif kind == "trace":
        spans = payload
        by_name = {}
        for span in spans:
            entry = by_name.setdefault(span["name"], [0, 0.0])
            entry[0] += 1
            entry[1] += float(span["dur"])
        print(f"{path}: Chrome trace ({len(spans)} spans)")
        for name in sorted(by_name):
            count, total = by_name[name]
            print(f"  {name:16s} x{count}  total {total / 1000.0:.3f} ms")
    else:
        doc = payload
        counters = doc.get("counters", {})
        print(f"{path}: metrics dump ({len(counters)} counters)")
        for name in sorted(counters):
            print(f"  {name:24s} {counters[name]}")
    return 0


def collect_spans(events):
    """Builds the span forest from span_begin/span_end markers.

    Returns (roots, orphans): roots are spans with parent == 0, each a dict
    with nested children; facts emitted while a span is open (run_end
    rounds/messages, repair outcomes) are attributed to the innermost open
    span. orphans counts span_end markers with no matching span_begin.
    """
    stack, roots, orphans = [], [], 0
    for index, event in enumerate(events):
        kind = event["ev"]
        if kind == "span_begin":
            span = {"span": event.get("span", 0),
                    "parent": event.get("parent", 0),
                    "name": event.get("name", ""),
                    "ref": event.get("ref", 0),
                    "begin": index, "end": None, "events": 0,
                    "rounds": 0, "messages": 0, "repairs": 0,
                    "certified": 0, "children": []}
            if stack:
                stack[-1]["children"].append(span)
            else:
                roots.append(span)
            stack.append(span)
            continue
        if kind == "span_end":
            span_id = event.get("span", 0)
            if stack and stack[-1]["span"] == span_id:
                span = stack.pop()
                span["end"] = index
                span["events"] = index - span["begin"] - 1
            else:
                orphans += 1
            continue
        if not stack:
            continue
        span = stack[-1]
        if kind == "run_end":
            span["rounds"] += event.get("rounds", 0)
            span["messages"] += event.get("messages", 0)
        elif kind == "repair_certified":
            span["repairs"] += 1
            span["certified"] += event.get("certified", 0)
    return roots, orphans


def aggregate_span(span):
    """Sums rounds/messages/repairs over a span and its descendants."""
    rounds, messages, repairs = (span["rounds"], span["messages"],
                                 span["repairs"])
    for child in span["children"]:
        c_rounds, c_messages, c_repairs = aggregate_span(child)
        rounds += c_rounds
        messages += c_messages
        repairs += c_repairs
    return rounds, messages, repairs


def print_span(span, depth):
    rounds, messages, repairs = aggregate_span(span)
    indent = "  " * (depth + 1)
    state = "open" if span["end"] is None else f"{span['events']} events"
    print(f"{indent}span {span['span']} {span['name']!r} ref={span['ref']} "
          f"[{state}] rounds={rounds} messages={messages} "
          f"repairs={repairs}")
    for child in span["children"]:
        print_span(child, depth + 1)


def do_spans(path):
    events = event_stream_of(path)
    roots, orphans = collect_spans(events)
    print(f"{path}: {len(roots)} request spans")
    by_op = {}
    for span in roots:
        print_span(span, 0)
        rounds, messages, repairs = aggregate_span(span)
        entry = by_op.setdefault(span["name"], [0, 0, 0, 0])
        entry[0] += 1
        entry[1] += rounds
        entry[2] += messages
        entry[3] += repairs
    if by_op:
        print("  per-op totals:")
        for name in sorted(by_op):
            count, rounds, messages, repairs = by_op[name]
            print(f"    {name:16s} x{count}  rounds={rounds} "
                  f"messages={messages} repairs={repairs}")
    if orphans:
        print(f"  WARNING: {orphans} span_end markers without a matching "
              "span_begin")
    return 0


def event_stream_of(path):
    kind, payload = detect_and_parse(path)
    if kind != "events":
        raise FormatError(f"{path} is a {kind} artifact, not an event "
                          "stream")
    return payload[1]


def do_diff(path_a, path_b):
    events_a = event_stream_of(path_a)
    events_b = event_stream_of(path_b)
    limit = min(len(events_a), len(events_b))
    for i in range(limit):
        if events_a[i] != events_b[i]:
            print(f"DIFF at event {i}:")
            print(f"  {path_a}: {json.dumps(events_a[i], sort_keys=True)}")
            print(f"  {path_b}: {json.dumps(events_b[i], sort_keys=True)}")
            return 1
    if len(events_a) != len(events_b):
        print(f"DIFF: {path_a} has {len(events_a)} events, {path_b} has "
              f"{len(events_b)}")
        return 1
    print(f"IDENTICAL: {len(events_a)} events (manifests excluded)")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--validate", action="store_true",
                      help="check well-formedness; exit 1 when invalid")
    mode.add_argument("--summary", action="store_true",
                      help="print per-kind counts / span totals / counters")
    mode.add_argument("--diff", action="store_true",
                      help="compare two event streams (manifests excluded)")
    mode.add_argument("--spans", action="store_true",
                      help="per-request span breakdown of an event stream")
    parser.add_argument("paths", nargs="+", metavar="FILE")
    args = parser.parse_args(argv)

    if args.diff:
        if len(args.paths) != 2:
            parser.error("--diff takes exactly two files")
        try:
            return do_diff(args.paths[0], args.paths[1])
        except (FormatError, OSError) as err:
            print(f"ERROR: {err}")
            return 1
    status = 0
    for path in args.paths:
        if args.validate:
            status |= do_validate(path)
        else:
            try:
                if args.spans:
                    status |= do_spans(path)
                else:
                    do_summary(path)
            except (FormatError, OSError) as err:
                print(f"ERROR {path}: {err}")
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
