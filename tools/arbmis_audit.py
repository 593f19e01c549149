#!/usr/bin/env python3
"""arbmis-audit: repo-contract static analysis for the arbmis codebase.

The repository's load-bearing invariants — byte-identical determinism
across executor thread counts, CONGEST bit budgets, and the strict layering
that keeps algorithm code talking to the world only through Messages — are
enforced at *runtime* by src/sim/model_check.cpp and the differential test
matrix. This tool enforces the same contracts *structurally*, at lint
time, so a violation costs a red CI job instead of a flaky-golden-pin
bisect. docs/TOOLING.md §9 is the user guide.

Rule groups (``--list-rules`` for the table, ``--explain RULE`` for one):

  DET00x  determinism lints over the semantic modules
          (src/{core,fault,graph,mis,readk,sim}): no std entropy sources,
          no wall clocks, no environment reads, no unordered or
          pointer-keyed containers. util/rng.h is the only sanctioned
          entropy source.
  LAY00x  layering rules: the allowed-include matrix and the
          restricted-header list, both read from tools/layering.toml.
  HYG00x  contract hygiene: NOLINT justification discipline.

Drivers: the TU list comes from ``compile_commands.json`` when one exists
(``--compile-commands``, or <repo>/build/compile_commands.json), unioned
with a directory walk so headers and not-yet-configured trees still scan.
Each file then goes through a tokenizing pass (comments and string
literals separated from code) — no compiler needed, stdlib only.

Intentional exceptions live in tools/audit_baseline.toml; each entry names
the rule, the file, a maximum occurrence count, and a reason. Findings
beyond the baseline fail the run (exit 1). ``--self-test`` checks every
rule against its deliberately-violating fixture under tools/audit_fixtures/
and fails if any rule under- or over-fires there.
"""

import argparse
import json
import os
import re
import sys
import tomllib

SEMANTIC_MODULES = ("core", "engine", "fault", "graph", "mis", "readk",
                    "serve", "sim")
# Nested src/ directories that carry their own layering row. Their files
# report module "graph/storage" (etc.) for LAY rules but still fall under
# the parent's determinism regime: DET scans key on the first component.
SUBMODULES = ("graph/storage",)
HYGIENE_DIRS = ("src", "tests", "bench", "examples")

# ---------------------------------------------------------------------------
# Rule table. Adding a rule means: an entry here, a scanner below, a fixture
# under tools/audit_fixtures/repo/ and its row in SELF_TEST_EXPECTED —
# --self-test fails until all four exist, so the table can't silently rot.
# ---------------------------------------------------------------------------

RULES = {
    "DET001": (
        "banned entropy source in semantic code",
        """Semantic modules must draw randomness exclusively from util/rng.h
(seed-derived xoshiro256** streams, split per node). std::random_device is
hardware entropy (irreproducible by construction); rand()/srand()/drand48
are process-global hidden state; the <random> engines (mt19937,
default_random_engine, ...) have implementation-defined distribution
algorithms, so the same seed produces different bytes on different
standard libraries. Any of these breaks the
reproducible-from-a-printed-seed story the golden determinism pins in
tests/test_determinism.cpp enforce, which is why even including <random>
is flagged. Fix: take a util::Rng (or a seed to derive one) as an
argument."""),
    "DET002": (
        "wall-clock read in semantic code",
        """Simulation semantics must be a pure function of (graph, seed,
options). A wall-clock read (std::chrono::{system,steady,high_resolution}
_clock, time(), clock_gettime, gettimeofday) in a semantic module is
either dead weight or — worse — feeds timing into an algorithm decision,
which no differential test can pin. Wall-clock belongs exclusively to the
profiler (src/obs/profile.h, OBS_SCOPE), which the determinism contract
explicitly excludes from the byte-identity comparisons. Fix: move timing
to obs/, or use logical rounds."""),
    "DET003": (
        "environment read in semantic code",
        """getenv/setenv/system() make behavior depend on invisible process
state: two runs with identical (graph, seed) inputs could diverge because
a shell variable changed. Configuration must flow through explicit
parameter structs (src/core/params.h, sim::NetworkOptions) so every knob
is recorded in run manifests and reproducible from the command line.
Fix: plumb the value through the options struct of the entry point."""),
    "DET004": (
        "unordered container in semantic code",
        """Iteration order of std::unordered_{map,set} is
implementation-defined and changes with load factor, libstdc++ version,
and insertion history. Iterating one in semantic code leaks that order
into message schedules or MIS decisions — the exact bug class behind
flaky golden-pin failures (src/mis/gather_solve.cpp shipped one until
this tool's first run). The rule flags every unordered-container mention
in a semantic TU, not just visible iteration: a container that is
membership-only today is one refactor away from being iterated. Fix: use
a sorted vector + binary search, an index-keyed vector, or std::map.
Genuinely membership-only uses may be baselined with a reason in
tools/audit_baseline.toml."""),
    "DET005": (
        "pointer-keyed ordered container in semantic code",
        """std::map/std::set keyed by a pointer type order their elements by
address. Addresses vary run to run (ASLR, allocator state), so iterating
such a container is nondeterministic even though the container itself is
'ordered'. Fix: key by node id / index, or sort by a value-based
comparator."""),
    "LAY001": (
        "include outside the allowed module matrix",
        """tools/layering.toml defines which src/ modules each module may
include (DESIGN.md §8 draws the graph). The matrix makes the CONGEST
isolation the model checker proves dynamically also structural: mis/
cannot reach obs/ (algorithms observe the world through Messages alone;
the simulator emits telemetry on their behalf), util/ includes nothing
above itself, and so on. A new edge in the graph is a design decision —
make it by editing tools/layering.toml in the same reviewable diff."""),
    "LAY002": (
        "restricted internal header included",
        """Some headers are internals even where their module is an allowed
dependency: sim/thread_pool.h (executor internals — algorithm code must
be oblivious to lanes or the determinism-merge proof breaks),
sim/model_check.h (code that can name the checker can steer around it),
obs/registry.h (counters are recorded only at the simulator's round
barriers, or metrics streams diverge across executors). The allowed
includers and the reasons live in [[restricted]] entries of
tools/layering.toml."""),
    "HYG001": (
        "NOLINT without named check and justification",
        """The .clang-tidy header's review rule, machine-enforced: every
NOLINT/NOLINTNEXTLINE/NOLINTBEGIN must (a) name the specific check being
suppressed — a bare NOLINT or NOLINT(*) silences future, unrelated
findings on the same line forever — and (b) carry a justification after
the check list, e.g. `// NOLINT(cert-err58-cpp): gtest registration
object`. Matching NOLINTEND markers are exempt (the BEGIN carries the
justification)."""),
}

# Identifier sets the DET scanners ban.
ENTROPY_IDENTIFIERS = (
    "random_device", "mt19937", "mt19937_64", "default_random_engine",
    "minstd_rand", "minstd_rand0", "ranlux24", "ranlux48", "knuth_b",
    "drand48", "lrand48", "rand_r",
)
ENTROPY_CALLS = ("rand", "srand")
ENVIRONMENT_IDENTIFIERS = ("getenv", "setenv", "putenv", "unsetenv",
                           "secure_getenv")
ENVIRONMENT_CALLS = ("system",)

CLOCK_IDENTIFIERS = ("system_clock", "steady_clock", "high_resolution_clock",
                     "clock_gettime", "gettimeofday", "timespec_get")
CLOCK_CALLS = ("time", "clock")


class Finding:
    __slots__ = ("rule", "path", "line", "message", "baselined")

    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path  # repo-relative, forward slashes
        self.line = line
        self.message = message
        self.baselined = None  # reason string once matched

    def __repr__(self):
        return f"{self.rule} {self.path}:{self.line}: {self.message}"


# ---------------------------------------------------------------------------
# Tokenizing pass: split every line of a C++ file into (code, comment) with
# string/char literal contents blanked out of the code part. NOLINT
# discipline is checked on the comment parts; every other rule reads only
# code. Raw strings are handled; trigraphs and line-continued comments are
# not (the codebase has neither).
# ---------------------------------------------------------------------------

def lex_cpp(text):
    """Returns (code_lines, comment_lines), same length as text's lines."""
    code, comment = [], []
    cur_code, cur_comment = [], []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    raw_delim = None

    def endline():
        code.append("".join(cur_code))
        comment.append("".join(cur_comment))
        cur_code.clear()
        cur_comment.clear()

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "\n":
            if state == "line_comment":
                state = "code"
            endline()
            i += 1
            continue
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                i += 2
                continue
            if c == '"':
                # Raw string? Identify R"delim( ... )delim"
                if cur_code and cur_code[-1].endswith("R"):
                    m = re.match(r'"([^()\\ ]{0,16})\(', text[i:])
                    if m:
                        raw_delim = ")" + m.group(1) + '"'
                        state = "string"
                        cur_code.append('"')
                        i += 1 + len(m.group(1)) + 1
                        continue
                raw_delim = None
                state = "string"
                cur_code.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                cur_code.append("'")
                i += 1
                continue
            cur_code.append(c)
            i += 1
        elif state == "line_comment":
            cur_comment.append(c)
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                i += 2
            else:
                cur_comment.append(c)
                i += 1
        elif state == "string":
            if raw_delim is not None:
                if text.startswith(raw_delim, i):
                    cur_code.append('"')
                    i += len(raw_delim)
                    state = "code"
                    raw_delim = None
                else:
                    cur_code.append(c)
                    i += 1
            elif c == "\\":
                cur_code.append(text[i:i + 2])
                i += 2
            elif c == '"':
                cur_code.append('"')
                state = "code"
                i += 1
            else:
                cur_code.append(c)
                i += 1
        elif state == "char":
            if c == "\\":
                cur_code.append(text[i:i + 2])
                i += 2
            elif c == "'":
                cur_code.append("'")
                state = "code"
                i += 1
            else:
                cur_code.append(c)
                i += 1
    endline()
    return code, comment


_STRING_BLANK_RE = re.compile(
    r'"(?:\\.|[^"\\])*"|' r"'(?:\\.|[^'\\])*'")


def blank_strings(line):
    """Replaces string/char literal contents with spaces (quotes kept)."""
    return _STRING_BLANK_RE.sub(lambda m: '"' + " " * (len(m.group(0)) - 2)
                                + '"', line)


class SourceFile:
    """One lexed file.

    Three channels per line: `code` (comments stripped, string literals
    intact — used for includes), `scan`
    (additionally blanks literal contents — used for the DET token scans
    so a string mentioning rand() cannot fire), and `comments` (used by
    HYG001).
    """

    def __init__(self, root, relpath):
        self.relpath = relpath.replace(os.sep, "/")
        with open(os.path.join(root, relpath), "r", encoding="utf-8") as fh:
            text = fh.read()
        self.code, self.comments = lex_cpp(text)
        self.scan = [blank_strings(line) for line in self.code]

    @property
    def module(self):
        """Layering module for src/ files: "graph", "sim", ... — or a
        nested submodule like "graph/storage" when that two-component
        prefix has its own row in tools/layering.toml's [modules]."""
        parts = self.relpath.split("/")
        if len(parts) >= 4 and parts[0] == "src" \
                and "/".join(parts[1:3]) in SUBMODULES:
            return "/".join(parts[1:3])
        if len(parts) >= 3 and parts[0] == "src":
            return parts[1]
        return None

    def includes(self):
        """Yields (lineno, 'x/y.h') for every project #include."""
        for lineno, line in enumerate(self.code, 1):
            m = re.match(r'\s*#\s*include\s*"([^"]+)"', line)
            if m:
                yield lineno, m.group(1)


# ---------------------------------------------------------------------------
# Determinism lints (DET001-DET005).
# ---------------------------------------------------------------------------

def _identifier_re(names):
    # Plain word-boundary match: qualified uses (std::mt19937,
    # chrono::steady_clock) must fire no matter the nesting.
    return re.compile(r"\b(" + "|".join(names) + r")\b")


def _call_re(names):
    return re.compile(r"(?<![\w.:>])(?:std\s*::\s*)?(" + "|".join(names)
                      + r")\s*\(")


DET001_IDENT = _identifier_re(ENTROPY_IDENTIFIERS)
DET001_CALL = _call_re(ENTROPY_CALLS)
DET001_INCLUDE = re.compile(r"\s*#\s*include\s*<random>")
DET002_IDENT = _identifier_re(CLOCK_IDENTIFIERS)
DET002_CALL = _call_re(CLOCK_CALLS)
DET003_IDENT = _identifier_re(ENVIRONMENT_IDENTIFIERS)
DET003_CALL = _call_re(ENVIRONMENT_CALLS)
DET004_RE = re.compile(r"\bunordered_(map|set|multimap|multiset)\b")
DET005_RE = re.compile(
    r"(?<![\w:])(?:std\s*::\s*)?(map|set|multimap|multiset)\s*<[^<>;]*\*")


def scan_determinism(sf, findings):
    # Submodules ("graph/storage") inherit the parent's determinism regime.
    if (sf.module or "").split("/")[0] not in SEMANTIC_MODULES:
        return
    for lineno, line in enumerate(sf.scan, 1):
        stripped = line.lstrip()
        is_include = stripped.startswith("#include") or \
            re.match(r"#\s*include", stripped)
        if DET001_INCLUDE.match(line):
            findings.append(Finding(
                "DET001", sf.relpath, lineno,
                "#include <random>: std engines/distributions are "
                "implementation-defined; use util/rng.h"))
            continue
        if is_include:
            continue
        for m in DET001_IDENT.finditer(line):
            findings.append(Finding(
                "DET001", sf.relpath, lineno,
                f"std entropy source '{m.group(1)}'; util/rng.h is the only "
                "sanctioned randomness"))
        for m in DET001_CALL.finditer(line):
            findings.append(Finding(
                "DET001", sf.relpath, lineno,
                f"legacy entropy call '{m.group(1)}()'; util/rng.h is the "
                "only sanctioned randomness"))
        for m in DET002_IDENT.finditer(line):
            findings.append(Finding(
                "DET002", sf.relpath, lineno,
                f"wall-clock '{m.group(1)}' in semantic code; timing "
                "belongs to obs/profile.h"))
        for m in DET002_CALL.finditer(line):
            findings.append(Finding(
                "DET002", sf.relpath, lineno,
                f"wall-clock call '{m.group(1)}()' in semantic code"))
        for m in DET003_IDENT.finditer(line):
            findings.append(Finding(
                "DET003", sf.relpath, lineno,
                f"environment access '{m.group(1)}'; plumb configuration "
                "through params/options structs"))
        for m in DET003_CALL.finditer(line):
            findings.append(Finding(
                "DET003", sf.relpath, lineno,
                f"process-state call '{m.group(1)}()'"))
        for m in DET004_RE.finditer(line):
            findings.append(Finding(
                "DET004", sf.relpath, lineno,
                f"std::{m.group(0)} in semantic code: iteration order is "
                "implementation-defined"))
        for m in DET005_RE.finditer(line):
            findings.append(Finding(
                "DET005", sf.relpath, lineno,
                f"pointer-keyed std::{m.group(1)}: ordered by address, "
                "which varies run to run"))


# ---------------------------------------------------------------------------
# Layering rules (LAY001-LAY002), driven by tools/layering.toml.
# ---------------------------------------------------------------------------

def load_layering(path):
    with open(path, "rb") as fh:
        doc = tomllib.load(fh)
    matrix = {mod: set(deps) for mod, deps in doc.get("modules", {}).items()}
    restricted = {entry["header"]: set(entry["allowed"])
                  for entry in doc.get("restricted", [])}
    return matrix, restricted


def scan_layering(sf, matrix, restricted, findings):
    mod = sf.module
    if mod is None or mod not in matrix:
        return  # tests/bench/examples and unknown dirs are hosts, not layers
    for lineno, inc in sf.includes():
        parts = inc.split("/")
        if len(parts) < 2:
            target = None
        elif len(parts) >= 3 and "/".join(parts[:2]) in matrix:
            # "graph/storage/mapped_graph.h" targets the graph/storage
            # submodule row, not the parent graph module.
            target = "/".join(parts[:2])
        else:
            target = parts[0]
        if inc in restricted and mod not in restricted[inc]:
            findings.append(Finding(
                "LAY002", sf.relpath, lineno,
                f'restricted header "{inc}" (allowed from: '
                f'{", ".join(sorted(restricted[inc]))}) — see '
                "tools/layering.toml"))
            continue
        if target is None or target == mod:
            continue
        if target in matrix and target not in matrix[mod]:
            findings.append(Finding(
                "LAY001", sf.relpath, lineno,
                f'module "{mod}" may not include "{target}/" (allowed: '
                f'{", ".join(sorted(matrix[mod])) or "nothing"}) — see '
                "tools/layering.toml"))


# ---------------------------------------------------------------------------
# NOLINT hygiene (HYG001) over the comment channel of all C++ files.
# ---------------------------------------------------------------------------

NOLINT_RE = re.compile(r"\bNOLINT(NEXTLINE|BEGIN|END)?\b(\([^)]*\))?(.*)")


def scan_nolint(sf, findings):
    for lineno, comment in enumerate(sf.comments, 1):
        for m in NOLINT_RE.finditer(comment):
            marker = "NOLINT" + (m.group(1) or "")
            if m.group(1) == "END":
                continue  # justification lives on the BEGIN marker
            checks = (m.group(2) or "").strip("()").strip()
            if not checks or checks == "*":
                findings.append(Finding(
                    "HYG001", sf.relpath, lineno,
                    f"bare {marker}: name the suppressed check, e.g. "
                    f"{marker}(bugprone-...)"))
                continue
            tail = m.group(3).strip()
            if not (tail.startswith(":") and len(tail.lstrip(":").strip())
                    >= 8):
                findings.append(Finding(
                    "HYG001", sf.relpath, lineno,
                    f"{marker}({checks}) lacks a justification — append "
                    "': <why this suppression is sound>'"))


# ---------------------------------------------------------------------------
# Baseline (intentional, documented exceptions).
# ---------------------------------------------------------------------------

def load_baseline(path):
    if path is None or not os.path.exists(path):
        return []
    with open(path, "rb") as fh:
        doc = tomllib.load(fh)
    entries = []
    for entry in doc.get("suppress", []):
        entries.append({
            "rule": entry["rule"],
            "file": entry["file"],
            "max": int(entry.get("max", 1)),
            "reason": entry.get("reason", "").strip(),
            "used": 0,
        })
    return entries


def apply_baseline(findings, baseline):
    for finding in findings:
        for entry in baseline:
            if (entry["rule"] == finding.rule
                    and entry["file"] == finding.path
                    and entry["used"] < entry["max"]):
                entry["used"] += 1
                finding.baselined = entry["reason"]
                break


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------

def discover_files(root, compile_commands):
    """Returns sorted repo-relative paths of files to scan."""
    paths = set()
    for top in HYGIENE_DIRS:
        base = os.path.join(root, top)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".h")):
                    paths.add(os.path.relpath(os.path.join(dirpath, name),
                                              root))
    n_tus = 0
    if compile_commands and os.path.exists(compile_commands):
        with open(compile_commands, "r", encoding="utf-8") as fh:
            for entry in json.load(fh):
                f = os.path.normpath(os.path.join(entry.get("directory", ""),
                                                  entry["file"]))
                rel = os.path.relpath(f, root)
                if not rel.startswith("..") and rel.split(os.sep)[0] in \
                        HYGIENE_DIRS:
                    paths.add(rel)
                    n_tus += 1
    return sorted(paths), n_tus


def run_audit(root, layering_path, baseline_path, compile_commands):
    """Returns (findings, files_scanned, n_tus)."""
    matrix, restricted = load_layering(layering_path)
    relpaths, n_tus = discover_files(root, compile_commands)
    findings = []
    scanned = 0
    for rel in relpaths:
        try:
            sf = SourceFile(root, rel)
        except (OSError, UnicodeDecodeError) as err:
            findings.append(Finding("HYG001", rel.replace(os.sep, "/"), 1,
                                    f"unreadable source file: {err}"))
            continue
        scanned += 1
        scan_determinism(sf, findings)
        scan_layering(sf, matrix, restricted, findings)
        scan_nolint(sf, findings)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    baseline = load_baseline(baseline_path)
    apply_baseline(findings, baseline)
    for entry in baseline:
        if entry["used"] == 0:
            print(f"note: unused baseline entry {entry['rule']} "
                  f"{entry['file']} (stale suppression — consider removing)")
    return findings, scanned, n_tus


# ---------------------------------------------------------------------------
# Self-test: every rule must fire exactly on its fixture.
# ---------------------------------------------------------------------------

SELF_TEST_EXPECTED = {
    "DET001": {"src/mis/det001_entropy.cpp": 4,
               "src/graph/storage/det001_storage.cpp": 2,
               "src/engine/det001_engine.cpp": 2},
    "DET002": {"src/mis/det002_wallclock.cpp": 2,
               "src/serve/det002_serve.cpp": 1},
    "DET003": {"src/mis/det003_environment.cpp": 2},
    "DET004": {"src/mis/det004_unordered.cpp": 1},
    "DET005": {"src/mis/det005_pointer_keyed.cpp": 2},
    "LAY001": {"src/mis/lay001_matrix.cpp": 1,
               "src/mis/lay001_serve_client.cpp": 1,
               "src/serve/lay001_serve.cpp": 2,
               "src/sim/lay001_storage.cpp": 1,
               "src/engine/lay001_engine.cpp": 1},
    "LAY002": {"src/core/lay002_restricted.cpp": 1},
    "HYG001": {"src/mis/hyg001_nolint.cpp": 2},
}


def self_test(tool_root, layering_path):
    fixtures = os.path.join(tool_root, "audit_fixtures", "repo")
    if not os.path.isdir(fixtures):
        print(f"SELF-TEST ERROR: fixture repo missing at {fixtures}")
        return 1
    findings, _, _ = run_audit(fixtures, layering_path, None, None)
    got = {}
    for f in findings:
        got.setdefault(f.rule, {}).setdefault(f.path, 0)
        got[f.rule][f.path] += 1
    failures = 0
    for rule in sorted(RULES):
        expected = SELF_TEST_EXPECTED.get(rule)
        if expected is None:
            print(f"SELF-TEST FAIL: rule {rule} has no fixture expectation "
                  "(add one to SELF_TEST_EXPECTED and a fixture TU)")
            failures += 1
            continue
        actual = got.pop(rule, {})
        if actual != expected:
            print(f"SELF-TEST FAIL: {rule}: expected {expected}, "
                  f"got {actual}")
            failures += 1
        else:
            total = sum(expected.values())
            print(f"SELF-TEST OK: {rule} fired {total}x on "
                  f"{len(expected)} fixture file(s)")
    for rule, actual in sorted(got.items()):
        print(f"SELF-TEST FAIL: unexpected findings for {rule}: {actual}")
        failures += 1
    # The clean fixture must stay clean: no rule above may have attributed
    # a finding to it, and it must exist (guards against a walk that scans
    # nothing and vacuously passes).
    clean = os.path.join(fixtures, "src", "mis", "clean.cpp")
    if not os.path.exists(clean):
        print("SELF-TEST FAIL: clean fixture src/mis/clean.cpp missing")
        failures += 1
    for f in findings:
        if f.path.endswith("clean.cpp"):
            print(f"SELF-TEST FAIL: clean fixture flagged: {f}")
            failures += 1
    if failures == 0:
        print(f"SELF-TEST PASSED: {len(RULES)} rules, "
              f"{len(findings)} expected findings")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# CLI.
# ---------------------------------------------------------------------------

def main(argv):
    parser = argparse.ArgumentParser(
        prog="arbmis_audit.py",
        description=__doc__.splitlines()[0])
    parser.add_argument("--repo", default=None,
                        help="repository root (default: the tool's parent)")
    parser.add_argument("--compile-commands", default=None,
                        help="compile_commands.json to drive the TU list "
                             "(default: <repo>/build/compile_commands.json "
                             "when present)")
    parser.add_argument("--layering", default=None,
                        help="layering matrix (default: tools/layering.toml)")
    parser.add_argument("--baseline", default=None,
                        help="suppression file (default: "
                             "tools/audit_baseline.toml)")
    parser.add_argument("--explain", metavar="RULE",
                        help="print the documentation of one rule and exit")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    parser.add_argument("--self-test", action="store_true",
                        help="check every rule against its fixture under "
                             "tools/audit_fixtures/ and exit")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as a JSON array on stdout")
    args = parser.parse_args(argv)

    tool_root = os.path.dirname(os.path.abspath(__file__))
    root = os.path.abspath(args.repo or os.path.dirname(tool_root))
    layering = args.layering or os.path.join(tool_root, "layering.toml")

    if args.list_rules:
        for rule in sorted(RULES):
            print(f"{rule}  {RULES[rule][0]}")
        return 0
    if args.explain:
        rule = args.explain.upper()
        if rule not in RULES:
            print(f"unknown rule {args.explain!r}; --list-rules for the "
                  "table")
            return 2
        title, body = RULES[rule]
        print(f"{rule}: {title}\n")
        print(body)
        return 0
    if args.self_test:
        return self_test(tool_root, layering)

    baseline = args.baseline or os.path.join(tool_root, "audit_baseline.toml")
    compile_commands = args.compile_commands or os.path.join(
        root, "build", "compile_commands.json")
    findings, n_files, n_tus = run_audit(root, layering, baseline,
                                         compile_commands)
    live = [f for f in findings if f.baselined is None]
    suppressed = [f for f in findings if f.baselined is not None]
    if args.json:
        print(json.dumps([{
            "rule": f.rule, "file": f.path, "line": f.line,
            "message": f.message, "baselined": f.baselined,
        } for f in findings], indent=2))
    else:
        for f in live:
            print(f"{f.rule} {f.path}:{f.line}: {f.message}")
        for f in suppressed:
            print(f"baselined {f.rule} {f.path}:{f.line} ({f.baselined})")
    driver = (f"{n_tus} TUs from compile_commands.json + walk"
              if n_tus else "directory walk (no compile_commands.json)")
    print(f"arbmis-audit: {n_files} files scanned ({driver}); "
          f"{len(live)} finding(s), {len(suppressed)} baselined",
          file=sys.stderr if args.json else sys.stdout)
    return 1 if live else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
