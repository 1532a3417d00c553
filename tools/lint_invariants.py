#!/usr/bin/env python3
"""Project invariant linter: concurrency and layering rules the compiler
cannot see.

The Clang thread-safety pass (the `tidy` preset) proves lock discipline;
this linter proves the conventions that make that proof meaningful:

  raw-mutex        All locking goes through util/mutex.h (Mutex /
                   MutexLock / CondVar). A raw std::mutex has no
                   CAPABILITY attribute, so anything it guards is
                   invisible to the analysis.
  event-loop-block The epoll event loop in server/tcp_server.cc (the
                   section between its "Event loop" and "Workers"
                   markers) never blocks: no sleeps, no connect(), no
                   file I/O, no stdio. One blocked loop thread stalls
                   every connection.
  clock-seam       "now" comes only from util/clock.h (injectable;
                   tests drive a ManualClock). util/timer.h is the one
                   sanctioned exception: wall-clock *measurement* for
                   benchmarks, never protocol decisions.
  rng-seam         Randomness comes only from util/random.h (seedable
                   Rng; deterministic tests). No rand(), no ad-hoc
                   std::mt19937, no std::random_device.
  protocol-verbs   The verb set parsed by server/protocol.cc equals the
                   set pinned in DESIGN.md's `<!-- protocol-verbs: -->`
                   marker, so the wire grammar documentation cannot
                   drift from the parser.
  metric-names     Every metric family registered in src/ (GetCounter /
                   GetGauge / GetHistogram / RegisterCallbackGauge with
                   a literal name) appears in DESIGN.md's
                   `<!-- metric-names: -->` marker and vice versa, and
                   carries the `islabel_` prefix. Registration sites
                   must use a string literal — a computed name cannot
                   be linted, documented, or grepped for.
  log-events       Every structured event emitted in src/ (an
                   EventLog::Log call with a literal name) appears in
                   DESIGN.md's `<!-- log-events: -->` marker and vice
                   versa, and carries the `islabel.` prefix. Emission
                   sites must use a string literal — a computed event
                   name cannot be linted, documented, or grepped for.
  test-registered  Every tests/test_*.cc is registered in
                   tests/CMakeLists.txt — an unregistered test compiles
                   nowhere and silently stops running.
  stats-seam       QueryStats is named in src/ only by core/query and
                   core/index: it is an output of QueryEngine::Query
                   and of the measured ISLabelIndex::Query overload,
                   never a parameter of the serving interface
                   (DistanceIndex and everything above it), so
                   statistics cannot creep back onto the path a served
                   query takes.
  server-transport The TCP server (server/tcp_server.h and .cc) includes
                   project headers only from server/, obs/ and util/:
                   it is a transport over the RequestDispatcher it is
                   given, so it cannot regain index or catalog
                   knowledge.
  trace-seam       core/ and server/dispatcher.{h,cc} call no Clock's
                   NowMs / NowMicros / NowNanos directly: request-path
                   time is read through obs/trace.h, whose stage
                   boundaries cost one read each. clock-seam already
                   rejects std::chrono reads there. A util/timer.h
                   WallTimer passes both rules, so the per-request
                   clock-read budget is pinned by a test
                   (DispatcherMetrics.StageBoundariesCostOneClockReadEach),
                   not by this rule.
  io-seam          Every byte src/ saves, loads or spills goes through
                   src/storage/ (BlockFile, ReadFile / WriteFile, the
                   record streams): no other src/ file calls fopen,
                   ::open, fread, fwrite, pread or pwrite, or names an
                   fstream. graph/graph_io.cc keeps stdio for its text
                   formats (SNAP and DIMACS files larger than memory are
                   parsed line by line); server/tcp_server.cc keeps its
                   reserve fd on /dev/null.
  catalog-install  SetGeneration( has exactly one call site in src/:
                   every index the catalog serves (Add, AddIndex,
                   Reload, ReloadFrom) is published by one routine,
                   Catalog::Publish, which swaps it in before it bumps
                   the cache generation (DESIGN.md §12.4). A second
                   call site is a second install path.
  one-pool         No class or struct whose name ends in Pool is declared
                   in src/ outside core/engine_pool.h (a forward
                   declaration does not count): every backend leases
                   its per-query scratch from EnginePool<T> (DESIGN.md
                   §13.2), so a second free list, lock and lease type
                   cannot grow back beside it.
  core-install     Nothing in src/ outside core/hierarchy.cc assigns,
                   swaps, clears or resizes a hierarchy's g_k or its
                   landmark table: VertexHierarchy::SetCore installs
                   both together (DESIGN.md §7.2, §7.6), so the table
                   the search's starting bound reads cannot drift from
                   the G_k the search reads.

Usage:
  tools/lint_invariants.py [--root REPO]   lint the repository
  tools/lint_invariants.py --self-test     run against the seeded
                                           violation fixtures in
                                           tools/lint_fixtures/

Exits non-zero on any violation (or any self-test mismatch). Stdlib
only; diagnostics are `path:line: [rule] message`, one per line.
"""

import argparse
import os
import re
import sys

# --- Source walking -------------------------------------------------------

SOURCE_EXTS = (".h", ".cc")


def walk_sources(root, subdir):
    """Yields repo-relative paths of C++ sources under `subdir`, sorted."""
    base = os.path.join(root, subdir)
    out = []
    for dirpath, _dirnames, filenames in os.walk(base):
        for name in filenames:
            if name.endswith(SOURCE_EXTS):
                full = os.path.join(dirpath, name)
                out.append(os.path.relpath(full, root))
    return sorted(out)


def read_lines(root, relpath):
    with open(os.path.join(root, relpath), encoding="utf-8") as f:
        return f.read().splitlines()


def code_lines(lines):
    """Yields (lineno, text) with // and /* */ comment text blanked out.

    Line numbers are 1-based. String literals are NOT stripped — the
    forbidden patterns below do not plausibly appear inside project
    string literals, and keeping strings lets the verb rule reuse this.
    """
    in_block = False
    for i, line in enumerate(lines, start=1):
        out = []
        j = 0
        while j < len(line):
            if in_block:
                end = line.find("*/", j)
                if end < 0:
                    j = len(line)
                else:
                    in_block = False
                    j = end + 2
                continue
            if line.startswith("//", j):
                break
            if line.startswith("/*", j):
                in_block = True
                j += 2
                continue
            out.append(line[j])
            j += 1
        yield i, "".join(out)


def scan_forbidden(root, files, patterns, rule, why):
    """One violation per line matching any of `patterns`."""
    violations = []
    compiled = [(re.compile(p), p) for p in patterns]
    for rel in files:
        for lineno, text in code_lines(read_lines(root, rel)):
            for rx, pat in compiled:
                if rx.search(text):
                    violations.append(
                        (rel, lineno, rule, f"'{pat}' forbidden: {why}"))
                    break
    return violations


# --- Rules ----------------------------------------------------------------

RAW_MUTEX_PATTERNS = [
    r"std::(recursive_|timed_|shared_)?mutex\b",
    r"std::lock_guard\b",
    r"std::unique_lock\b",
    r"std::scoped_lock\b",
    r"std::condition_variable\b",
    r"pthread_mutex",
]
RAW_MUTEX_ALLOWED = {os.path.join("src", "util", "mutex.h")}


def rule_raw_mutex(root):
    files = [f for f in walk_sources(root, "src")
             if f not in RAW_MUTEX_ALLOWED]
    return scan_forbidden(
        root, files, RAW_MUTEX_PATTERNS, "raw-mutex",
        "lock through util/mutex.h so Clang can prove GUARDED_BY")


CLOCK_PATTERNS = [
    r"std::chrono::(steady|system|high_resolution)_clock",
    r"\b(steady|system|high_resolution)_clock::now\b",
]
CLOCK_ALLOWED = {
    os.path.join("src", "util", "clock.h"),
    # Wall-clock measurement for benchmarks/build timing only; protocol
    # decisions must use the injectable util/clock.h seam.
    os.path.join("src", "util", "timer.h"),
}


def rule_clock_seam(root):
    files = [f for f in walk_sources(root, "src") if f not in CLOCK_ALLOWED]
    return scan_forbidden(
        root, files, CLOCK_PATTERNS, "clock-seam",
        "read time through util/clock.h (ManualClock-testable)")


RNG_PATTERNS = [
    r"std::random_device\b",
    r"std::mt19937",
    r"\bs?rand\s*\(",
]
RNG_ALLOWED = {
    os.path.join("src", "util", "random.h"),
    os.path.join("src", "util", "random.cc"),
}


def rule_rng_seam(root):
    files = [f for f in walk_sources(root, "src") if f not in RNG_ALLOWED]
    return scan_forbidden(
        root, files, RNG_PATTERNS, "rng-seam",
        "draw randomness through util/random.h (seedable, deterministic)")


EVENT_LOOP_FILE = os.path.join("src", "server", "tcp_server.cc")
EVENT_LOOP_BEGIN = "---- Event loop"
EVENT_LOOP_END = "---- Workers"
BLOCKING_PATTERNS = [
    r"\bsleep\w*\s*\(",          # sleep / usleep / nanosleep / sleep_for
    r"std::this_thread",
    r"::connect\s*\(",
    r"\bfopen\s*\(",
    r"\b[io]?fstream\b",
    r"\bsystem\s*\(",
    r"\bgetline\s*\(",
    r"\bf?printf\s*\(",
    r"std::c(out|err)\b",
]


def rule_event_loop(root):
    path = os.path.join(root, EVENT_LOOP_FILE)
    if not os.path.exists(path):
        return [(EVENT_LOOP_FILE, 1, "event-loop-block", "file not found")]
    lines = read_lines(root, EVENT_LOOP_FILE)
    begin = end = None
    for i, line in enumerate(lines, start=1):
        if EVENT_LOOP_BEGIN in line and begin is None:
            begin = i
        elif EVENT_LOOP_END in line and begin is not None:
            end = i
            break
    if begin is None or end is None:
        # The markers delimit the audited region; losing them silently
        # disables the rule, so their absence IS the violation.
        return [(EVENT_LOOP_FILE, 1, "event-loop-block",
                 f"section markers '{EVENT_LOOP_BEGIN}' / "
                 f"'{EVENT_LOOP_END}' not found")]
    violations = []
    compiled = [(re.compile(p), p) for p in BLOCKING_PATTERNS]
    section = dict(code_lines(lines))
    for lineno in range(begin, end):
        text = section.get(lineno, "")
        for rx, pat in compiled:
            if rx.search(text):
                violations.append(
                    (EVENT_LOOP_FILE, lineno, "event-loop-block",
                     f"'{pat}' blocks the event loop "
                     "(every connection stalls behind it)"))
                break
    return violations


PROTOCOL_FILE = os.path.join("src", "server", "protocol.cc")
DESIGN_FILE = "DESIGN.md"
VERB_MARKER_RE = re.compile(r"<!--\s*protocol-verbs:\s*([^>]*?)\s*-->")
VERB_PARSE_RE = re.compile(r'head\s*==\s*"([a-z]+)"')


def rule_protocol_verbs(root):
    for rel in (PROTOCOL_FILE, DESIGN_FILE):
        if not os.path.exists(os.path.join(root, rel)):
            return [(rel, 1, "protocol-verbs", "file not found")]
    parsed = set()
    for _lineno, text in code_lines(read_lines(root, PROTOCOL_FILE)):
        parsed.update(VERB_PARSE_RE.findall(text))
    design_text = "\n".join(read_lines(root, DESIGN_FILE))
    marker = VERB_MARKER_RE.search(design_text)
    if marker is None:
        return [(DESIGN_FILE, 1, "protocol-verbs",
                 "missing '<!-- protocol-verbs: ... -->' marker")]
    documented = set(marker.group(1).split())
    marker_line = design_text[:marker.start()].count("\n") + 1
    violations = []
    for verb in sorted(parsed - documented):
        violations.append(
            (PROTOCOL_FILE, 1, "protocol-verbs",
             f"verb '{verb}' parsed but absent from the DESIGN.md marker"))
    for verb in sorted(documented - parsed):
        violations.append(
            (DESIGN_FILE, marker_line, "protocol-verbs",
             f"verb '{verb}' documented but not parsed by protocol.cc"))
    return violations


METRIC_MARKER_RE = re.compile(r"<!--\s*metric-names:\s*([^>]*?)\s*-->", re.S)
# A registration call whose first argument is a string literal. Matched
# against the comment-stripped file joined with newlines, so the literal
# may sit on the line after the open paren.
METRIC_CALL_RE = re.compile(
    r"\b(?:GetCounter|GetGauge|GetHistogram|RegisterCallbackGauge)"
    r'\s*\(\s*"([A-Za-z_][A-Za-z0-9_]*)"')
# A registration call whose first argument is NOT a string literal.
METRIC_NONLITERAL_RE = re.compile(
    r"\b(?:GetCounter|GetGauge|GetHistogram|RegisterCallbackGauge)"
    r'\s*\((?!\s*")')
# The registry API itself declares/defines these methods with
# `std::string name` parameters; that is not a computed-name call site.
METRIC_API_FILES = {
    os.path.join("src", "obs", "metrics.h"),
    os.path.join("src", "obs", "metrics.cc"),
}
METRIC_PREFIX = "islabel_"


def rule_metric_names(root):
    if not os.path.exists(os.path.join(root, DESIGN_FILE)):
        return [(DESIGN_FILE, 1, "metric-names", "file not found")]
    violations = []
    registered = {}  # name -> (file, line) of first registration
    for rel in walk_sources(root, "src"):
        joined = "\n".join(
            text for _lineno, text in code_lines(read_lines(root, rel)))
        for m in METRIC_CALL_RE.finditer(joined):
            lineno = joined.count("\n", 0, m.start()) + 1
            name = m.group(1)
            if not name.startswith(METRIC_PREFIX):
                violations.append(
                    (rel, lineno, "metric-names",
                     f"metric '{name}' lacks the '{METRIC_PREFIX}' prefix"))
            elif name not in registered:
                registered[name] = (rel, lineno)
        if rel in METRIC_API_FILES:
            continue
        for m in METRIC_NONLITERAL_RE.finditer(joined):
            lineno = joined.count("\n", 0, m.start()) + 1
            violations.append(
                (rel, lineno, "metric-names",
                 "metric registered under a computed name — use a string "
                 "literal so it can be documented and grepped"))
    design_text = "\n".join(read_lines(root, DESIGN_FILE))
    marker = METRIC_MARKER_RE.search(design_text)
    if marker is None:
        # Mirrors protocol-verbs: losing the marker would silently
        # disable the rule, so its absence IS the violation.
        violations.append((DESIGN_FILE, 1, "metric-names",
                           "missing '<!-- metric-names: ... -->' marker"))
        return violations
    documented = set(marker.group(1).split())
    marker_line = design_text[:marker.start()].count("\n") + 1
    for name in sorted(set(registered) - documented):
        rel, lineno = registered[name]
        violations.append(
            (rel, lineno, "metric-names",
             f"metric '{name}' registered but absent from the DESIGN.md "
             "marker"))
    for name in sorted(documented - set(registered)):
        violations.append(
            (DESIGN_FILE, marker_line, "metric-names",
             f"metric '{name}' documented but never registered in src/"))
    return violations


LOG_MARKER_RE = re.compile(r"<!--\s*log-events:\s*([^>]*?)\s*-->", re.S)
# An emission whose name argument is a string literal: the EventLevel
# first argument distinguishes EventLog::Log from unrelated Log methods.
# Matched against the comment-stripped file joined with newlines, so the
# literal may sit on the line after the level.
LOG_CALL_RE = re.compile(
    r"\bLog\s*\(\s*(?:obs::)?EventLevel::k\w+\s*,\s*"
    r'"([A-Za-z0-9._]+)"')
# An emission whose name argument is NOT a string literal.
LOG_NONLITERAL_RE = re.compile(
    r"\bLog\s*\(\s*(?:obs::)?EventLevel::k\w+\s*,(?!\s*\")")
# The EventLog API itself declares Log with a `const char* event`
# parameter; that is not a computed-name call site.
LOG_API_FILES = {
    os.path.join("src", "obs", "log.h"),
    os.path.join("src", "obs", "log.cc"),
}
LOG_EVENT_PREFIX = "islabel."


def rule_log_events(root):
    if not os.path.exists(os.path.join(root, DESIGN_FILE)):
        return [(DESIGN_FILE, 1, "log-events", "file not found")]
    violations = []
    emitted = {}  # name -> (file, line) of first emission
    for rel in walk_sources(root, "src"):
        joined = "\n".join(
            text for _lineno, text in code_lines(read_lines(root, rel)))
        for m in LOG_CALL_RE.finditer(joined):
            lineno = joined.count("\n", 0, m.start()) + 1
            name = m.group(1)
            if not name.startswith(LOG_EVENT_PREFIX):
                violations.append(
                    (rel, lineno, "log-events",
                     f"event '{name}' lacks the '{LOG_EVENT_PREFIX}' "
                     "prefix"))
            elif name not in emitted:
                emitted[name] = (rel, lineno)
        if rel in LOG_API_FILES:
            continue
        for m in LOG_NONLITERAL_RE.finditer(joined):
            lineno = joined.count("\n", 0, m.start()) + 1
            violations.append(
                (rel, lineno, "log-events",
                 "event emitted under a computed name — use a string "
                 "literal so it can be documented and grepped"))
    design_text = "\n".join(read_lines(root, DESIGN_FILE))
    marker = LOG_MARKER_RE.search(design_text)
    if marker is None:
        # Mirrors metric-names: losing the marker would silently
        # disable the rule, so its absence IS the violation.
        violations.append((DESIGN_FILE, 1, "log-events",
                           "missing '<!-- log-events: ... -->' marker"))
        return violations
    documented = set(marker.group(1).split())
    marker_line = design_text[:marker.start()].count("\n") + 1
    for name in sorted(set(emitted) - documented):
        rel, lineno = emitted[name]
        violations.append(
            (rel, lineno, "log-events",
             f"event '{name}' emitted but absent from the DESIGN.md "
             "marker"))
    for name in sorted(documented - set(emitted)):
        violations.append(
            (DESIGN_FILE, marker_line, "log-events",
             f"event '{name}' documented but never emitted in src/"))
    return violations


STATS_PATTERNS = [r"\bQueryStats\b"]
STATS_ALLOWED = {
    os.path.join("src", "core", name)
    for name in ("query.h", "query.cc", "index.h", "index.cc")
}


def rule_stats_seam(root):
    files = [f for f in walk_sources(root, "src") if f not in STATS_ALLOWED]
    return scan_forbidden(
        root, files, STATS_PATTERNS, "stats-seam",
        "QueryStats belongs to the engine and the measured "
        "ISLabelIndex::Query overload, not the serving interface")


TRANSPORT_FILES = [os.path.join("src", "server", "tcp_server" + ext)
                   for ext in SOURCE_EXTS]
TRANSPORT_INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')
TRANSPORT_ALLOWED_DIRS = ("server/", "obs/", "util/")


def rule_server_transport(root):
    violations = []
    for rel in TRANSPORT_FILES:
        if not os.path.exists(os.path.join(root, rel)):
            continue
        for lineno, text in code_lines(read_lines(root, rel)):
            m = TRANSPORT_INCLUDE_RE.match(text)
            if m and not m.group(1).startswith(TRANSPORT_ALLOWED_DIRS):
                violations.append(
                    (rel, lineno, "server-transport",
                     f'"{m.group(1)}" included: the TCP server takes '
                     "what it serves from its RequestDispatcher "
                     "(server/, obs/ and util/ headers only)"))
    return violations


# A call through an object or pointer; a definition named NowMs is not.
TRACE_SEAM_PATTERNS = [r"(?:\.|->)\s*Now(?:Ms|Micros|Nanos)\s*\("]
TRACE_SEAM_FILES = [os.path.join("src", "server", "dispatcher" + ext)
                    for ext in SOURCE_EXTS]


def rule_trace_seam(root):
    files = walk_sources(root, os.path.join("src", "core")) + [
        rel for rel in TRACE_SEAM_FILES
        if os.path.exists(os.path.join(root, rel))]
    return scan_forbidden(
        root, files, TRACE_SEAM_PATTERNS, "trace-seam",
        "read request-path time through obs/trace.h (QueryTrace stage "
        "boundaries), not the clock")


IO_SEAM_PATTERNS = [
    r"\bf(?:open|read|write)\s*\(",
    r"::open\s*\(",
    r"\bp(?:read|write)\s*\(",
    r"std::[io]?fstream\b",
]
IO_SEAM_DIR = os.path.join("src", "storage") + os.sep
IO_SEAM_ALLOWED = {
    os.path.join("src", "graph", "graph_io.cc"),
    os.path.join("src", "server", "tcp_server.cc"),
}


def rule_io_seam(root):
    files = [f for f in walk_sources(root, "src")
             if not f.startswith(IO_SEAM_DIR) and f not in IO_SEAM_ALLOWED]
    return scan_forbidden(
        root, files, IO_SEAM_PATTERNS, "io-seam",
        "save, load and spill files through src/storage/ (one read path, "
        "loaders open read-only)")


# A call, not the member's declaration or definition.
INSTALL_CALL_RE = re.compile(r"\bSetGeneration\s*\(")
INSTALL_DEF_RE = re.compile(r"\bvoid\s+SetGeneration\s*\(")


def rule_catalog_install(root):
    calls = []
    for rel in walk_sources(root, "src"):
        for lineno, text in code_lines(read_lines(root, rel)):
            if not INSTALL_DEF_RE.search(text):
                calls.extend((rel, lineno)
                             for _ in INSTALL_CALL_RE.finditer(text))
    if not calls:
        return [(os.path.join("src", "catalog", "catalog.cc"), 1,
                 "catalog-install",
                 "no SetGeneration call: Catalog::Publish must publish "
                 "every install")]
    first = f"{calls[0][0]}:{calls[0][1]}"
    return [(rel, lineno, "catalog-install",
             f"a second install path: SetGeneration is called at {first}; "
             "publish every index through that one routine")
            for rel, lineno in calls[1:]]


# A definition (or its opening line), not a forward declaration.
POOL_DECL_RE = re.compile(r"\b(?:class|struct)\s+(\w*Pool)\b(?!\s*;)")
POOL_HOME = os.path.join("src", "core", "engine_pool.h")


def rule_one_pool(root):
    violations = []
    for rel in walk_sources(root, "src"):
        if rel == POOL_HOME:
            continue
        for lineno, text in code_lines(read_lines(root, rel)):
            for m in POOL_DECL_RE.finditer(text):
                violations.append(
                    (rel, lineno, "one-pool",
                     f"'{m.group(1)}' declared: lease per-query scratch "
                     f"from EnginePool<T> ({POOL_HOME}), the one pool"))
    return violations


# g_k or landmarks written: assigned (not compared), or changed in place.
CORE_WRITE_RE = re.compile(
    r"\b(g_k|landmarks)\s*(?:=(?!=)|\.\s*(?:swap|clear|assign|resize|"
    r"push_back|emplace_back|SortListsByWeight)\s*\()")
CORE_HOME = os.path.join("src", "core", "hierarchy.cc")


def rule_core_install(root):
    violations = []
    for rel in walk_sources(root, "src"):
        if rel == CORE_HOME:
            continue
        for lineno, text in code_lines(read_lines(root, rel)):
            for m in CORE_WRITE_RE.finditer(text):
                violations.append(
                    (rel, lineno, "core-install",
                     f"'{m.group(1)}' written: install G_k and its landmark "
                     f"table through VertexHierarchy::SetCore ({CORE_HOME}), "
                     "which assigns both"))
    return violations


TESTS_CMAKE = os.path.join("tests", "CMakeLists.txt")


def rule_tests_registered(root):
    if not os.path.exists(os.path.join(root, TESTS_CMAKE)):
        return [(TESTS_CMAKE, 1, "test-registered", "file not found")]
    cmake_text = "\n".join(read_lines(root, TESTS_CMAKE))
    violations = []
    tests_dir = os.path.join(root, "tests")
    for name in sorted(os.listdir(tests_dir)):
        if not (name.startswith("test_") and name.endswith(".cc")):
            continue
        stem = name[:-len(".cc")]
        if not re.search(r"\b" + re.escape(stem) + r"\b", cmake_text):
            violations.append(
                (os.path.join("tests", name), 1, "test-registered",
                 f"not registered in {TESTS_CMAKE} — it never runs"))
    return violations


RULES = [
    rule_raw_mutex,
    rule_event_loop,
    rule_clock_seam,
    rule_rng_seam,
    rule_protocol_verbs,
    rule_metric_names,
    rule_log_events,
    rule_tests_registered,
    rule_stats_seam,
    rule_server_transport,
    rule_trace_seam,
    rule_io_seam,
    rule_catalog_install,
    rule_one_pool,
    rule_core_install,
]


def run_rules(root):
    violations = []
    for rule in RULES:
        violations.extend(rule(root))
    return violations


# --- Self-test ------------------------------------------------------------

# rule -> number of violations the seeded fixture tree must produce.
SELF_TEST_EXPECTED = {
    "raw-mutex": 2,
    "event-loop-block": 2,
    "clock-seam": 1,
    "rng-seam": 2,
    "protocol-verbs": 2,   # one undocumented verb + one unparsed verb
    # one undocumented metric + one bad prefix + one computed name +
    # one documented-but-unregistered name
    "metric-names": 4,
    # same four shapes for structured events (src/core/bad_events.cc +
    # the fixture DESIGN.md log-events marker)
    "log-events": 4,
    "test-registered": 1,
    "stats-seam": 1,
    "server-transport": 1,
    "trace-seam": 1,
    "io-seam": 2,
    "catalog-install": 1,
    "one-pool": 1,
    "core-install": 1,
}


def self_test(script_dir):
    fixtures = os.path.join(script_dir, "lint_fixtures")
    if not os.path.isdir(fixtures):
        print(f"self-test: fixture tree {fixtures} missing", file=sys.stderr)
        return 1
    got = {}
    for rel, lineno, rule, msg in run_rules(fixtures):
        got[rule] = got.get(rule, 0) + 1
        print(f"  (expected) {rel}:{lineno}: [{rule}] {msg}")
    failed = False
    for rule, want in sorted(SELF_TEST_EXPECTED.items()):
        have = got.pop(rule, 0)
        if have != want:
            print(f"self-test: rule '{rule}' fired {have}x, expected "
                  f"{want}x — the rule has gone blind or trigger-happy",
                  file=sys.stderr)
            failed = True
    for rule, have in sorted(got.items()):
        print(f"self-test: unexpected rule '{rule}' fired {have}x",
              file=sys.stderr)
        failed = True
    if failed:
        return 1
    print("self-test: all rules fire on their seeded violations")
    return 0


# --- Entry point ----------------------------------------------------------

def main():
    script_dir = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(
        description="Lint project concurrency/layering invariants.")
    parser.add_argument(
        "--root", default=os.path.dirname(script_dir),
        help="repository root (default: parent of this script)")
    parser.add_argument(
        "--self-test", action="store_true",
        help="run the rules against the seeded fixtures and verify "
             "every rule fires")
    args = parser.parse_args()

    if args.self_test:
        return self_test(script_dir)

    violations = run_rules(args.root)
    for rel, lineno, rule, msg in violations:
        print(f"{rel}:{lineno}: [{rule}] {msg}")
    if violations:
        print(f"{len(violations)} invariant violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
