"""Pure logic of the perfbench harness: statistics, output checks, span
aggregation and the attribution table. `run.py` does the process work;
everything here is a function of its arguments, so `test_harness.py` can
pin it down without building anything."""

import hashlib
import math
import re
import statistics
from collections import defaultdict

# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def tail_percentile(values):
    """The highest percentile of TAIL_CANDIDATES with at least
    TAIL_MIN_BEYOND samples beyond it, as `(percentile, value)` by nearest
    rank; None when even the median has fewer samples beyond it."""
    s = sorted(values)
    n = len(s)
    for p in TAIL_CANDIDATES:
        rank = math.ceil(round(p * n / 100, 9))
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            return p, s[rank - 1]
    return None


def mean_of_medians(groups):
    """The mean over groups of each group's median: one population's
    typical invocation, averaged over the populations of a run."""
    medians = [statistics.median(g) for g in groups]
    return sum(medians) / len(medians)


def digest(data):
    """`sim_digest`: a short hash of a workload's stdout bytes."""
    return hashlib.sha256(data).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Output checks: each returns a list of failure messages, one per failed
# operation it can name (a failed point, a violation, a FAIL claim).
# ---------------------------------------------------------------------------

EXPECTED_CLAIMS = 15
RUN_REPORT = re.compile(
    r"run report: (\d+) points — (\d+) completed \((\d+) retried\), (\d+) from journal, "
    r"(\d+) failed, (\d+) panicked, (\d+) timed out"
)


def check_exit(name, returncode, timed_out=False):
    if timed_out:
        return [f"{name}: timed out"]
    if returncode != 0:
        return [f"{name}: exit code {returncode}"]
    return []


def check_run_report(name, stderr, points):
    """The supervised sweep's report: every point completed, none failed,
    panicked or timed out."""
    m = RUN_REPORT.search(stderr)
    if not m:
        return [f"{name}: no run report on stderr"]
    total, completed, _, _, failed, panicked, timed_out = map(int, m.groups())
    errors = []
    if total != points or completed != points:
        errors.append(f"{name}: {completed}/{total} points completed, expected {points}")
    for kind, n in (("failed", failed), ("panicked", panicked), ("timed-out", timed_out)):
        errors += [f"{name}: {kind} point"] * n
    return errors


def table_rows(text, title):
    """Data rows of the `== title ==` table in `text`, as lists of cells."""
    rows, inside = [], False
    for line in text.splitlines():
        if line.startswith("== "):
            inside = line == f"== {title} =="
            header_seen = False
            continue
        if not inside:
            continue
        if not line.startswith("|"):
            if line.startswith("-"):
                continue
            inside = False
            continue
        cells = [c.strip() for c in line.strip("|").split("|")]
        if not header_seen:
            header_seen = True
            continue
        rows.append(cells)
    return rows


def check_claims(stdout):
    """`dabench check`: every claim PASS and the closing summary line."""
    rows = table_rows(stdout, "Reproduction scorecard (paper claims re-derived from the simulators)")
    errors = [f"check: claim not PASS: {r[1]} ({r[2]})" for r in rows if len(r) >= 3 and r[2] != "PASS"]
    if len(rows) != EXPECTED_CLAIMS:
        errors.append(f"check: {len(rows)} claims, expected {EXPECTED_CLAIMS}")
    if f"all {EXPECTED_CLAIMS} claims reproduced" not in stdout.splitlines():
        errors.append(f"check: no `all {EXPECTED_CLAIMS} claims reproduced` line")
    return errors


def check_invariants(stdout):
    """`dabench gen`: the invariant table is present and shows 0 violations."""
    rows = table_rows(stdout, "Metamorphic invariants")
    if not rows:
        return ["gen: no invariant table"]
    errors = []
    for r in rows:
        try:
            n = int(r[3])
        except (IndexError, ValueError):
            errors.append(f"gen: unreadable invariant row {r}")
            continue
        errors += [f"gen: invariant {r[0]} violated"] * n
    return errors


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


def parse_trace(text):
    """`S id parent name start_ns end_ns label` and `C name value` lines
    into (spans, counters); a span is (id, parent, name, start, end)."""
    spans, counters = [], {}
    for line in text.splitlines():
        f = line.split("\t")
        if f[0] == "S":
            spans.append((int(f[1]), int(f[2]), f[3], int(f[4]), int(f[5])))
        elif f[0] == "C":
            counters[f[1]] = float(f[2])
    return spans, counters


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Seconds of self time per span name: each span's duration minus the
    part of it that its children cover. Children may run on other threads
    and overlap each other; their union is what is subtracted."""
    children = defaultdict(list)
    for _, parent, _, start, end in spans:
        children[parent].append((start, end))
    out = defaultdict(float)
    for sid, _, name, start, end in spans:
        own = (end - start) - covered(children.get(sid, ()), start, end)
        out[name] += own / 1e9
    return dict(out)


PLATFORMS = ("wse", "rdu", "ipu", "gpu")
ARTIFACTS = ("table1", "table2", "table3", "table4", "fig6", "fig7", "fig8", "fig9",
             "fig10", "fig11", "fig12")
# Span names (`<layer>.<call>`, or a bare layer) whose self time is
# reported as `<name>_s`, or `render.s` for the bare `render`.
TIMED_SPANS = (
    ["gen.sample", "compile.graph"]
    + [f"{p}.{call}" for p in PLATFORMS for call in ("profile", "scale")]
    + [f"{p}.degrade" for p in PLATFORMS if p != "gpu"]
    + ["faults.plan", "infer.probe", "infer.profile", "parallel.sweep", "parallel.fanout",
       "supervise.point", "supervise.journal_append", "experiments.evaluate",
       "experiments.record", "experiments.check"]
    + [f"experiments.{a}" for a in ARTIFACTS]
)
ROOT_SPAN = "trace.run"


def metric_name(span):
    return "render.s" if span == "render" else f"{span}_s"


def layer_of(span):
    return span.split(".")[0]


def layer_metrics(selfs, spans, counters, untraced_wall_s):
    """Every per-layer metric of one traced run; `selfs` is
    `self_times(spans)`."""
    count = defaultdict(int)
    busy = defaultdict(float)
    for _, _, name, start, end in spans:
        count[name] += 1
        busy[name] += (end - start) / 1e9
    m = {metric_name(s): selfs.get(s, 0.0) for s in TIMED_SPANS + ["render"]}

    calls = count["compile.graph"]
    m["compile.calls"] = calls
    m["compile.reuse_share"] = 1 - counters.get("compile.distinct", 0) / calls if calls else 0.0
    for p in PLATFORMS:
        m[f"{p}.errors"] = counters.get(f"{p}.errors", 0)
    m["infer.probes"] = count["infer.probe"]
    m["infer.profiles"] = count["infer.profile"]
    hits, misses = counters.get("cache.tier1_hits", 0), counters.get("cache.tier1_misses", 0)
    m["cache.tier1_hits"] = hits
    m["cache.tier1_misses"] = misses
    m["cache.tier1_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    workers = counters.get("parallel.workers", 1)
    sweep = busy["parallel.sweep"]
    m["parallel.busy_share"] = busy["supervise.point"] / (workers * sweep) if sweep else 0.0
    m["supervise.journal_appends"] = count["supervise.journal_append"]
    m["supervise.journal_bytes"] = counters.get("supervise.journal_bytes", 0)

    total = sum(selfs.values())
    wall = counters.get("trace.wall_s", 0.0)
    m["trace.wall_s"] = wall
    m["trace.unattributed_share"] = selfs.get(ROOT_SPAN, 0.0) / total if total else 0.0
    m["trace.overhead_s"] = wall - untraced_wall_s
    return m


# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [(metric_name(s), "s", "lower") for s in TIMED_SPANS + ["render"]]
    + [("compile.calls", "count", "lower"), ("compile.reuse_share", "ratio", "higher")]
    + [(f"{p}.errors", "count", "lower") for p in PLATFORMS]
    + [("infer.probes", "count", "lower"), ("infer.profiles", "count", "lower"),
       ("cache.tier1_hits", "count", "higher"), ("cache.tier1_misses", "count", "lower"),
       ("cache.tier1_hit_ratio", "ratio", "higher"), ("parallel.busy_share", "ratio", "higher"),
       ("supervise.journal_appends", "count", "lower"),
       ("supervise.journal_bytes", "B", "lower"),
       ("trace.wall_s", "s", "lower"), ("trace.unattributed_share", "ratio", "lower"),
       ("trace.overhead_s", "s", "lower"), ("error_rate", "ratio", "lower")]
)

LAYERS = ("gen", "compile", "wse", "rdu", "ipu", "gpu", "faults", "infer", "parallel",
          "supervise", "experiments", "render")


def layer_split(selfs):
    """Self seconds per layer from `self_times`, plus `unattributed` (the
    root span's own time) and `Total` (all span self time, in
    thread-seconds)."""
    split = dict.fromkeys(LAYERS, 0.0)
    unattributed = 0.0
    for name, secs in selfs.items():
        if name == ROOT_SPAN:
            unattributed += secs
        else:
            split[layer_of(name)] = split.get(layer_of(name), 0.0) + secs
    split["unattributed"] = unattributed
    split["Total"] = sum(split.values())
    return split


def render_attribution(machine, rows):
    """An attribution table in the layout of the LLMCC benchmark results:
    machine-info header, one row per workload, one column per layer plus
    Total. `rows` maps workload -> {"split", "trace_wall_s",
    "untraced_wall_s"}."""
    cols = list(LAYERS) + ["unattributed", "Total"]
    out = ["# perfbench attribution", "", "## Machine Info", ""]
    out += [f"- **{k}:** {v}" for k, v in machine.items()]
    out += ["", "## Self time per layer (traced pass, seconds of thread time)", "",
            "| Workload | Traced wall | Untraced wall | " + " | ".join(cols) + " |",
            "|" + "---|" * (len(cols) + 3)]
    for name in sorted(rows):
        r = rows[name]
        cells = [f"{r['split'].get(c, 0.0):.4f}s" for c in cols]
        out.append(f"| {name} | {r['trace_wall_s']:.4f}s | {r['untraced_wall_s']:.4f}s | "
                   + " | ".join(cells) + " |")
    out += ["", "Total exceeds the traced wall time where points run on several workers: "
            "it sums the busy time of every thread. `unattributed` is tracer glue outside "
            "any layer span; ROADMAP's target is under 10% of Total.", ""]
    return "\n".join(out)
