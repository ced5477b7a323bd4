#!/usr/bin/env python3
"""perfbench: the repository benchmark.

    python3 perfbench/run.py --workload paper|gen-baby|gen-cosmic \\
        --seed N --seconds S --trace 0|1

Run from the repository root. It builds the release `dabench` binary
(and, for `--trace 1`, the tracer in `perfbench/tracer`) into
`$CARGO_TARGET_DIR` (default `.bench_build`), refuses a binary older than
any `.rs` file under `crates/`, then measures for `--seconds` seconds.

`--trace 0` times fresh CLI processes as a closed loop: one client runs
the workload's invocations back to back, each process using at most
`nproc` worker threads, cycling through the workload's seeded
populations. Every invocation's output is checked. It reports
the end-to-end metrics (`wall_s`, `points_per_s`, `cpu_s`, `peak_rss_mb`,
`setup_s`).

`--trace 1` runs the tracer, which rebuilds the workload in
process from the layers' public functions with a span around each layer
call, checks that its output is byte-identical to the CLI's, and reports
the per-layer metrics. It also writes `perfbench/results/attribution.md`.

Human-readable lines come first; the last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import harness as h  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"

# Population sizes: large enough that per-point costs dominate process
# start-up, small enough that a run holds dozens of invocations, so the
# median rides over bursts of load on a shared host.
BABY_COUNT = 2000
COSMIC_COUNT = 500
# A run cycles through this many populations: the seed itself and
# companions derived from it. One population's cost depends on what its
# seed samples (cosmic training scenarios cost ~50x inference ones); the
# mean over several populations depends on it far less.
POPULATIONS = {"paper": 1, "gen-baby": 4, "gen-cosmic": 8}
SETUP_PROBES = 51
MIN_ROUNDS = 5
REFERENCE_RUNS = 3
INVOCATION_TIMEOUT_S = 120
PAPER_ARTIFACTS = 11

END_TO_END = (
    ("wall_s", "s"),
    ("points_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


class Refused(Exception):
    """The benchmark cannot measure this tree; exit non-zero, no result."""


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def gen_checks(count):
    return lambda out, err: h.check_run_report("gen", err, count) + h.check_invariants(out)


def population_seeds(name, seed):
    """The `--seed` of each population a run cycles through: the seed
    itself first, then companions in disjoint ranges of the u64 seed
    space. `paper` ignores the seed and has one population."""
    return [seed + k * 2**32 for k in range(POPULATIONS[name])]


def workload_plan(name, seed, run_dir):
    """(points per iteration, [(CLI args, output check)], tracer args).

    paper: what a paper reproducer runs, at the default --jobs. Its
        points are the 11 artifacts of `all` plus the `check` scorecard.
    gen-baby: thousands of cheap healthy scenarios on 2 workers, so the
        per-point fixed costs and the parallel fan-out dominate.
    gen-cosmic: 70B-shaped faulted scenarios on 1 worker with a fresh
        fsync'd journal, so degrade, scale, memory-edge probes and the
        journal are exercised and the parallel layer is not.
    """
    if name == "paper":
        return (
            PAPER_ARTIFACTS + 1,
            [
                (["all"], lambda out, err: h.check_run_report("all", err, PAPER_ARTIFACTS)),
                (["check"], lambda out, err: h.check_claims(out)),
            ],
            ["paper"],
        )
    if name == "gen-baby":
        args = ["gen", "--tier", "baby", "--seed", str(seed), "--count", str(BABY_COUNT),
                "--jobs", "2"]
        return BABY_COUNT, [(args, gen_checks(BABY_COUNT))], args
    if name == "gen-cosmic":
        args = ["gen", "--tier", "cosmic", "--seed", str(seed), "--count", str(COSMIC_COUNT),
                "--jobs", "1", "--run-dir", str(run_dir)]
        return COSMIC_COUNT, [(args, gen_checks(COSMIC_COUNT))], args
    raise Refused(f"unknown workload `{name}`")


# ---------------------------------------------------------------------------
# Build and stale-binary guard
# ---------------------------------------------------------------------------


def newest_source(dirs):
    newest, path = 0.0, None
    for d in dirs:
        for p in d.rglob("*.rs"):
            m = p.stat().st_mtime
            if m > newest:
                newest, path = m, p
    return newest, path


def target_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(with_tracer):
    """Build the release binaries; return their paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "dabench").is_dir():
        raise Refused(f"no dabench sources under {ROOT}")
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    steps = [cargo + ["-p", "dabench"]]
    if with_tracer:
        steps.append(cargo + ["--manifest-path", str(ROOT / "perfbench/tracer/Cargo.toml")])
    for cmd in steps:
        # Cargo's progress goes to stderr; stdout stays the report.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise Refused(f"build failed: {' '.join(cmd)}")
    # Each binary with the sources it is built from.
    binaries = [(target_dir() / "release" / "dabench", [ROOT / "crates"])]
    if with_tracer:
        binaries.append((target_dir() / "release" / "perfbench-tracer",
                         [ROOT / "crates", ROOT / "perfbench" / "tracer" / "src"]))
    for binary, sources in binaries:
        if not binary.is_file():
            raise Refused(f"build produced no {binary}")
        # A stale binary measures some other commit's code.
        newest, path = newest_source(sources)
        if binary.stat().st_mtime < newest:
            raise Refused(f"{binary} is older than {path}; refusing to measure a stale binary")
    return [binary for binary, _ in binaries]


def commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                       text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def mtime(path):
    return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(path.stat().st_mtime))


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

# The CLI reads these; the benchmark fixes the settings it measures.
CHILD_ENV = {k: v for k, v in os.environ.items() if not k.startswith("DABENCH_")}


def spawn(argv):
    """Run one fresh process to completion. Returns its wall time, the
    rusage of that child alone, its exit code and its output.

    Output is read through pipes, not files: file writes would dirty the
    page cache of the file system that `gen-cosmic` fsyncs its journal on,
    and an ext4 fsync can wait on them."""
    killed = []
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, env=CHILD_ENV, cwd=ROOT)
    streams = {}
    readers = [threading.Thread(target=lambda k=k, f=f: streams.__setitem__(k, f.read()))
               for k, f in (("stdout", proc.stdout), ("stderr", proc.stderr))]

    def kill():
        killed.append(True)
        proc.kill()

    timer = threading.Timer(INVOCATION_TIMEOUT_S, kill)
    for t in readers + [timer]:
        t.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    for t in readers:
        t.join()
    proc.stdout.close()
    proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
        "rc": proc.returncode,
        "timed_out": bool(killed),
        "stdout": streams["stdout"],
        "stderr": streams["stderr"].decode(errors="replace"),
    }


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, operations, errors):
        self.attempted += operations
        self.failed += min(operations, len(errors))
        self.reasons += errors[: max(0, 5 - len(self.reasons))]


def iteration(binary, name, seed, scratch):
    """One closed-loop iteration: the workload's invocations in order.
    Returns (points, wall, cpu, peak rss kB, stdout bytes, errors)."""
    run_dir = Path(tempfile.mkdtemp(dir=scratch)) / "run"
    points, invocations, _ = workload_plan(name, seed, run_dir)
    wall = cpu = 0.0
    rss = 0
    stdout = b""
    errors = []
    try:
        for args, check in invocations:
            r = spawn([str(binary)] + args)
            wall += r["wall"]
            cpu += r["cpu"]
            rss = max(rss, r["rss_kb"])
            stdout += r["stdout"]
            errors += h.check_exit(args[0], r["rc"], r["timed_out"])
            errors += check(r["stdout"].decode(errors="replace"), r["stderr"])
    finally:
        shutil.rmtree(run_dir.parent, ignore_errors=True)
    return points, wall, cpu, rss, stdout, errors


def checked_iteration(binary, name, seed, scratch, tally, reference):
    """`iteration`, with its failures tallied; stdout must match
    `reference` byte for byte when one is given."""
    points, wall, cpu, rss, stdout, errors = iteration(binary, name, seed, scratch)
    if reference is not None and stdout != reference:
        errors.append(f"{name}: stdout differs from the run's first invocation")
    tally.add(points, errors)
    return points, wall, cpu, rss, stdout


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def setup_probe(binary, tally, setup, listing):
    """One fresh no-work process; returns its stdout for comparison."""
    r = spawn([str(binary), "gen", "--list-tiers"])
    errors = h.check_exit("gen --list-tiers", r["rc"], r["timed_out"])
    if not r["stdout"] or (listing is not None and r["stdout"] != listing):
        errors.append("gen --list-tiers: output differs between invocations")
    tally.add(1, errors)
    setup.append(r["wall"])
    return r["stdout"]


def measure(name, seed, seconds, binary, scratch, tally):
    """`--trace 0`: the end-to-end metrics."""
    deadline = time.perf_counter() + seconds
    setup = []
    listing = setup_probe(binary, tally, setup, None)
    while len(setup) < SETUP_PROBES:
        setup_probe(binary, tally, setup, listing)

    seeds = population_seeds(name, seed)
    # One untimed iteration first, so page-cache warm-up is not sampled.
    points, _, _, _, first = checked_iteration(binary, name, seeds[0], scratch, tally, None)
    references = {seeds[0]: first}
    walls, cpus = ({s: [] for s in seeds} for _ in range(2))
    rsss = []
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        for s in seeds:
            # Set-up probes run between invocations too, so they sample
            # the same stretch of machine load as the workload does.
            setup_probe(binary, tally, setup, listing)
            _, wall, cpu, rss, stdout = checked_iteration(
                binary, name, s, scratch, tally, references.get(s))
            references.setdefault(s, stdout)
            walls[s].append(wall)
            cpus[s].append(cpu)
            rsss.append(rss)
        rounds += 1

    wall = h.mean_of_medians(walls.values())
    metrics = {
        "wall_s": wall,
        "points_per_s": points / wall,
        "cpu_s": h.mean_of_medians(cpus.values()),
        # The mean of per-iteration peaks: stable, yet it still shows a
        # change confined to a few invocations.
        "peak_rss_mb": sum(rsss) / len(rsss) / 1024,
        "setup_s": statistics.median(setup),
    }
    pooled = [w for ws in walls.values() for w in ws]
    tail = h.tail_percentile(pooled)
    tail_text = f"p{tail[0]:g} {tail[1]:.4f} s" if tail else "no percentile has 10 samples beyond it"
    notes = {
        "wall_s": f"({tail_text}; n={len(pooled)} over {len(seeds)} population(s))",
        "setup_s": f"(`gen --list-tiers`; n={len(setup)})",
        "peak_rss_mb": f"(max {max(rsss) / 1024:.1f} MB)",
    }
    return metrics, notes, h.digest(b"".join(references[s] for s in seeds))


def trace(name, seed, seconds, binary, tracer, scratch, tally):
    """`--trace 1`: the per-layer metrics, from the tracer."""
    deadline = time.perf_counter() + seconds
    walls, reference = [], None
    for _ in range(REFERENCE_RUNS):
        _, wall, _, _, stdout = checked_iteration(binary, name, seed, scratch, tally, reference)
        walls.append(wall)
        reference = reference or stdout
    untraced = statistics.median(walls)

    runs = []
    while not runs or time.perf_counter() < deadline:
        run_dir = Path(tempfile.mkdtemp(dir=scratch)) / "run"
        _, _, args = workload_plan(name, seed, run_dir)
        out, trace_file = scratch / "traced.out", scratch / "traced.spans"
        argv = [str(tracer)] + args + ["--stdout", str(out), "--spans", str(trace_file)]
        if not runs:
            argv.append("--verify")
        r = spawn(argv)
        shutil.rmtree(run_dir.parent, ignore_errors=True)
        errors = h.check_exit("tracer", r["rc"], r["timed_out"])
        if r["rc"] == 3:
            errors.append("tracer: a traced point differs from render_experiment")
        if not errors and out.read_bytes() != reference:
            errors.append("tracer: output differs from the CLI's stdout")
        tally.add(1, errors)
        if errors:
            break
        spans, counters = h.parse_trace(trace_file.read_text())
        # Unlinked before the next traced run, so their writeback does not
        # delay that run's journal fsyncs.
        out.unlink()
        trace_file.unlink()
        selfs = h.self_times(spans)
        runs.append((h.layer_metrics(selfs, spans, counters, untraced), h.layer_split(selfs)))

    metrics = {}
    for metric, _, _ in h.PER_LAYER:
        if metric != "error_rate":
            metrics[metric] = statistics.median([m[metric] for m, _ in runs]) if runs else 0.0
    split = {k: statistics.median([s[k] for _, s in runs]) for k in runs[0][1]} if runs else {}
    return metrics, untraced, split, len(runs), h.digest(reference)


def write_attribution(name, binary, metrics, untraced, split):
    """Add this workload's row to perfbench/results/attribution.{json,md}."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    store = RESULTS / "attribution.json"
    try:
        rows = json.loads(store.read_text()).get("rows", {})
    except (OSError, ValueError):
        rows = {}
    rows[name] = {"split": split, "trace_wall_s": metrics["trace.wall_s"],
                  "untraced_wall_s": untraced}
    machine = {
        "nproc": os.cpu_count(),
        "CPU model": cpu_model(),
        "Kernel": platform.release(),
        "Commit": commit(),
        "Binary": f"{binary} (mtime {mtime(binary)})",
    }
    store.write_text(json.dumps({"machine": machine, "rows": rows}, indent=1) + "\n")
    (RESULTS / "attribution.md").write_text(h.render_attribution(machine, rows))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["paper", "gen-baby", "gen-cosmic"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    try:
        binaries = build(with_tracer=args.trace == 1)
    except Refused as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    binary = binaries[0]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"  binary {binary} (mtime {mtime(binary)}), commit {commit()}, "
          f"nproc {os.cpu_count()}")

    scratch_root = target_dir() / "perfbench-tmp"
    scratch_root.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch_root))
    tally = Tally()
    try:
        if args.trace == 0:
            metrics, notes, sim_digest = measure(
                args.workload, args.seed, args.seconds, binary, scratch, tally)
            out = {}
            for metric, unit in END_TO_END:
                print(f"  {metric:<12} {metrics[metric]:.6g} {unit} {notes.get(metric, '')}")
                out[metric] = {"value": metrics[metric], "unit": unit}
            print(f"  sim_digest   {sim_digest}")
        else:
            metrics, untraced, split, runs, sim_digest = trace(
                args.workload, args.seed, args.seconds, binary, binaries[1], scratch, tally)
            metrics["error_rate"] = tally.failed / max(tally.attempted, 1)
            out = {}
            for metric, unit, _ in h.PER_LAYER:
                print(f"  {metric:<28} {metrics[metric]:.6g} {unit}")
                out[metric] = {"value": metrics[metric], "unit": unit}
            share = metrics["trace.unattributed_share"]
            print(f"  traced runs {runs}; unattributed {share:.1%} of span time "
                  f"(target < 10%); tracing overhead {metrics['trace.overhead_s']:.4f} s "
                  f"against an untraced {untraced:.4f} s")
            print(f"  sim_digest   {sim_digest}")
            if split:
                write_attribution(args.workload, binary, metrics, untraced, split)
                print(f"  attribution table: {RESULTS / 'attribution.md'}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    rate = tally.failed / max(tally.attempted, 1)
    print(f"  error_rate   {rate:.6g} ({tally.failed}/{tally.attempted} operations)")
    for reason in tally.reasons:
        print(f"  failure: {reason}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
