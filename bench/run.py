"""affsemi benchmark: one seeded workload, end-to-end or traced.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: analyze_cone, analyze_numerical, query, cli_cold (see
``workloads.py`` for what each runs and why).  The library is imported from
``src/`` of the checkout; nothing is installed.

Load is one caller in one process, closed loop: the next op starts when the
previous one ends (``cli_cold`` runs one child process at a time).  Inputs
are generated from the seed between ops and outside the op clock.  The run
stops at the first op that ends after ``--seconds``; outputs are then
checked against the oracle, outside the clock.

Host speed.  Shared hosts swing between speeds (by up to 1.8x, for
stretches of seconds, on a shared 2-vCPU Xeon VM), which moves every
timing with the share of the run spent in slow stretches.  So a
fixed pure-Python probe loop is timed between ops, at most every
PROBE_EVERY_S, and each op time (and each set-up time) is scaled by
PROBE_REFERENCE_S over the mean probe time just before and just after it:
timings are reported at the speed at which the probe takes
PROBE_REFERENCE_S.  The unscaled figures are in the line before the result.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each
chunk of about a second of ops twice, untraced and with the public
``affsemi`` functions wrapped (``tracer.py``), and prints per-layer calls,
self time and share, the input-derived work counts, and the tracing
overhead (traced minus untraced time over the same ops).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
carries the environment, the measured traffic and the details behind the
metrics.  Both are also written to ``.bench_out/`` in the checkout, with the
spans of a traced run.
"""

import os

# Pin BLAS/OpenMP pools before numpy is imported here or in any child.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import bisect
import contextlib
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import inputs
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("analyze_cone", "analyze_numerical", "query", "cli_cold")

#: Set-up is repeated this many times per run and reported as the median.
SETUP_REPEATS = 5

#: Samples beyond the tail percentile.
TAIL_BEYOND = 10

#: Blocks of ops run before peak memory is read.
RSS_BLOCKS = 2

#: Length of one untraced or traced pass in a traced run.
TRACE_CHUNK_S = 1.0

#: Iterations of the probe loop, least time between probes, and the probe
#: time that timings are scaled to.
PROBE_LOOP = 3_000
PROBE_EVERY_S = 0.02
PROBE_REFERENCE_S = 250e-6

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import affsemi.cli; "
    "print(time.perf_counter() - t)"
)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def child_wall(argv, env):
    start = perf_counter()
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return perf_counter() - start, done.stdout


def make_workload(name, env):
    if name == "cli_cold":
        return workloads.CliCold(ROOT, env, OUT)
    return {
        "analyze_cone": workloads.AnalyzeCone,
        "analyze_numerical": workloads.AnalyzeNumerical,
        "query": workloads.Query,
    }[name]()


class HostSpeed:
    """End times and durations of the probe loop, taken between ops."""

    def __init__(self):
        self.ends, self.seconds = [], []

    def probe(self):
        start = perf_counter()
        total = 0
        for i in range(PROBE_LOOP):
            total += i * i % 7
        end = perf_counter()
        self.ends.append(end)
        self.seconds.append(end - start)

    def maybe_probe(self):
        if not self.ends or perf_counter() - self.ends[-1] >= PROBE_EVERY_S:
            self.probe()

    def scale(self, start, end):
        """PROBE_REFERENCE_S over the mean of the last probe before
        ``start`` and the first one after ``end``."""
        before = bisect.bisect_right(self.ends, start) - 1
        after = bisect.bisect_left(self.ends, end)
        around = [self.seconds[i] for i in (before, after) if 0 <= i < len(self.seconds)]
        return PROBE_REFERENCE_S * len(around) / sum(around)


class OpList:
    """Ops drawn lazily from the seeded stream; generation time is kept
    apart from the op clock."""

    def __init__(self, stream):
        self.stream = stream
        self.items = []
        self.generate_s = 0.0

    def __getitem__(self, index):
        while index >= len(self.items):
            start = perf_counter()
            self.items.append(next(self.stream))
            self.generate_s += perf_counter() - start
        return self.items[index]


class Executed:
    """Ops run so far, with start, latency, kept output and error (None
    when the op returned normally) of each."""

    def __init__(self):
        self.ops, self.starts, self.latencies, self.kept, self.errors = [], [], [], [], []

    def extend(self, other):
        for mine, theirs in zip(vars(self).values(), vars(other).values()):
            mine.extend(theirs)


def run_ops(workload, state, ops, into, first, seconds=None, count=None,
            recorder=None, speed=None):
    """Run ops from index ``first`` on, one at a time, until ``count`` ops ran
    or the first op that ends after ``seconds``; return how many ran."""
    deadline = perf_counter() + seconds if seconds is not None else None
    index = first
    while True:
        op = ops[index]
        if recorder is not None:
            recorder.op = index
        if speed is not None:
            speed.maybe_probe()
        start = perf_counter()
        try:
            result = workload.run(state, op)
            error = None
        except Exception as exc:  # an op failure, counted and reported
            result, error = None, f"{type(exc).__name__}: {exc}"
        end = perf_counter()
        into.ops.append(op)
        into.starts.append(start)
        into.latencies.append(end - start)
        into.kept.append(None if error else workload.keep(result))
        into.errors.append(error)
        index += 1
        if (count is not None and index - first >= count) or (
            deadline is not None and end >= deadline
        ):
            if speed is not None:
                speed.probe()
            return index - first


@contextlib.contextmanager
def tracing(workload, recorder):
    """Trace the library in this process, or in each CLI child."""
    if isinstance(workload, workloads.CliCold):
        workload.tracer = recorder
    else:
        recorder.install()
    try:
        yield
    finally:
        recorder.uninstall()
        workload.tracer = None


def traced_run(workload, state, ops, seconds, recorder):
    """Alternate untraced and traced passes over the same chunks of ops,
    flipping which goes first, so the host's slow spells fall on both
    sides alike.  Returns both runs and the traced preparation time."""
    with tracing(workload, recorder):
        recorder.op = "setup"
        start = perf_counter()
        workload.prepare()
        traced_prepare = perf_counter() - start
    untraced, traced = Executed(), Executed()
    index = chunk = 0
    while sum(untraced.latencies) + sum(traced.latencies) < seconds:
        if chunk % 2:
            with tracing(workload, recorder):
                ran = run_ops(workload, state, ops, traced, index, seconds=TRACE_CHUNK_S,
                              recorder=recorder)
            run_ops(workload, state, ops, untraced, index, count=ran)
        else:
            ran = run_ops(workload, state, ops, untraced, index, seconds=TRACE_CHUNK_S)
            with tracing(workload, recorder):
                run_ops(workload, state, ops, traced, index, count=ran, recorder=recorder)
        index += ran
        chunk += 1
    return untraced, traced, traced_prepare


def check_outputs(workload, state, executed):
    """Problems per op: the op's own error, or what the checks found."""
    done = [i for i, err in enumerate(executed.errors) if err is None]
    ops = [executed.ops[i] for i in done]
    kept = [executed.kept[i] for i in done]
    found = workload.check_all(state, ops, kept)
    problems = [[err] if err else [] for err in executed.errors]
    for i, p in zip(done, found):
        problems[i] = p
    return problems


def tail(latencies):
    """The highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    position = max(n - TAIL_BEYOND - 1, 0)
    return ordered[position], {
        "percentile": round(100.0 * (position + 1) / n, 3),
        "samples": n,
        "beyond": n - position - 1,
    }


def peak_rss_mb(workload):
    """Peak resident memory of this process, or of its largest CLI child."""
    who = resource.RUSAGE_CHILDREN if isinstance(workload, workloads.CliCold) else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def environment(nproc):
    digest = hashlib.sha256()
    for path in sorted((SRC / "affsemi").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "thread_pins": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def set_up(workload, env, speed):
    """Library import in a fresh interpreter, plus the workload's own
    preparation in this process, each repeated, scaled to the reference
    speed and taken at the median."""
    raw = {"import_s": [], "prepare_s": []}
    scaled = {"import_s": [], "prepare_s": []}
    state = None
    for key in ("import_s", "prepare_s"):
        if key == "prepare_s":
            import affsemi.cli  # noqa: F401  (the in-process import the ops use)
        for _ in range(SETUP_REPEATS):
            speed.probe()
            start = perf_counter()
            if key == "import_s":
                seconds = float(child_wall([sys.executable, "-c", IMPORT_PROBE], env)[1])
            else:
                state = workload.prepare()
                seconds = perf_counter() - start
            end = perf_counter()
            speed.probe()
            raw[key].append(seconds)
            scaled[key].append(seconds * speed.scale(start, end))
    setup_s = statistics.median(scaled["import_s"]) + statistics.median(scaled["prepare_s"])
    return setup_s, state, {"raw": raw, "scaled": scaled}


def end_to_end(latencies, failed, setup_s, rss):
    n = len(latencies)
    tail_value, tail_info = tail(latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (n / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail_value * 1e3, "ms"),
        "success_ratio": ((n - failed) / n, "ratio"),
        "peak_rss_mb": (rss, "MB"),
    }
    return metrics, tail_info


def per_layer(recorder, window_s, overhead_s, untraced_s, env):
    calls, self_s = tracer.self_times(recorder.spans)
    metrics = {}
    for name in tracer.span_names():
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (self_s[name], "s")
        metrics[f"{name}.share"] = (self_s[name] / window_s, "ratio")
    counts = recorder.counts
    for name in tracer.COUNTS:
        metrics[name] = (counts[name], "count")
    box = counts["frobenius.minimal_cone_points.box_points"]
    metrics["frobenius.minimal_cone_points.yield"] = (
        counts["frobenius.minimal_cone_points.minimal_points"] / box if box else 0.0, "ratio")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    metrics["trace.overhead_ratio"] = (overhead_s / untraced_s, "ratio")
    python = sys.executable
    metrics["cli.import_s"] = (statistics.median(
        child_wall([python, "-c", "import affsemi"], env)[0] for _ in range(SETUP_REPEATS)), "s")
    metrics["cli.interpreter_s"] = (statistics.median(
        child_wall([python, "-c", "pass"], env)[0] for _ in range(SETUP_REPEATS)), "s")
    return metrics


def latency_by_kind(ops, latencies):
    by_kind = {}
    for op, latency in zip(ops, latencies):
        by_kind.setdefault(op["kind"], []).append(latency * 1e3)
    return {kind: {"count": len(v), "p50_ms": statistics.median(v)} for kind, v in by_kind.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "affsemi" / "__init__.py").is_file():
        print(f"error: no affsemi sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for this process and its children, so that the probe loop
    # times the CPU the ops run on.
    nproc = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    OUT.mkdir(exist_ok=True)
    env = child_env()
    load_start = os.getloadavg()

    workload = make_workload(args.workload, env)
    rng = inputs.rng_for(args.workload, args.seed)
    makers = workload.makers(rng)
    ops = OpList(inputs.block_stream(rng, makers))

    speed = HostSpeed()
    setup_s, state, setup_details = set_up(workload, env, speed)
    executed = Executed()
    if not args.trace:
        # Peak memory is read after the first RSS_BLOCKS blocks, which hold
        # every stratum, so that what the run keeps for the checks does not
        # grow it with the number of ops.
        start = perf_counter()
        warm = run_ops(workload, state, ops, executed, 0, seconds=args.seconds,
                       count=RSS_BLOCKS * len(makers), speed=speed)
        rss = peak_rss_mb(workload)
        remaining = args.seconds - (perf_counter() - start)
        if warm == RSS_BLOCKS * len(makers) and remaining > 0:
            run_ops(workload, state, ops, executed, warm, seconds=remaining, speed=speed)
    else:
        recorder = tracer.Tracer()
        untraced, traced, traced_prepare = traced_run(
            workload, state, ops, args.seconds, recorder)
        executed.extend(untraced)
        executed.extend(traced)

    problems = check_outputs(workload, state, executed)
    failed = sum(1 for p in problems if p)
    attempted = len(executed.ops)

    if args.trace:
        window_s = traced_prepare + sum(traced.latencies)
        untraced_s = statistics.median(setup_details["raw"]["prepare_s"]) + sum(untraced.latencies)
        metrics = per_layer(recorder, window_s, window_s - untraced_s, untraced_s, env)
        details = {"trace_window_s": window_s, "untraced_s": untraced_s}
        recorder.dump(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        scaled = [
            latency * speed.scale(start, start + latency)
            for start, latency in zip(executed.starts, executed.latencies)
        ]
        metrics, tail_info = end_to_end(scaled, failed, setup_s, rss)
        unscaled, _ = end_to_end(
            executed.latencies, failed,
            statistics.median(setup_details["raw"]["import_s"])
            + statistics.median(setup_details["raw"]["prepare_s"]), rss)
        details = {
            "tail": tail_info,
            "unscaled": {k: v for k, (v, _) in unscaled.items()},
            "probe_ms": {"min": min(speed.seconds) * 1e3,
                         "median": statistics.median(speed.seconds) * 1e3,
                         "max": max(speed.seconds) * 1e3, "count": len(speed.seconds)},
            "latency_by_kind": latency_by_kind(executed.ops, scaled),
        }

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": dict(environment(nproc), loadavg_start=load_start,
                            loadavg_end=os.getloadavg()),
        "setup": setup_details,
        "input_generation_s": ops.generate_s,
        "traffic": workload.traffic(executed.ops[: attempted // (1 + args.trace)]),
        "details": details,
        "problems": [(i, p) for i, p in enumerate(problems) if p][:20],
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    samples = {"latency_ms": [x * 1e3 for x in executed.latencies],
               "start": executed.starts,
               "probe_end": speed.ends, "probe_s": speed.seconds}
    report = OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"info": info, "result": result, "samples": samples}))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
