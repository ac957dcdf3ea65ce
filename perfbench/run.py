"""Benchmark of the arndt-carlitz CLI: seeded workloads, checked outputs, traced layers.

Usage, from the repository root:

    python3 perfbench/run.py --workload exact-export --seed 1 --seconds 30 --trace 0

One closed-loop client runs the workload's seeded deck of CLI calls
(workloads.py), each call a fresh `python3 -m arndt_carlitz.cli` process,
one after another, and repeats the whole deck until --seconds have passed.
Fresh processes matter: `gf` memoises every series, so in-process calls
would mostly time cache hits that no CLI user gets.  Every stdout is
checked against reference.json (check.py); a failed op is one that exits
non-zero or prints anything but the reference.

--trace 0 prints the end-to-end metrics, with every time scaled to a
reference CPU speed by a calibration loop timed after each launch (see
CALIBRATION_REF_S).  --trace 1 runs each op once plain and once under
trace_boot.py, which records spans around the layer functions, and prints
the per-layer metrics instead: per-op means of self times and work
counts, plus the tracing overhead, all unscaled.  Every metric is printed
as `workload metric value unit`; a `meta` line records the run's settings
and per-op argv, and the last line is one JSON result object per workload.
The exit code is 1 when any op failed and 2 when the engine is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction
from pathlib import Path

import mpmath
from mpmath import libmp

import check
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "perfbench"

SETUP_LAUNCHES = 11
# Seconds that calibration_work() takes at the reference speed.  On a shared
# 2-vCPU VM the CPU speed swung by a third within seconds and drifted over
# minutes, alike for the engine and for any pure-Python loop.  So the runner
# times calibration_work() after every launch, and reports each launch's wall
# time at the reference speed: scaled by this constant over the mean of the
# calibrations just before and just after it.
CALIBRATION_REF_S = 0.021
# no op starts, and a running op is killed, once a workload has run this long
HARD_LIMIT_S = 150.0

TAIL_PERCENTILE = 75

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    f"op_tail_p{TAIL_PERCENTILE}_s": "s",
    "peak_rss_mb": "MiB",
}

# per-layer time metric -> traced functions whose self time it sums
LAYER_TIMES = {
    "series.mul_s": ("series:TruncatedSeries.__mul__",),
    "series.reciprocal_s": ("series:TruncatedSeries.reciprocal",),
    "series.bivariate_s": (
        "series:BivariateTruncatedSeries.__mul__",
        "series:BivariateTruncatedSeries.mul_univariate",
        "series:BivariateTruncatedSeries.substitute_u",
        "series:BivariateTruncatedSeries.__add__",
        "series:BivariateTruncatedSeries.__sub__",
    ),
    "gf.alpha_s": ("gf:alpha_series",),
    "gf.beta_s": ("gf:beta_series",),
    "gf.numerator_s": ("gf:numerator_series",),
    "gf.denominator_s": ("gf:denominator_series",),
    "gf.quotient_s": ("gf:even_series", "gf:fzz_series"),
    "gf.bundle_s": ("gf:series_bundle", "gf:odd_series", "gf:total_series"),
    "gf.slice_s": ("gf:slice_iteration_series", "gf:slice_bundle"),
    "compositions.brute_s": (
        "compositions:count_brute_force",
        "compositions:list_arndt_carlitz",
    ),
    "asymptotics.find_rho_s": ("asymptotics:find_rho",),
    "asymptotics.amplitudes_s": ("asymptotics:amplitudes",),
    "asymptotics.eval_denominator_s": ("asymptotics:eval_denominator",),
    "asymptotics.derivative_s": (
        "asymptotics:denominator_derivative",
        "asymptotics:denominator_derivative_via_series",
    ),
    "cli.self_s": ("cli:main",),
}

# per-layer count metric -> ("calls" or "work", traced functions)
LAYER_COUNTS = {
    "series.mul_calls": ("calls", LAYER_TIMES["series.mul_s"]),
    "series.mul_terms": ("work", LAYER_TIMES["series.mul_s"]),
    "series.bivariate_calls": ("calls", LAYER_TIMES["series.bivariate_s"]),
    "compositions.enumerated": ("work", LAYER_TIMES["compositions.brute_s"]),
    "asymptotics.eval_denominator_calls": ("calls", ("asymptotics:eval_denominator",)),
}

PER_LAYER_UNITS = {
    **{name: "s" for name in LAYER_TIMES},
    **{name: "count" for name in LAYER_COUNTS},
    "gf.cache_hit_ratio": "ratio",
    "proc.startup_s": "s",
    "trace.overhead_s": "s",
}


def run_op(cmd: list[str], deadline: float) -> dict:
    """Run one child to exit; return its wall time, exit code, stdout and max RSS."""
    with tempfile.TemporaryFile(dir=SCRATCH) as err:
        start = time.perf_counter()
        child = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                 env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT)
        killer = threading.Timer(max(deadline - start, 0.0), child.kill)
        killer.start()
        try:
            stdout = child.stdout.read()
            child.stdout.close()
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return {
        "wall_s": wall,
        "exit": child.returncode,
        "stdout": stdout.decode(errors="replace"),
        "stderr": stderr,
        "max_rss_mb": usage.ru_maxrss / 1024,
    }


def setup_launch(deadline: float) -> float:
    """Wall time of a fresh interpreter importing the CLI, without a workload."""
    result = run_op([sys.executable, "-c", "import arndt_carlitz.cli"], deadline)
    if result["exit"] != 0:
        raise RuntimeError(f"importing the engine failed: {result['stderr'].strip()}")
    return result["wall_s"]


def calibration_work() -> list[Fraction]:
    """Fixed Fraction convolution in plain Python; it imports nothing of the engine."""
    a = [Fraction(1, k + 1) for k in range(80)]
    return [sum(a[i] * a[n - i] for i in range(n + 1)) for n in range(80)]


def calibrate() -> float:
    start = time.perf_counter()
    calibration_work()
    return time.perf_counter() - start


def cli_cmd(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "arndt_carlitz.cli", *argv]


def traced_cmd(argv: list[str], spans_out: Path, op_id: str) -> list[str]:
    return [sys.executable, str(HERE / "trace_boot.py"), str(spans_out), op_id, "--", *argv]


def checked(argv: list[str], result: dict, ref: dict, traced: bool) -> dict:
    reason = check.check(argv, result["exit"], result["stdout"], ref)
    if reason and result["stderr"]:
        reason += f"; stderr: {result['stderr'].strip().splitlines()[-1]}"
    return {"argv": argv, "traced": traced, "wall_s": result["wall_s"],
            "max_rss_mb": result["max_rss_mb"], "error": reason}


def run_decks(deck: list[list[str]], seconds: float, deadline: float, step) -> None:
    """Call step(argv) over whole decks until `seconds` pass."""
    start = time.perf_counter()
    while True:
        for argv in deck:
            if time.perf_counter() >= deadline:
                return
            step(argv)
        if time.perf_counter() - start >= seconds:
            return


class ReferenceClock:
    """Scales wall times to the reference speed by the calibrations around them."""

    def __init__(self) -> None:
        self.calibrations = [calibrate()]

    def scale(self, wall: float) -> float:
        """`wall` of a launch that ended just now, at the reference speed."""
        self.calibrations.append(calibrate())
        return wall * 2 * CALIBRATION_REF_S / sum(self.calibrations[-2:])


def end_to_end(deck, seconds, deadline, ref) -> tuple[list[dict], dict, dict]:
    """Ops, metrics at the reference speed, and the same metrics unscaled."""
    setup_launch(deadline)  # untimed: compiles the bytecode
    clock = ReferenceClock()
    setups: list[float] = []
    raw_setups: list[float] = []
    ops: list[dict] = []

    def step(argv):
        op = checked(argv, run_op(cli_cmd(argv), deadline), ref, traced=False)
        op["scaled_s"] = clock.scale(op["wall_s"])
        ops.append(op)
        # spread over the run, so one slow moment cannot set the median
        if len(setups) < SETUP_LAUNCHES:
            raw_setups.append(setup_launch(deadline))
            setups.append(clock.scale(raw_setups[-1]))

    run_decks(deck, seconds, deadline, step)
    rss = max(op["max_rss_mb"] for op in ops)
    metrics = summarize([op["scaled_s"] for op in ops], setups, rss)
    unscaled = summarize([op["wall_s"] for op in ops], raw_setups, rss)
    return ops, metrics, {"unscaled": unscaled, "calibrations": clock.calibrations}


def harrell_davis(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a beta-weighted mean of all order statistics.

    It draws on every sample, where an interpolated percentile rests on
    one or two, so noise in a few samples moves it far less.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [float(mpmath.betainc(a, b, 0, i / n, regularized=True)) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs))


def summarize(walls: list[float], setups: list[float], rss: float) -> dict[str, float]:
    """End-to-end metrics from per-op and set-up wall times and the peak RSS."""
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(walls) / sum(walls),
        "op_p50_s": harrell_davis(walls, 0.5),
        f"op_tail_p{TAIL_PERCENTILE}_s": harrell_davis(walls, TAIL_PERCENTILE / 100),
        "peak_rss_mb": rss,
    }


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def per_layer(deck, seconds, deadline, ref) -> tuple[list[dict], dict, list[str]]:
    ops: list[dict] = []
    records: list[tuple[float, dict]] = []

    def step(argv):
        ops.append(checked(argv, run_op(cli_cmd(argv), deadline), ref, traced=False))
        op_id = str(len(records))
        spans_out = SCRATCH / f"spans-{os.getpid()}-{op_id}.json"
        result = run_op(traced_cmd(argv, spans_out, op_id), deadline)
        ops.append(checked(argv, result, ref, traced=True))
        if spans_out.exists():
            records.append((result["wall_s"], json.loads(spans_out.read_text())))
            spans_out.unlink()
        elif not ops[-1]["error"]:
            ops[-1]["error"] = "traced op wrote no spans"

    run_decks(deck, seconds, deadline, step)
    missing = sorted({t for _, rec in records for t in rec["missing"]})
    return ops, layer_metrics(ops, records), missing


def layer_metrics(ops: list[dict], records: list[tuple[float, dict]]) -> dict[str, float]:
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    work: dict[str, int] = {}
    startup = 0.0
    hits = misses = 0
    for wall, rec in records:
        for span, own in zip(rec["spans"], self_times(rec["spans"])):
            name, start, end, parent, _op, done = span
            self_s[name] = self_s.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
            work[name] = work.get(name, 0) + done
            if name == "cli:main":
                startup += wall - (end - start)
        hits += rec["cache_hits"]
        misses += rec["cache_misses"]
    n = max(len(records), 1)
    metrics = {m: sum(self_s.get(f, 0.0) for f in fns) / n for m, fns in LAYER_TIMES.items()}
    for m, (kind, fns) in LAYER_COUNTS.items():
        table = calls if kind == "calls" else work
        metrics[m] = sum(table.get(f, 0) for f in fns) / n
    metrics["gf.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["proc.startup_s"] = startup / n
    plain = [op["wall_s"] for op in ops if not op["traced"]]
    with_spans = [op["wall_s"] for op in ops if op["traced"]]
    metrics["trace.overhead_s"] = statistics.median(with_spans) - statistics.median(plain)
    return metrics


def git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        help=f"comma-separated names from {', '.join(workloads.WORKLOADS)}, or 'all'",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {', '.join(unknown)}")
    args.workloads = names
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "arndt_carlitz" / "cli.py").is_file():
        print(f"error: no engine at {SRC.relative_to(ROOT)}/arndt_carlitz; "
              "run from a full checkout", file=sys.stderr)
        return 2
    ref = check.load_reference()
    SCRATCH.mkdir(parents=True, exist_ok=True)
    # one CPU for this process and every child, so the calibration times the
    # same core as the ops; the cores of a shared VM can differ in speed
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    meta = {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "mpmath_backend": libmp.BACKEND,
        "nproc": os.cpu_count(),
    }
    all_ok = True
    for name in args.workloads:
        deadline = time.perf_counter() + HARD_LIMIT_S
        deck = workloads.deck(name, args.seed)
        if args.trace:
            ops, metrics, missing = per_layer(deck, args.seconds, deadline, ref)
            units = PER_LAYER_UNITS
            if missing:
                print(f"note: the engine lacks trace targets {', '.join(missing)}",
                      file=sys.stderr)
            info = {}
        else:
            ops, metrics, info = end_to_end(deck, args.seconds, deadline, ref)
            units = END_TO_END_UNITS
        failed = [op for op in ops if op["error"]]
        for op in failed:
            print(f"FAILED {' '.join(op['argv'])}: {op['error']}", file=sys.stderr)
        for metric, unit in units.items():
            print(f"{name} {metric} {metrics[metric]!r} {unit}")
        print(f"{name} ops attempted={len(ops)} failed={len(failed)} "
              f"failed_ratio={len(failed) / len(ops)!r}")
        op_log = [{k: op[k] for k in ("argv", "traced", "wall_s", "scaled_s", "error") if k in op}
                  for op in ops]
        print("meta " + json.dumps({**meta, "workload": name, **info, "ops": op_log}))
        print(json.dumps({
            "correct": not failed,
            "attempted": len(ops),
            "failed": len(failed),
            "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
        }))
        all_ok = all_ok and not failed
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
