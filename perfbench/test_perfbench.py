"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

import check
import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
REF = check.load_reference()

RANGES = {
    "series": {"--order": workloads.EXPORT_ORDER},
    "asymptotics": {"--digits": workloads.POLE_DIGITS},
    "verify": {"--max-n": workloads.VERIFY_MAX_N, "--order": workloads.VERIFY_ORDER},
    "slice": {"--n": workloads.SLICE_N},
    "brute": {"--n": workloads.BRUTE_N},
}


@pytest.fixture(autouse=True)
def scratch_dir():
    run.SCRATCH.mkdir(parents=True, exist_ok=True)


def cli(*argv: str) -> dict:
    return run.run_op(run.cli_cmd(list(argv)), time.perf_counter() + 120)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_deck_is_deterministic_per_seed_and_within_ranges(name):
    deck = workloads.deck(name, 7)
    assert deck == workloads.deck(name, 7)
    assert deck != workloads.deck(name, 8)
    for argv in deck:
        kind = argv[2] if argv[0] == "count" else argv[0]
        opts = dict(zip(argv[1::2], argv[2::2]))
        for flag, (lo, hi) in RANGES[kind].items():
            assert lo <= int(opts[flag]) <= hi, argv


@pytest.mark.parametrize("fmt", ["bfile", "json", "plain"])
def test_checker_flags_one_changed_coefficient(fmt):
    argv = ["series", "--order", "20", "--parity", "odd", "--format", fmt]
    out = cli(*argv)
    assert check.check(argv, out["exit"], out["stdout"], REF) is None
    good = str(REF["coefficients"]["odd"][17])
    bad = out["stdout"].replace(f" {good}", f" {int(good) + 1}", 1)
    assert bad != out["stdout"]
    assert check.check(argv, 0, bad, REF) is not None


def test_checker_flags_count_and_failed_verify():
    argv = ["count", "--method", "brute", "--n", "9"]
    out = cli(*argv)
    assert check.check(argv, out["exit"], out["stdout"], REF) is None
    assert check.check(argv, 0, out["stdout"].replace("odd=15", "odd=14"), REF) is not None
    verify = ["verify", "--max-n", "8", "--order", "24"]
    assert check.check(verify, 0, "ok: a\nverify: PASS\n", REF) is None
    assert check.check(verify, 0, "FAIL: a\nverify: PASS\n", REF) is not None
    assert check.check(verify, 4, "ok: a\nverify: PASS\n", REF) is not None


def test_checker_flags_wrong_last_digit_of_rho():
    argv = ["asymptotics", "--digits", "20"]
    out = cli(*argv)
    assert check.check(argv, out["exit"], out["stdout"], REF) is None
    first, rest = out["stdout"].split("\n", 1)
    last = first[-1]
    wrong = first[:-1] + ("8" if last == "9" else str(int(last) + 1))
    assert check.check(argv, 0, wrong + "\n" + rest, REF) is not None


def run_main(monkeypatch, capsys, trace: int) -> tuple[list[str], dict]:
    monkeypatch.setattr(workloads, "deck", lambda name, seed: [["count", "--n", "6"]])
    code = run.main(["--workload", "cross-check", "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    printed = [line.split(" ")[1] for line in lines
               if line.startswith("cross-check ") and " ops " not in line]
    return printed, json.loads(lines[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_equal_benchmark_json(monkeypatch, capsys, trace, section):
    printed, result = run_main(monkeypatch, capsys, trace)
    declared = [m["name"] for m in BENCHMARK[section]]
    assert printed == declared
    assert list(result["metrics"]) == declared
    units = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert result["correct"] and result["failed"] == 0


def test_harrell_davis_quantiles():
    assert run.harrell_davis([2.5], 0.75) == 2.5
    assert run.harrell_davis([1.0, 2.0, 3.0], 0.5) == pytest.approx(2.0)
    values = [float(v) for v in range(1, 41)]
    assert run.harrell_davis(values, 0.5) == pytest.approx(20.5)
    assert 29.0 < run.harrell_davis(values, 0.75) < 32.0


def test_calibration_leaves_the_engine_out(monkeypatch):
    engine = [m for m in sys.modules if m.startswith("arndt_carlitz")]
    for module in engine:
        monkeypatch.delitem(sys.modules, module)
    run.calibrate()
    assert not [m for m in sys.modules if m.startswith("arndt_carlitz")]


def test_reference_clock_scales_by_the_calibrations_around_a_launch(monkeypatch):
    times = iter([0.010, 0.030, 0.042])
    monkeypatch.setattr(run, "calibrate", lambda: next(times))
    clock = run.ReferenceClock()
    ref = run.CALIBRATION_REF_S
    assert clock.scale(1.0) == pytest.approx(ref / 0.020)
    assert clock.scale(2.0) == pytest.approx(2.0 * ref / 0.036)
    assert clock.calibrations == [0.010, 0.030, 0.042]


def test_traced_op_spans_nest_and_self_times_sum_to_wall():
    spans_out = run.SCRATCH / "test-spans.json"
    argv = ["verify", "--max-n", "8", "--order", "24"]
    deadline = time.perf_counter() + 120
    result = run.run_op(run.traced_cmd(argv, spans_out, "op-1"), deadline)
    assert check.check(argv, result["exit"], result["stdout"], REF) is None
    record = json.loads(spans_out.read_text())
    spans_out.unlink()
    spans = record["spans"]
    assert record["missing"] == []
    assert [s[0] for s in spans if s[3] < 0] == ["cli:main"]
    assert spans[0][0] == "cli:main" and all(s[4] == "op-1" for s in spans)
    last_child_end: dict[int, float] = {}
    for name, start, end, parent, _op, _work in spans:
        assert start <= end
        if parent >= 0:
            _, p_start, p_end, *_ = spans[parent]
            assert p_start <= start and end <= p_end, name
            assert start >= last_child_end.get(parent, p_start), name
            last_child_end[parent] = end
    own = run.self_times(spans)
    assert min(own) >= 0
    main_span = spans[0][2] - spans[0][1]
    startup = result["wall_s"] - main_span
    assert startup > 0
    assert sum(own) + startup == pytest.approx(result["wall_s"], rel=1e-9)
    names = {s[0] for s in spans}
    for layer in ("gf:slice_iteration_series", "compositions:count_brute_force",
                  "asymptotics:find_rho", "series:TruncatedSeries.__mul__"):
        assert layer in names


def test_exits_nonzero_without_the_engine(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "cross-check",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
