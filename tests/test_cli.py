import ast
import contextlib
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from arndt_carlitz import _pole, asymptotics, cli, gf
from arndt_carlitz.asymptotics import GUARD_DIGITS, DomainError, PrecisionError
from arndt_carlitz.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_CAP,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PRECISION,
    EXIT_USAGE,
    main,
)
from arndt_carlitz.series import TruncatedSeries


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ----------------------------------------------------------------- count


def test_count_gf(capsys):
    code, out, _ = run(capsys, "count", "--n", "8")
    assert code == EXIT_OK
    assert out == "n=8 even=7 odd=9 total=16\n"


def test_count_brute(capsys):
    code, out, _ = run(capsys, "count", "--n", "1", "--method", "brute")
    assert code == EXIT_OK
    assert out == "n=1 even=0 odd=1 total=1\n"


def test_count_slice(capsys):
    code, out, _ = run(capsys, "count", "--n", "7", "--method", "slice")
    assert code == EXIT_OK
    assert out == "n=7 even=5 odd=5 total=10\n"


def test_count_parity_filter(capsys):
    code, out, _ = run(capsys, "count", "--n", "8", "--parity", "even")
    assert code == EXIT_OK
    assert out == "n=8 even=7\n"


@pytest.mark.parametrize("parity, line", [
    ("odd", "n=40 odd=26353213\n"),
    ("all", "n=40 even=22146306 odd=26353213 total=48499519\n"),
], ids=["odd", "all"])
def test_count_gf_divides_once_per_parity(capsys, monkeypatch, parity, line):
    # even_series and odd_series each divide by D once; F(z,z) and the
    # bundle would add a division the printed counts do not need
    def refuse(*args, **kwargs):
        raise AssertionError("count --method gf built F(z,z) or the bundle")

    monkeypatch.setattr(gf, "series_bundle", refuse)
    monkeypatch.setattr(gf, "fzz_series", refuse)
    assert run(capsys, "count", "--n", "40", "--parity", parity) == (EXIT_OK, line, "")


def test_count_methods_agree(capsys):
    # brute force only where it is quick; the two exact derivations, slice
    # recurrence and closed forms, also at n = 96
    for n, methods, line in [
        (11, ("brute", "gf", "slice"), "n=11 even=30 odd=36 total=66\n"),
        (96, ("gf", "slice"), "n=96 even=4606755400571272866 "
                              "odd=5481852735331509212 total=10088608135902782078\n"),
    ]:
        lines = {parity: {run(capsys, "count", "--n", str(n), "--method", method,
                              "--parity", parity)[1] for method in methods}
                 for parity in ("all", "even", "odd")}
        assert lines["all"] == {line}
        assert all(len(outs) == 1 for outs in lines.values()), lines


# ----------------------------------------------------------------- series


def test_series_plain_even(capsys):
    code, out, _ = run(capsys, "series", "--order", "11", "--parity", "even")
    assert code == EXIT_OK
    assert out == "0 0 0 1 1 2 3 5 7 12 20 30\n"


def test_series_plain_odd(capsys):
    code, out, _ = run(capsys, "series", "--order", "11", "--parity", "odd")
    assert code == EXIT_OK
    assert out == "0 1 1 1 1 2 4 5 9 15 22 36\n"


def test_series_json_schema(capsys):
    code, out, _ = run(capsys, "series", "--order", "11", "--parity", "odd",
                       "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload == {
        "query": "series",
        "parity": "odd",
        "method": "gf",
        "order": 11,
        "coefficients": [0, 1, 1, 1, 1, 2, 4, 5, 9, 15, 22, 36],
    }


def test_series_json_order_zero(capsys):
    code, out, _ = run(capsys, "series", "--order", "0", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["coefficients"] == [0]


@pytest.mark.parametrize("order", [0, 1, 96, 224])
@pytest.mark.parametrize("parity", ["all", "even", "odd"])
def test_series_json_line_is_json_dumps(capsys, parity, order):
    # the command builds the line without the json module
    code, out, _ = run(capsys, "series", "--order", str(order), "--parity", parity,
                       "--format", "json")
    series = {"all": gf.total_series, "even": gf.even_series, "odd": gf.odd_series}
    payload = {"query": "series", "parity": parity, "method": "gf", "order": order,
               "coefficients": series[parity](order).coeffs}
    assert (code, out) == (EXIT_OK, json.dumps(payload) + "\n")


def test_series_csv(capsys):
    code, out, _ = run(capsys, "series", "--order", "4", "--parity", "odd",
                       "--format", "csv")
    assert code == EXIT_OK
    assert out == "n,coefficient\n0,0\n1,1\n2,1\n3,1\n4,1\n"


def test_series_bfile(capsys):
    code, out, _ = run(capsys, "series", "--order", "5", "--parity", "even",
                       "--format", "bfile")
    assert code == EXIT_OK
    assert out == "1 0\n2 0\n3 1\n4 1\n5 2\n"
    assert out.isascii()


def test_series_formats_carry_identical_content(capsys):
    for order in ("9", "224"):
        _, plain, _ = run(capsys, "series", "--order", order)
        _, as_json, _ = run(capsys, "series", "--order", order, "--format", "json")
        _, csv_text, _ = run(capsys, "series", "--order", order, "--format", "csv")
        _, bfile, _ = run(capsys, "series", "--order", order, "--format", "bfile")
        from_plain = [int(t) for t in plain.split()]
        from_json = json.loads(as_json)["coefficients"]
        from_csv = [int(line.split(",")[1]) for line in csv_text.splitlines()[1:]]
        from_bfile = [int(line.split()[1]) for line in bfile.splitlines()]
        assert len(from_plain) == int(order) + 1
        assert from_plain == from_json == from_csv
        assert from_bfile == from_plain[1:]  # bfile starts at n=1 by convention


def test_series_deterministic(capsys):
    _, first, _ = run(capsys, "series", "--order", "20")
    _, second, _ = run(capsys, "series", "--order", "20")
    assert first == second


# ------------------------------------------------------------------- list


def test_list_even_seven(capsys):
    code, out, _ = run(capsys, "list", "--n", "7", "--parity", "even")
    assert code == EXIT_OK
    assert out.splitlines() == ["2+1+3+1", "3+1+2+1", "4+3", "5+2", "6+1"]


def test_list_odd_eight(capsys):
    code, out, _ = run(capsys, "list", "--n", "8", "--parity", "odd")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 9
    assert "8" in lines
    assert "2+1+2+1+2" in lines
    assert lines == sorted(lines, key=lambda s: [int(p) for p in s.split("+")])


def test_list_empty_is_success(capsys):
    code, out, _ = run(capsys, "list", "--n", "2", "--parity", "even")
    assert code == EXIT_OK
    assert out == ""


# ------------------------------------------------------------- asymptotics


def test_asymptotics_default_digits(capsys):
    code, out, _ = run(capsys, "asymptotics", "--digits", "20")
    assert code == EXIT_OK
    lines = dict(line.split(" = ") for line in out.splitlines())
    assert lines["rho"] == "0.62790100891848093729"
    assert lines["growth"] == "1.592607729238141564"
    assert lines["c_even"] == "0.18236795113048885315"
    assert lines["c_odd"] == "0.21701049107523726983"
    assert lines["c_total"] == "0.39937844220572612298"
    assert lines["growth (unrestricted compositions)"] == "2"
    assert lines["growth (Carlitz compositions)"] == "1.750243"


def test_asymptotics_short_digits_round_internal_twenty(capsys):
    code, out, _ = run(capsys, "asymptotics", "--digits", "5")
    assert code == EXIT_OK
    lines = dict(line.split(" = ") for line in out.splitlines())
    assert lines["rho"] == "0.6279"
    assert lines["growth"] == "1.5926"
    assert lines["c_total"] == "0.39938"


def test_asymptotics_fifteen_digit_growth(capsys):
    code, out, _ = run(capsys, "asymptotics", "--digits", "15")
    _, growth = next(l for l in out.splitlines() if l.startswith("growth = ")).split(" = ")
    assert growth == "1.59260772923814"


def test_asymptotics_digits_bound(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["asymptotics", "--help"])
    assert exc.value.code == EXIT_OK
    assert f"1 to {cli.MAX_DIGITS}" in capsys.readouterr().out
    # the largest value in use: perfbench/make_reference.py checks at 140 digits
    for digits in (1, 140, cli.MAX_DIGITS):
        args = cli.build_parser().parse_args(["asymptotics", "--digits", str(digits)])
        assert args.digits == digits
    for digits in (cli.MAX_DIGITS + 1, 100_000):
        with pytest.raises(SystemExit) as exc:
            main(["asymptotics", "--digits", str(digits)])
        assert exc.value.code == EXIT_USAGE
        assert f"must be <= {cli.MAX_DIGITS}, got {digits}" in capsys.readouterr().err


def test_asymptotics_precision_failure_exit(capsys, monkeypatch):
    # every numeric error type maps to exit 5 and one stderr line
    for error in (PrecisionError, DomainError):
        def broken(*args, error=error, **kwargs):
            raise error("numeric failure")

        # the int core that the command calls
        monkeypatch.setattr(_pole, "find_rho", broken)
        code, out, err = run(capsys, "asymptotics")
        assert (code, out, err) == (EXIT_PRECISION, "", "error: numeric failure\n"), error


def test_asymptotics_non_root_exit(capsys, monkeypatch):
    # the int core that the command calls, returning a real pass at
    # rho = 1/2^1 at the working digits
    def not_a_root(digits, *args, **kwargs):
        return _pole.ksums(1, 1, digits + GUARD_DIGITS)

    monkeypatch.setattr(_pole, "find_rho", not_a_root)
    code, out, err = run(capsys, "asymptotics")
    assert code == EXIT_PRECISION
    assert out == ""
    assert err.startswith("error: ") and "is not a root of D" in err
    assert err.count("\n") == 1


def test_asymptotics_makes_no_pass_beyond_find_rho(capsys, monkeypatch):
    # the constants are read off the pass that confirmed the root
    real, calls = _pole.ksums, []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(_pole, "ksums", counting)
    _pole.find_rho(50)  # the command runs find_rho at --digits itself
    alone = len(calls)
    code, _, _ = run(capsys, "asymptotics", "--digits", "50")
    assert code == EXIT_OK
    assert len(calls) == 2 * alone
    assert calls[alone:] == calls[:alone]


@pytest.mark.parametrize("digits", [10, 20, 50])
def test_asymptotics_prints_the_pass_that_find_rho_confirmed(capsys, digits):
    # no guard of the command's own: the five constants are those of
    # find_rho's pass at --digits
    values, wp = _pole.amplitudes(_pole.find_rho(digits), digits)
    code, out, _ = run(capsys, "asymptotics", "--digits", str(digits))
    assert code == EXIT_OK
    names = ("rho", "growth", "c_even", "c_odd", "c_total")
    expected = [f"{name} = {_pole.nstr(v, wp, digits)}" for name, v in zip(names, values)]
    assert out.splitlines()[:5] == expected


def test_asymptotics_matches_committed_digests(capsys):
    # scripts/cli_sweep.py checks every --digits from 0 to 1001 against this
    # file, hashing the outcome the same way; these span the ladder's shapes
    # and the benchmark's range
    path = Path(__file__).resolve().parents[1] / "scripts" / "cli_digests.txt"
    committed = {argv: digest for digest, _, argv in
                 (line.partition(" ") for line in path.read_text().splitlines())}
    for digits in ("1", "5", "20", "27", "50", "73", "80", "111", "300"):
        code, out, err = run(capsys, "asymptotics", "--digits", digits)
        assert code == EXIT_OK
        digest = hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()
        assert digest == committed[f"asymptotics --digits {digits}"], digits


# ----------------------------------------------------------------- verify


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "10", "--order", "32")
    assert code == EXIT_OK
    assert "verify: PASS" in out
    assert out.count("ok: ") >= 6
    assert "FAIL" not in out


def test_verify_detects_injected_fault(capsys, monkeypatch, clean_gf_caches):
    real = gf.even_series

    def corrupted(order):
        return real(order) + TruncatedSeries.monomial(7, order)

    monkeypatch.setattr(gf, "even_series", corrupted)
    code, out, _ = run(capsys, "verify", "--max-n", "10", "--order", "32")
    assert code == EXIT_MISMATCH
    assert "FAIL" in out
    assert "verify: FAIL" in out


@pytest.mark.parametrize("order", [28, 29, 450, 600, 1000])
def test_verify_growth_check_passes_where_the_ratio_errors_oscillate(capsys, order):
    # the subdominant pole pairs are complex, so the ratio errors at the
    # three samples need not fall in turn (at order 28 they read 0.0074,
    # 0.0096, 2.6e-5); the check bounds the last one by 10^(-n/10)
    code, out, _ = run(capsys, "verify", "--max-n", "3", "--order", str(order))
    assert code == EXIT_OK
    assert out.splitlines()[-1] == "verify: PASS"


@pytest.mark.parametrize("order", [300, 600])
def test_verify_growth_check_rejects_a_root_off_by_1e_10(capsys, monkeypatch, order):
    from mpmath import mpf

    real = asymptotics.find_rho
    monkeypatch.setattr(asymptotics, "find_rho", lambda digits: real(digits) * (1 + mpf("1e-10")))
    code, out, _ = run(capsys, "verify", "--max-n", "3", "--order", str(order))
    assert code == EXIT_MISMATCH
    samples = (order // 4, order // 2, 3 * order // 4)
    assert re.search(
        rf"^FAIL: growth-ratio convergence at n={re.escape(str(samples))}: "
        r"errors \['[^']+', '[^']+', '[^']+'\]$", out, re.MULTILINE)
    assert out.splitlines()[-1] == "verify: FAIL (1 check(s) failed)"


def test_verify_max_n_above_cap_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--max-n", "40")
    assert code == EXIT_USAGE
    assert "cap" in err


def test_verify_cap_below_the_golden_listings_is_usage_error(capsys, monkeypatch):
    # the golden listings enumerate n = 8 whatever --max-n is, so a smaller
    # cap is refused before the first line prints
    monkeypatch.setenv(cli.CAP_ENV_VAR, "7")
    assert run(capsys, "verify", "--max-n", "5") == (
        EXIT_USAGE,
        "",
        "error: the golden listings enumerate n=8, which exceeds the brute-force cap 7\n",
    )
    monkeypatch.setenv(cli.CAP_ENV_VAR, "8")
    code, out, _ = run(capsys, "verify", "--max-n", "5", "--order", "10")
    assert code == EXIT_OK and out.endswith("verify: PASS\n")


# -------------------------------------------------------- exit codes / env


def test_cap_exceeded_exit(capsys):
    code, _, err = run(capsys, "count", "--n", "40", "--method", "brute")
    assert code == EXIT_CAP
    assert "cap" in err


def test_gf_count_not_capped(capsys):
    code, out, _ = run(capsys, "count", "--n", "40", "--method", "gf")
    assert code == EXIT_OK
    assert out.startswith("n=40 ")


def test_env_cap_override(capsys, monkeypatch):
    monkeypatch.setenv(cli.CAP_ENV_VAR, "10")
    code, _, _ = run(capsys, "count", "--n", "12", "--method", "brute")
    assert code == EXIT_CAP
    code, _, _ = run(capsys, "list", "--n", "12")
    assert code == EXIT_CAP
    code, out, _ = run(capsys, "count", "--n", "10", "--method", "brute")
    assert code == EXIT_OK


def test_env_cap_garbage_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv(cli.CAP_ENV_VAR, "lots")
    code, _, err = run(capsys, "count", "--n", "5", "--method", "brute")
    assert code == EXIT_USAGE
    assert cli.CAP_ENV_VAR in err


def test_env_cap_below_one_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv(cli.CAP_ENV_VAR, "0")
    code, out, err = run(capsys, "count", "--n", "5", "--method", "brute")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: {cli.CAP_ENV_VAR} must be >= 1, got 0\n"


@pytest.mark.parametrize("method", ["gf", "slice"])
def test_env_cap_is_read_only_where_brute_force_runs(capsys, monkeypatch, method):
    # the exact paths are not capped, so a bad cap value cannot fail them
    monkeypatch.setenv(cli.CAP_ENV_VAR, "lots")
    code, out, err = run(capsys, "count", "--n", "5", "--method", method)
    assert (code, out, err) == (EXIT_OK, "n=5 even=2 odd=2 total=4\n", "")


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["count", "--n", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["series", "--format", "yaml"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--n", "abc"],
        ["list", "--n", "1.5"],
        ["series", "--order", "abc"],
        ["verify", "--max-n", "abc"],
        ["verify", "--order", ""],
        ["asymptotics", "--digits", "abc"],
    ],
)
def test_non_integer_arguments_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument {argv[1]}: must be an integer, got {argv[2]!r}\n")


# ---------------------------------------------------------------- parsing

# argparse's help and usage text at 80 columns (CPython 3.11), recorded
# before the strict parse existed: building the parser from the option
# table must not change a byte of it
_COUNT_USAGE = """\
usage: arndt-carlitz count [-h] --n N [--parity {even,odd,all}]
                           [--method {brute,gf,slice}]
"""
_SERIES_USAGE = """\
usage: arndt-carlitz series [-h] [--order ORDER] [--parity {even,odd,all}]
                            [--format {plain,json,csv,bfile}]
"""
_TOP_USAGE = """\
usage: arndt-carlitz [-h] {count,series,list,asymptotics,verify} ...
"""
_HELP_AND_USAGE_TEXT = [
    (["--help"], EXIT_OK, _TOP_USAGE + """
Exact counting and asymptotics for Arndt-Carlitz compositions.

positional arguments:
  {count,series,list,asymptotics,verify}
    count               count compositions of n by parity
    series              emit counting-series coefficients
    list                list the compositions of n
    asymptotics         dominant pole and residue constants
    verify              run the cross-verification harness

options:
  -h, --help            show this help message and exit
""", ""),
    (["count", "--help"], EXIT_OK, _COUNT_USAGE + """
options:
  -h, --help            show this help message and exit
  --n N
  --parity {even,odd,all}
  --method {brute,gf,slice}
""", ""),
    (["series", "--help"], EXIT_OK, _SERIES_USAGE + """
options:
  -h, --help            show this help message and exit
  --order ORDER
  --parity {even,odd,all}
  --format {plain,json,csv,bfile}
""", ""),
    (["list", "--help"], EXIT_OK, """\
usage: arndt-carlitz list [-h] --n N [--parity {even,odd,all}]

options:
  -h, --help            show this help message and exit
  --n N
  --parity {even,odd,all}
""", ""),
    (["asymptotics", "--help"], EXIT_OK, """\
usage: arndt-carlitz asymptotics [-h] [--digits DIGITS]

options:
  -h, --help       show this help message and exit
  --digits DIGITS  significant digits, 1 to 1000 (default 20)
""", ""),
    (["verify", "--help"], EXIT_OK, """\
usage: arndt-carlitz verify [-h] [--max-n MAX_N] [--order ORDER]

options:
  -h, --help     show this help message and exit
  --max-n MAX_N
  --order ORDER
""", ""),
    (["count"], EXIT_USAGE, "", _COUNT_USAGE + (
        "arndt-carlitz count: error: the following arguments are required: --n\n")),
    (["series", "--format", "yaml"], EXIT_USAGE, "", _SERIES_USAGE + (
        "arndt-carlitz series: error: argument --format: invalid choice: 'yaml' "
        "(choose from 'plain', 'json', 'csv', 'bfile')\n")),
    ([], EXIT_USAGE, "", _TOP_USAGE + (
        "arndt-carlitz: error: the following arguments are required: command\n")),
]


@pytest.mark.parametrize("argv, code, out, err", _HELP_AND_USAGE_TEXT,
                         ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_help_and_usage_text(capsys, monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    assert capsys.readouterr() == (out, err)


# the grammar's tokens, exact and not: every flag of the table, abbreviated,
# with "=value", and values valid, out of range, negative, empty, padded
# with whitespace or outside the choices
_FLAGS = sorted({flag[0] for _, _, flags in cli.COMMANDS.values() for flag in flags})
_NUMBERS = st.integers(-3, 1002).map(str)
_VALUES = st.one_of(
    _NUMBERS,
    st.sampled_from(["", " 5", "7 ", "+5", "1_0", "abc", "1.5", "-0", "-1e3",
                     "all", "even", "odd", "ALL", " odd", "brute", "gf", "slice",
                     "plain", "json", "csv", "bfile", "yaml", "count", "--n"]),
)
_ODD_TOKENS = st.one_of(
    st.sampled_from(["-h", "--help", "--", "--bogus", "-n", "--n=", "--ord", "--pa",
                     "--me", "--for", "--dig", "--max", "--max-n=16"]),
    st.tuples(st.sampled_from(_FLAGS), _VALUES).map("=".join),
)


@st.composite
def _argvs(draw):
    # a known command three times as often as a bad one
    command = draw(st.sampled_from([*cli.COMMANDS] * 3 + ["coun", "bogus", "-h", "--", ""]))
    own = cli.COMMANDS[command][2] if command in cli.COMMANDS else ()
    argv = [command]
    # flags of the command, each once, mostly with a value of their kind
    for flag, _, rule, *_ in draw(st.lists(st.sampled_from(own), unique=True) if own
                                  else st.just([])):
        fitting = st.sampled_from(rule) if isinstance(rule, tuple) else _NUMBERS
        argv += [flag, draw(fitting if draw(st.integers(0, 3)) else _VALUES)]
    # then up to two stray tokens or pairs, anywhere after the command
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 2]))):
        stray = draw(st.tuples(st.sampled_from(_FLAGS), _VALUES).map(list)
                     | _ODD_TOKENS.map(lambda token: [token]))
        at = draw(st.integers(1, len(argv)))
        argv[at:at] = stray
    return argv


@settings(max_examples=400, deadline=None)
@given(_argvs())
def test_strict_parse_agrees_with_argparse(argv):
    # the strict parse declines an argv, or returns argparse's namespace
    strict = cli._parse_strict(argv)
    if strict is None:
        return
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            parsed = vars(cli.build_parser().parse_args(argv))
    except SystemExit:  # argparse rejects what the strict parse accepted
        parsed = None
    assert vars(strict) == parsed


def test_count_parity_odd(capsys):
    code, out, _ = run(capsys, "count", "--n", "8", "--parity", "odd", "--method", "brute")
    assert code == EXIT_OK
    assert out == "n=8 odd=9\n"


def test_series_bfile_order_zero_is_empty(capsys):
    code, out, _ = run(capsys, "series", "--order", "0", "--format", "bfile")
    assert code == EXIT_OK
    assert out == ""


def test_verify_small_order_skips_ratio_check(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "5", "--order", "10")
    assert code == EXIT_OK
    assert "skipped: growth-ratio convergence" in out
    assert "verify: PASS" in out


# ------------------------------------------------------- lazy numeric layer

# the int core `_pole` and mpmath are imported only inside the functions
# that need them; logging is never imported by the package (DEBUG records
# need it loaded by the caller)
NUMERIC_MODULES = ("arndt_carlitz._pole", "mpmath", "logging")

# the exact layer: gf and series load only with the commands that build
# series; the package never imports fractions
EXACT_MODULES = ("arndt_carlitz.gf", "arndt_carlitz.series", "fractions")

# the bivariate carrier, which no command runs, and the checks only verify runs
PRIVATE_MODULES = ("arndt_carlitz._bivariate", "arndt_carlitz._verify")

# runs each argv through cli.main in one fresh interpreter and prints, per
# call, its exit code and which of the given modules are loaded after it.
# The probe itself loads neither json nor argparse: its lists go in and
# out as Python literals
_PROBE = """
import ast, contextlib, io, sys
from arndt_carlitz.cli import main
modules = ast.literal_eval(sys.argv[2])
for argv in ast.literal_eval(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
    print(repr([code, [m for m in modules if m in sys.modules]]))
"""


def probe_modules(*argvs, modules=NUMERIC_MODULES):
    # the child imports the package from this process's path: the tree under test
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, repr(argvs), repr(modules)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        capture_output=True, text=True, check=True, timeout=120,
    )
    return [ast.literal_eval(line) for line in done.stdout.splitlines()]


# argparse (which loads gettext) parses only what the strict parse declines
PARSER_MODULES = ("argparse", "gettext")


def test_exact_commands_never_load_the_numeric_layer():
    argvs = [["series", "--order", "40", "--parity", parity, "--format", fmt]
             for parity in ("all", "even", "odd")
             for fmt in ("plain", "json", "csv", "bfile")]
    argvs += [["count", "--n", "12", "--method", m] for m in ("gf", "slice")]
    # the package's records are NamedTuples: dataclasses stays unloaded too,
    # as does fractions, which the package never imports; the slice path
    # runs on dense rows, without the bivariate carrier; the json line is
    # built without json
    modules = (NUMERIC_MODULES + PRIVATE_MODULES + PARSER_MODULES
               + ("dataclasses", "fractions", "json"))
    assert probe_modules(*argvs, modules=modules) == [[EXIT_OK, []]] * len(argvs)
    # brute force and listing build no series: one process without gf
    argvs = [["count", "--n", "12", "--method", "brute"], ["list", "--n", "8"]]
    modules = (NUMERIC_MODULES + EXACT_MODULES + PRIVATE_MODULES + PARSER_MODULES
               + ("dataclasses",))
    assert probe_modules(*argvs, modules=modules) == [[EXIT_OK, []]] * len(argvs)


@pytest.mark.parametrize(
    "argv", [["asymptotics", "--digits", "20"], ["verify", "--order", "24"]]
)
def test_numeric_commands_load_the_numeric_layer(argv):
    # asymptotics runs on the int core alone, from argv to stdout, and prints
    # with its nstr; verify checks the series, the slice path among them,
    # and reads rho from the public mpf find_rho
    loaded = {"asymptotics": ["arndt_carlitz._pole"],
              "verify": ["arndt_carlitz._pole", "mpmath",
                         "arndt_carlitz.gf", "arndt_carlitz.series",
                         "arndt_carlitz._verify"]}[argv[0]]
    modules = NUMERIC_MODULES + EXACT_MODULES + PRIVATE_MODULES + PARSER_MODULES
    assert probe_modules(argv, modules=modules) == [[EXIT_OK, loaded]]


def test_malformed_command_line_loads_argparse():
    # the strict parse declines --n 0, and argparse prints the usage error
    assert probe_modules(["count", "--n", "0"], modules=PARSER_MODULES) == [
        [EXIT_USAGE, list(PARSER_MODULES)]
    ]


def test_verify_as_main_module_imports_the_cli_only_once():
    # under `python -m` the CLI runs as __main__: an import of
    # arndt_carlitz.cli would compile it again, with a second UsageError
    done = run_python("-X", "importtime", "-m", "arndt_carlitz.cli",
                      "verify", "--max-n", "8", "--order", "24")
    assert done.returncode == EXIT_OK
    imported = {line.rsplit("|", 1)[-1].strip()
                for line in done.stderr.splitlines() if line.startswith("import time:")}
    assert "arndt_carlitz._verify" in imported
    assert "arndt_carlitz.cli" not in imported


def test_unrelated_exception_is_not_mapped_to_exit_five(monkeypatch):
    boom = RuntimeError("not a numeric failure")

    def broken(order):
        raise boom

    # `series --parity all` reads gf.total_series: patch it rather than
    # something it calls
    monkeypatch.setattr(gf, "total_series", broken)
    with pytest.raises(RuntimeError) as exc:
        main(["series", "--order", "8"])
    assert exc.value is boom


# --------------------------------------------------------------- gf caches

def test_every_gf_cache_is_reread_by_a_command(capsys):
    # a gf function is memoised only when one command reads its value more
    # than once: over one command of each shape that calls gf, with every
    # cache cleared before each command, each cache returns a stored value
    commands = [
        *(["series", "--order", "160", "--parity", p] for p in ("all", "even", "odd")),
        *(["count", "--n", "40", "--parity", p] for p in ("all", "even", "odd")),
        ["count", "--n", "40", "--method", "slice"],
        ["verify", "--max-n", "14", "--order", "60"],
        ["verify", "--max-n", "16", "--order", "96"],
        ["verify", "--max-n", "12", "--order", "12"],
    ]
    caches = {name: f for name, f in vars(gf).items() if hasattr(f, "cache_info")}
    hits = dict.fromkeys(caches, 0)
    for argv in commands:
        for f in caches.values():
            f.cache_clear()
        assert run(capsys, *argv)[0] == EXIT_OK, argv
        for name, f in caches.items():
            hits[name] += f.cache_info().hits
    never_hit = [name for name, n in hits.items() if not n]
    assert not never_hit, never_hit


# ------------------------------------------------- one write per result


class RecordingRaw(io.RawIOBase):
    """An unbuffered binary stream that records every write it is given."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def writable(self):
        return True

    def write(self, data):
        self.writes.append(bytes(data))
        return len(data)


@pytest.mark.parametrize("argv", [
    *(["series", "--order", order, "--format", fmt]
      for order in ("40", "0") for fmt in ("plain", "json", "csv", "bfile")),
    ["list", "--n", "8"],
    ["list", "--n", "1", "--parity", "even"],  # empty
    *(["count", "--n", "12", "--method", method] for method in ("brute", "gf", "slice")),
    ["asymptotics", "--digits", "20"],
], ids=" ".join)
def test_each_result_is_written_once(capsys, monkeypatch, argv):
    # stdout as -u (PYTHONUNBUFFERED) builds it: a write-through text layer
    # straight over the raw file, so each write becomes a write(2) of its own
    _, expected, _ = run(capsys, *argv)
    raw = RecordingRaw()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="utf-8",
                                                        write_through=True))
    assert main(argv) == EXIT_OK
    assert len(raw.writes) <= 1
    assert b"".join(raw.writes).decode() == expected


def test_full_raw_stdout_is_a_blocking_error(monkeypatch):
    # a raw non-blocking stdout returns None from write when it is full:
    # that is no count of bytes written, and the write must not go on
    class FullRaw(RecordingRaw):
        def write(self, data):
            return None

    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(FullRaw(), encoding="utf-8",
                                                        write_through=True))
    with pytest.raises(BlockingIOError, match="stdout is full"):
        main(["count", "--n", "8"])


# --------------------------------------------------------- process entry

def child_env(unbuffered=True):
    # the environment of a fresh interpreter on the tree under test,
    # PYTHONUNBUFFERED set or cleared
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def run_python(*argv, unbuffered=True, stdout=subprocess.PIPE, preexec_fn=None):
    return subprocess.run(
        [sys.executable, *argv], env=child_env(unbuffered), stdout=stdout,
        stderr=subprocess.PIPE, text=True, timeout=120, preexec_fn=preexec_fn,
    )


def test_in_process_main_freezes_nothing(capsys):
    # only the process entry run() turns the collector off: a long-lived
    # caller of main keeps ordinary garbage collection
    assert gc.isenabled()
    before = gc.get_freeze_count()
    assert run(capsys, "count", "--n", "8") == (EXIT_OK, "n=8 even=7 odd=9 total=16\n", "")
    assert gc.isenabled()
    assert gc.get_freeze_count() == before


def test_text_only_stdout_gets_the_same_text():
    # a stream without a binary buffer, such as io.StringIO, takes the text
    # itself: the same text as a process's real stdout
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert main(["count", "--n", "9"]) == EXIT_OK
    done = run_python("-m", "arndt_carlitz.cli", "count", "--n", "9")
    assert (done.returncode, done.stdout) == (EXIT_OK, text.getvalue())
    assert text.getvalue() == "n=9 even=12 odd=15 total=27\n"


_ATEXIT_PROBE = """
import atexit, runpy, sys
# no newline: a line-buffered stderr holds the text until a flush
atexit.register(lambda: print("atexit ran", end="", file=sys.stderr))
sys.argv = ["arndt-carlitz", "count", "--n", "8"]
runpy.run_module("arndt_carlitz.cli", run_name="__main__")
"""


def test_process_exit_still_runs_atexit_handlers():
    # run() ends in os._exit after the atexit handlers and a flush of
    # stderr: unbuffered and block-buffered, the handler's unfinished line
    # and the whole result still arrive
    for unbuffered in (True, False):
        done = run_python("-c", _ATEXIT_PROBE, unbuffered=unbuffered)
        assert (done.returncode, done.stdout, done.stderr) == (
            EXIT_OK, "n=8 even=7 odd=9 total=16\n", "atexit ran"
        ), unbuffered


def main_result(capsys, argv):
    # the code, stdout and stderr of main in process, argparse's SystemExit
    # taken as its code
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv, code", [
    (["count", "--n", "8"], EXIT_OK),
    (["asymptotics", "--digits", "0"], EXIT_USAGE),  # argparse's SystemExit
    (["count", "--n", "31", "--method", "brute"], EXIT_CAP),
    (["--help"], EXIT_OK),  # argparse's SystemExit after the help text
    (["verify", "--max-n", "8", "--order", "24"], EXIT_OK),  # one print per check
])
def test_process_exit_codes(capsys, monkeypatch, argv, code):
    # os._exit drops what a buffer still holds, so the process, unbuffered
    # and with stdout block-buffered into the pipe, must deliver exactly
    # what main prints in process.  COLUMNS gives argparse's help the same
    # width in both, even when fd 1 of the test is a terminal
    monkeypatch.setenv("COLUMNS", "80")
    expected = main_result(capsys, argv)
    assert expected[0] == code
    for unbuffered in (True, False):
        done = run_python("-m", "arndt_carlitz.cli", *argv, unbuffered=unbuffered)
        assert (done.returncode, done.stdout, done.stderr) == expected, unbuffered
    _, out, err = expected
    if argv == ["--help"]:
        assert out.startswith("usage: arndt-carlitz")
    if argv[0] == "verify":
        assert out.count("\n") > 1 and out.endswith("\nverify: PASS\n")
    if code == EXIT_CAP:
        assert err.startswith("error: n=31 exceeds brute-force cap 30;")
        assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["count", "--n", "1000000000000"],
    ["count", "--n", "1000000000000", "--method", "slice"],
    ["series", "--order", "1000000000000"],
    ["verify", "--order", "1000000000000"],  # after its first lines
])
def test_size_beyond_memory_is_a_usage_error(argv):
    # the child's address space is capped at 1 GiB, so the allocation
    # fails at once instead of paging
    resource = pytest.importorskip("resource")

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    done = run_python("-m", "arndt_carlitz.cli", *argv, preexec_fn=cap_memory)
    assert done.returncode == EXIT_USAGE
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("unbuffered", [True, False])
def test_closed_output_pipe_exits_one_silently(unbuffered):
    # the pipe is closed before the child starts.  Unbuffered, the write
    # inside the command fails; buffered, a result that fits the 8 KiB
    # buffer (count, and the 6 KB b-file) fails at the flush in run(),
    # while the 173 KB of list --n 22 fails inside the command
    for argv in (["count", "--n", "8"], ["list", "--n", "22"],
                 ["series", "--order", "224", "--format", "bfile"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = run_python("-m", "arndt_carlitz.cli", *argv,
                              unbuffered=unbuffered, stdout=write_end)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (EXIT_BROKEN_PIPE, ""), argv


@pytest.mark.parametrize("unbuffered", [True, False])
def test_reader_closing_mid_write_exits_one_silently(unbuffered):
    # the reader takes one line, then closes the pipe while the child is
    # still writing the 173 KB of list --n 22, more than a pipe holds: the
    # short write that the closed pipe ends must not pass for a full one
    child = subprocess.Popen(
        [sys.executable, "-m", "arndt_carlitz.cli", "list", "--n", "22"],
        env=child_env(unbuffered), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        assert child.stdout.readline() == b"2+1+2+1+2+1+2+1+2+1+2+1+3+1\n"
        child.stdout.close()
        err = child.stderr.read()
        assert (child.wait(timeout=120), err) == (EXIT_BROKEN_PIPE, b"")
    finally:
        child.kill()
        child.wait()
        child.stdout.close()
        child.stderr.close()
