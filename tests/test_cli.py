import json
import os
import subprocess
import sys

import pytest

from arndt_carlitz import _pole, cli, gf
from arndt_carlitz.asymptotics import (
    BracketError,
    DegeneratePoleError,
    DomainError,
    PrecisionError,
)
from arndt_carlitz.cli import EXIT_CAP, EXIT_MISMATCH, EXIT_OK, EXIT_PRECISION, EXIT_USAGE, main
from arndt_carlitz.series import TruncatedSeries


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def clean_gf_caches():
    # fault injection below corrupts inputs of cached gf functions; drop
    # anything computed during the test so later tests see honest values
    # (bind the real cached functions now, before the test patches them)
    cached = (
        gf.alpha_series,
        gf.beta_series,
        gf.numerator_series,
        gf.denominator_series,
        gf.even_series,
        gf.fzz_series,
        gf.odd_series,
        gf.total_series,
        gf.slice_iteration_series,
    )
    yield
    for fn in cached:
        fn.cache_clear()


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


def test_count_methods_agree(capsys):
    lines = set()
    for method in ("brute", "gf", "slice"):
        _, out, _ = run(capsys, "count", "--n", "11", "--method", method)
        lines.add(out)
    assert lines == {"n=11 even=30 odd=36 total=66\n"}


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
    _, plain, _ = run(capsys, "series", "--order", "9")
    _, as_json, _ = run(capsys, "series", "--order", "9", "--format", "json")
    _, csv_text, _ = run(capsys, "series", "--order", "9", "--format", "csv")
    _, bfile, _ = run(capsys, "series", "--order", "9", "--format", "bfile")
    from_plain = [int(t) for t in plain.split()]
    from_json = json.loads(as_json)["coefficients"]
    from_csv = [int(line.split(",")[1]) for line in csv_text.splitlines()[1:]]
    from_bfile = [int(line.split()[1]) for line in bfile.splitlines()]
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
    for error in (BracketError, PrecisionError, DegeneratePoleError, DomainError):
        def broken(*args, error=error, **kwargs):
            raise error("numeric failure")

        # the int core that the command calls
        monkeypatch.setattr(_pole, "find_rho", broken)
        code, out, err = run(capsys, "asymptotics")
        assert (code, out, err) == (EXIT_PRECISION, "", "error: numeric failure\n"), error


def test_asymptotics_non_root_exit(capsys, monkeypatch):
    # the int core that the command calls, returning rho = 1/2^1
    monkeypatch.setattr(_pole, "find_rho", lambda *args, **kwargs: (1, 1))
    code, out, err = run(capsys, "asymptotics")
    assert code == EXIT_PRECISION
    assert out == ""
    assert err.startswith("error: ") and "is not a root of D" in err
    assert err.count("\n") == 1


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


def test_verify_max_n_above_cap_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--max-n", "40")
    assert code == EXIT_USAGE
    assert "cap" in err


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
# series, and fractions only once a non-integer coefficient shows up
EXACT_MODULES = ("arndt_carlitz.gf", "arndt_carlitz.series", "fractions")

# runs each argv through cli.main in one fresh interpreter and prints, per
# call, its exit code and which of the given modules are loaded after it
_PROBE = """
import contextlib, io, json, sys
from arndt_carlitz.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    print(json.dumps([code, [m for m in json.loads(sys.argv[2]) if m in sys.modules]]))
"""


def probe_modules(*argvs, modules=NUMERIC_MODULES):
    # the child imports the package from this process's path: the tree under test
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(argvs), json.dumps(modules)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        capture_output=True, text=True, check=True, timeout=120,
    )
    return [json.loads(line) for line in done.stdout.splitlines()]


def test_exact_commands_never_load_the_numeric_layer():
    formats = ("plain", "json", "csv", "bfile")
    argvs = [["series", "--order", "40", "--format", fmt] for fmt in formats]
    argvs += [["count", "--n", "12", "--method", m] for m in ("gf", "slice")]
    # the package's records are NamedTuples: dataclasses stays unloaded too;
    # the counting series are integral, so fractions does as well
    modules = NUMERIC_MODULES + ("dataclasses", "fractions")
    assert probe_modules(*argvs, modules=modules) == [[EXIT_OK, []]] * len(argvs)
    # brute force and listing build no series: one process without gf
    argvs = [["count", "--n", "12", "--method", "brute"], ["list", "--n", "8"]]
    modules = NUMERIC_MODULES + EXACT_MODULES + ("dataclasses",)
    assert probe_modules(*argvs, modules=modules) == [[EXIT_OK, []]] * len(argvs)


@pytest.mark.parametrize(
    "argv", [["asymptotics", "--digits", "20"], ["verify", "--order", "24"]]
)
def test_numeric_commands_load_the_numeric_layer(argv):
    # asymptotics runs on the int core alone, from argv to stdout, and prints
    # with its nstr; verify checks the series and reads rho from the public
    # mpf find_rho
    loaded = {"asymptotics": ["arndt_carlitz._pole"],
              "verify": ["arndt_carlitz._pole", "mpmath",
                         "arndt_carlitz.gf", "arndt_carlitz.series"]}[argv[0]]
    modules = NUMERIC_MODULES + EXACT_MODULES
    assert probe_modules(argv, modules=modules) == [[EXIT_OK, loaded]]


def test_unrelated_exception_is_not_mapped_to_exit_five(monkeypatch):
    boom = RuntimeError("not a numeric failure")

    def broken(order):
        raise boom

    # `series --parity all` reads gf.total_series, which is cached: patch it
    # rather than something it calls
    monkeypatch.setattr(gf, "total_series", broken)
    with pytest.raises(RuntimeError) as exc:
        main(["series", "--order", "8"])
    assert exc.value is boom
