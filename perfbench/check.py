"""Check the stdout of one CLI call against the stored reference data.

reference.json holds the counting coefficients to order 256 for each
parity and the constants rho, growth and c_* to 120 digits; run
make_reference.py to rebuild and cross-check it.  The checker parses each
stdout and compares values, so it flags wrong numbers, missing or extra
lines and unparsable output alike.
"""

from __future__ import annotations

import json
from decimal import Decimal, InvalidOperation
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

CONSTANTS = ("rho", "growth", "c_even", "c_odd", "c_total")


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())


def _options(argv: list[str]) -> dict[str, str]:
    return dict(zip(argv[1::2], argv[2::2]))


def _coefficients(ref: dict, parity: str, order: int) -> list[int]:
    coeffs = ref["coefficients"]["total" if parity == "all" else parity]
    if order >= len(coeffs):
        raise ValueError(f"reference holds no coefficient of z^{order}")
    return coeffs[: order + 1]


def _check_series(opts: dict[str, str], stdout: str, ref: dict) -> str | None:
    order = int(opts["--order"])
    parity = opts.get("--parity", "all")
    fmt = opts.get("--format", "plain")
    expected = _coefficients(ref, parity, order)
    lines = stdout.splitlines()
    if fmt == "plain":
        ok = len(lines) == 1 and [int(t) for t in lines[0].split(" ")] == expected
    elif fmt == "bfile":
        got = [tuple(int(t) for t in line.split(" ")) for line in lines]
        ok = got == [(n, expected[n]) for n in range(1, order + 1)]
    elif fmt == "json":
        ok = json.loads(stdout) == {
            "query": "series",
            "parity": parity,
            "method": "gf",
            "order": order,
            "coefficients": expected,
        }
    else:
        return f"no checker for --format {fmt}"
    return None if ok else f"{parity} coefficients to order {order} differ from the reference"


def _check_count(opts: dict[str, str], stdout: str, ref: dict) -> str | None:
    n = int(opts["--n"])
    parity = opts.get("--parity", "all")
    fields = {p: _coefficients(ref, p, n)[n] for p in ("even", "odd", "total")}
    shown = fields if parity == "all" else {parity: fields[parity]}
    expected = [f"n={n}"] + [f"{k}={v}" for k, v in shown.items()]
    lines = stdout.splitlines()
    if len(lines) == 1 and lines[0].split(" ") == expected:
        return None
    return f"count of n={n} differs from the reference"


def digits_match(shown: str, reference: str, digits: int) -> bool:
    """True if `shown` is `reference` rounded to `digits` significant digits.

    The reference carries far more digits than any op asks for, so a
    correctly rounded value lies within half a unit in the last place.
    """
    value, ref = Decimal(shown), Decimal(reference)
    if len(value.as_tuple().digits) > digits:
        return False
    ulp = Decimal(10) ** (ref.adjusted() - digits + 1)
    return abs(value - ref) <= ulp / 2


def _check_asymptotics(opts: dict[str, str], stdout: str, ref: dict) -> str | None:
    digits = int(opts.get("--digits", "20"))
    lines = stdout.splitlines()
    if len(lines) != len(CONSTANTS) + len(ref["asymptotics_tail"]):
        return f"expected {len(CONSTANTS) + len(ref['asymptotics_tail'])} lines, got {len(lines)}"
    for name, line in zip(CONSTANTS, lines):
        label, sep, value = line.partition(" = ")
        if label != name or not sep:
            return f"expected a '{name} = ...' line, got {line!r}"
        if not digits_match(value, ref["constants"][name], digits):
            return f"{name} = {value} is not the reference rounded to {digits} digits"
    if lines[len(CONSTANTS):] != ref["asymptotics_tail"]:
        return "comparison growth lines differ from the reference"
    return None


def _check_verify(opts: dict[str, str], stdout: str, ref: dict) -> str | None:
    lines = stdout.splitlines()
    if any(line.startswith("FAIL") for line in lines) or lines[-1:] != ["verify: PASS"]:
        return "verify did not end in 'verify: PASS'"
    return None


CHECKERS = {
    "series": _check_series,
    "count": _check_count,
    "asymptotics": _check_asymptotics,
    "verify": _check_verify,
}


def check(argv: list[str], exit_code: int, stdout: str, ref: dict) -> str | None:
    """None when the call exited 0 and printed the reference; else a reason."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    checker = CHECKERS.get(argv[0])
    if checker is None:
        return f"no checker for command {argv[0]!r}"
    try:
        return checker(_options(argv), stdout, ref)
    except (ValueError, InvalidOperation, KeyError) as exc:
        return f"unparsable output: {exc!r}"
