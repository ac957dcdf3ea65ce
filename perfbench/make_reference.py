"""Rebuild perfbench/reference.json from the engine in src/ and cross-check it.

Usage, from the repository root:

    python3 perfbench/make_reference.py

Coefficients come from the closed-form path, series_bundle(256).  The
slice recurrence (to order 64) and brute-force enumeration (n <= 18) must
agree with them on their range.  The constants come from
`arndt-carlitz asymptotics --digits 120`; a `--digits 140` run must round
to the same 120 digits.  The script stops without writing if any check
fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from decimal import Context, Decimal
from pathlib import Path

from check import CONSTANTS, REFERENCE_PATH

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

ORDER = 256
SLICE_ORDER = 64
BRUTE_MAX_N = 18
DIGITS = 120
CHECK_DIGITS = 140


def asymptotics_lines(digits: int) -> list[str]:
    out = subprocess.run(
        [sys.executable, "-m", "arndt_carlitz.cli", "asymptotics", "--digits", str(digits)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, check=True,
    )
    return out.stdout.splitlines()


def constants(lines: list[str]) -> dict[str, str]:
    return {name: line.split(" = ")[1] for name, line in zip(CONSTANTS, lines)}


def main() -> int:
    sys.path.insert(0, str(SRC))
    from arndt_carlitz import count_brute_force, series_bundle, slice_bundle

    bundle = series_bundle(ORDER)
    coeffs = {
        parity: [int(c) for c in getattr(bundle, parity).coeffs]
        for parity in ("even", "odd", "total")
    }
    sliced = slice_bundle(SLICE_ORDER)
    for parity in ("even", "odd", "total"):
        got = [int(c) for c in getattr(sliced, parity).coeffs]
        if got != coeffs[parity][: SLICE_ORDER + 1]:
            sys.exit(f"slice recurrence disagrees on the {parity} series")
    for n in range(1, BRUTE_MAX_N + 1):
        brute = count_brute_force(n, cap=BRUTE_MAX_N)
        if tuple(brute) != (coeffs["even"][n], coeffs["odd"][n], coeffs["total"][n]):
            sys.exit(f"brute force disagrees at n={n}: {tuple(brute)}")

    lines = asymptotics_lines(DIGITS)
    values = constants(lines)
    finer = constants(asymptotics_lines(CHECK_DIGITS))
    rounding = Context(prec=DIGITS)
    for name in CONSTANTS:
        if rounding.plus(Decimal(finer[name])) != Decimal(values[name]):
            sys.exit(f"{name} at {CHECK_DIGITS} digits does not round to the {DIGITS}-digit value")

    reference = {
        "coefficients": coeffs,
        "constants": values,
        "asymptotics_tail": lines[len(CONSTANTS):],
        "cross_checked": {
            "slice_order": SLICE_ORDER,
            "brute_max_n": BRUTE_MAX_N,
            "constants_digits": CHECK_DIGITS,
        },
    }
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {REFERENCE_PATH.name}: order {ORDER}, {DIGITS}-digit constants, "
          "cross-checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
