"""Command-line interface: counting, listing, series export, asymptotics, verify.

Exit codes: 0 success, 2 usage error, 3 brute-force cap exceeded,
4 verification mismatch, 5 numeric/precision failure.

The brute-force cap (default 30) can be overridden with the
ARNDT_CARLITZ_CAP environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys

# gf (and with it series) loads only in the commands that build series;
# the parser choices and main's except clauses need these two
from . import asymptotics, compositions

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_MISMATCH = 4
EXIT_PRECISION = 5

CAP_ENV_VAR = "ARNDT_CARLITZ_CAP"

# upper bound of `asymptotics --digits`: 1000 digits take about 1 s (2-core machine)
MAX_DIGITS = 1000

# low-order reference coefficients (independently certified by enumeration)
_GOLDEN_EVEN = (0, 0, 0, 1, 1, 2, 3, 5, 7, 12, 20, 30)
_GOLDEN_ODD = (0, 1, 1, 1, 1, 2, 4, 5, 9, 15, 22, 36)
_GOLDEN_LISTINGS = {
    (7, "even"): {(6, 1), (5, 2), (4, 3), (3, 1, 2, 1), (2, 1, 3, 1)},
    (8, "even"): {(7, 1), (6, 2), (5, 3), (3, 1, 3, 1), (2, 1, 4, 1),
                  (2, 1, 3, 2), (4, 1, 2, 1)},
    (8, "odd"): {(8,), (2, 1, 5), (3, 1, 4), (3, 2, 3), (4, 1, 3),
                 (5, 1, 2), (5, 2, 1), (4, 3, 1), (2, 1, 2, 1, 2)},
}


class UsageError(ValueError):
    """Bad argument combination detected after parsing."""


def _brute_cap() -> int:
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return compositions.DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise UsageError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}")
    if cap < 1:
        raise UsageError(f"{CAP_ENV_VAR} must be >= 1, got {cap}")
    return cap


def _bounded_int(low: int, high: int | None = None):
    """argparse type for an integer in [low, high] (no upper bound if high is None)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value

    return parse


def _bundle_counts(bundle: gf.SeriesBundle, n: int) -> compositions.ParityCounts:
    even, odd = bundle.even.coefficient(n), bundle.odd.coefficient(n)
    return compositions.ParityCounts(even, odd, even + odd)


def _counts_for(n: int, method: str) -> compositions.ParityCounts:
    if method == "brute":
        return compositions.count_brute_force(n, _brute_cap())
    from . import gf

    return _bundle_counts(gf.series_bundle(n) if method == "gf" else gf.slice_bundle(n), n)


def _cmd_count(args: argparse.Namespace) -> int:
    if args.method == "gf" and args.parity == "even":
        from . import gf

        # F(z,1) alone: the bundle would also divide out F(z,z) for odd and total
        shown = {"even": gf.even_series(args.n).coefficient(args.n)}
    else:
        fields = _counts_for(args.n, args.method)._asdict()
        shown = fields if args.parity == "all" else {args.parity: fields[args.parity]}
    parts = [f"n={args.n}"] + [f"{k}={v}" for k, v in shown.items()]
    print(" ".join(parts))
    return EXIT_OK


def _cmd_series(args: argparse.Namespace) -> int:
    from . import gf

    if args.order is None:  # gf's default order: the parser does not load gf
        args.order = gf.DEFAULT_ORDER
    series = {"even": gf.even_series, "odd": gf.odd_series, "all": gf.total_series}
    coeffs = series[args.parity](args.order).coeffs
    if args.format == "plain":
        print(" ".join(str(c) for c in coeffs))
    elif args.format == "json":
        import json

        payload = {
            "query": "series",
            "parity": args.parity,
            "method": "gf",
            "order": args.order,
            "coefficients": coeffs,
        }
        print(json.dumps(payload))
    elif args.format == "csv":
        print("n,coefficient")
        for n, c in enumerate(coeffs):
            print(f"{n},{c}")
    else:  # bfile: "n a(n)" per line, starting at n=1
        out = sys.stdout
        for n in range(1, args.order + 1):
            out.write(f"{n} {coeffs[n]}\n")
    return EXIT_OK


def _cmd_list(args: argparse.Namespace) -> int:
    for c in compositions.list_arndt_carlitz(args.n, args.parity, _brute_cap()):
        print("+".join(str(p) for p in c))
    return EXIT_OK


def _cmd_asymptotics(args: argparse.Namespace) -> int:
    from . import _pole  # the int core: no mpmath on this path

    digits = args.digits
    # extra internal digits so every displayed digit is converged
    internal = max(digits, 20) + 5
    values, wp = _pole.amplitudes(*_pole.find_rho(internal), internal)
    for name, value in zip(("rho", "growth", "c_even", "c_odd", "c_total"), values):
        print(f"{name} = {_pole.nstr(value, wp, digits)}")
    print(f"growth (unrestricted compositions) = {asymptotics.UNRESTRICTED_GROWTH}")
    print(f"growth (Carlitz compositions) = {asymptotics.CARLITZ_GROWTH}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import gf

    if args.order is None:  # gf's default order: the parser does not load gf
        args.order = gf.DEFAULT_ORDER
    cap = _brute_cap()
    if args.max_n > cap:
        raise UsageError(f"--max-n {args.max_n} exceeds the brute-force cap {cap}")
    failures = 0

    def report(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        if ok:
            print(f"ok: {name}")
        else:
            failures += 1
            print(f"FAIL: {name}{': ' + detail if detail else ''}")

    golden = gf.series_bundle(11)
    for parity, expected in (("even", _GOLDEN_EVEN), ("odd", _GOLDEN_ODD)):
        got = getattr(golden, parity).coeffs
        report(f"golden {parity} series z^0..z^11", got == expected, f"got {list(got)}")
    for (n, parity), expected in _GOLDEN_LISTINGS.items():
        got = set(compositions.list_arndt_carlitz(n, parity, cap))
        report(f"golden listing n={n} parity={parity}", got == expected, f"got {sorted(got)}")

    closed = gf.series_bundle(args.max_n)
    sliced = gf.slice_bundle(args.max_n)
    all_match = True
    mismatch_detail = ""
    for n in range(1, args.max_n + 1):
        brute = compositions.count_brute_force(n, cap)
        for name, bundle in (("gf", closed), ("slice", sliced)):
            got = _bundle_counts(bundle, n)
            if got != brute:
                all_match = False
                mismatch_detail = f"n={n} {name}={tuple(got)} brute={tuple(brute)}"
    report(f"counts n=1..{args.max_n} (brute vs gf vs slice)", all_match, mismatch_detail)

    if args.order >= 24:
        from mpmath import mp, mpf

        total = gf.total_series(args.order)
        samples = (args.order // 4, args.order // 2, 3 * args.order // 4)
        with mp.workdps(35):
            growth = 1 / asymptotics.find_rho(20)
            errs = [
                abs(mpf(total.coefficient(n + 1)) / total.coefficient(n) - growth)
                for n in samples
            ]
        report(
            f"growth-ratio convergence at n={samples}",
            errs[0] > errs[1] > errs[2],
            f"errors {[mp.nstr(e, 4) for e in errs]}",
        )
    else:
        print(f"skipped: growth-ratio convergence (needs --order >= 24, got {args.order})")

    if failures:
        print(f"verify: FAIL ({failures} check(s) failed)")
        return EXIT_MISMATCH
    print("verify: PASS")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arndt-carlitz",
        description="Exact counting and asymptotics for Arndt-Carlitz compositions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="count compositions of n by parity")
    p_count.add_argument("--n", type=_bounded_int(1), required=True)
    p_count.add_argument("--parity", choices=compositions.PARITIES, default="all")
    p_count.add_argument("--method", choices=("brute", "gf", "slice"), default="gf")
    p_count.set_defaults(func=_cmd_count)

    p_series = sub.add_parser("series", help="emit counting-series coefficients")
    p_series.add_argument("--order", type=_bounded_int(0), default=None)
    p_series.add_argument("--parity", choices=compositions.PARITIES, default="all")
    p_series.add_argument(
        "--format", choices=("plain", "json", "csv", "bfile"), default="plain"
    )
    p_series.set_defaults(func=_cmd_series)

    p_list = sub.add_parser("list", help="list the compositions of n")
    p_list.add_argument("--n", type=_bounded_int(1), required=True)
    p_list.add_argument("--parity", choices=compositions.PARITIES, default="all")
    p_list.set_defaults(func=_cmd_list)

    p_asym = sub.add_parser("asymptotics", help="dominant pole and residue constants")
    p_asym.add_argument("--digits", type=_bounded_int(1, MAX_DIGITS), default=20,
                        help=f"significant digits, 1 to {MAX_DIGITS} (default 20)")
    p_asym.set_defaults(func=_cmd_asymptotics)

    p_verify = sub.add_parser("verify", help="run the cross-verification harness")
    p_verify.add_argument("--max-n", type=_bounded_int(1), default=16, dest="max_n")
    p_verify.add_argument("--order", type=_bounded_int(0), default=None)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except compositions.CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (
        asymptotics.DomainError,
        asymptotics.BracketError,
        asymptotics.PrecisionError,
        asymptotics.DegeneratePoleError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECISION


if __name__ == "__main__":
    sys.exit(main())
