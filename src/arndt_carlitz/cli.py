"""Command-line interface: counting, listing, series export, asymptotics, verify.

Exit codes: 0 success, 1 output pipe closed early, 2 usage error (also
an --n or --order too large to fit in memory), 3 brute-force cap
exceeded, 4 verification mismatch, 5 numeric/precision failure.

The process entry is `run`; `main` is the in-process entry for tests and
library callers.  Every command except verify writes its whole result to
stdout at once; verify prints one line per check as it runs.

The brute-force cap (default 30) can be overridden with the
ARNDT_CARLITZ_CAP environment variable.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

# gf (and with it series) loads only in the commands that build series;
# the parser choices and main's except clauses need these two
from . import asymptotics, compositions

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_MISMATCH = 4
EXIT_PRECISION = 5

CAP_ENV_VAR = "ARNDT_CARLITZ_CAP"

# upper bound of `asymptotics --digits`: 1000 digits take about 1 s (2-core machine)
MAX_DIGITS = 1000

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


def _write(lines: list[str]) -> int:
    """Write the lines, each ended by a newline, to stdout in one call.

    A raw (-u) stdout may take only part, as when the pipe's reader leaves
    mid-write, and its text layer drops the count: the rest is written
    again, so that a closed pipe raises BrokenPipeError.
    """
    text = "\n".join([*lines, ""])
    out = getattr(sys.stdout, "buffer", None)
    if out is None:  # a text-only stream such as io.StringIO
        sys.stdout.write(text)
        return EXIT_OK
    sys.stdout.flush()
    data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
    while data:
        written = out.write(data)
        if written is None:  # a raw non-blocking stdout that is full
            raise BlockingIOError("stdout is full")
        data = data[written:]
    return EXIT_OK


def _counts_for(n: int, method: str, parities: tuple[str, ...]) -> dict[str, int]:
    """The number of compositions of n with each parity in `parities`."""
    if method == "brute":
        counts = compositions.count_brute_force(n, _brute_cap())
        return {p: getattr(counts, p) for p in parities}
    from . import gf

    if method == "slice":
        bundle = gf.slice_bundle(n)
        return {p: getattr(bundle, p).coefficient(n) for p in parities}
    # one division by D per parity: neither F(z,z) nor the bundle is needed
    series = {"even": gf.even_series, "odd": gf.odd_series}
    return {p: series[p](n).coefficient(n) for p in parities}


def _cmd_count(args: argparse.Namespace) -> int:
    every = args.parity == "all"
    shown = _counts_for(args.n, args.method, ("even", "odd") if every else (args.parity,))
    if every:
        shown["total"] = shown["even"] + shown["odd"]
    parts = [f"n={args.n}"] + [f"{k}={v}" for k, v in shown.items()]
    return _write([" ".join(parts)])


def _cmd_series(args: argparse.Namespace) -> int:
    from . import gf

    if args.order is None:  # gf's default order: the parser does not load gf
        args.order = gf.DEFAULT_ORDER
    series = {"even": gf.even_series, "odd": gf.odd_series, "all": gf.total_series}
    coeffs = series[args.parity](args.order).coeffs
    if args.format == "plain":
        lines = [" ".join(str(c) for c in coeffs)]
    elif args.format == "json":
        import json

        payload = {"query": "series", "parity": args.parity, "method": "gf",
                   "order": args.order, "coefficients": coeffs}
        lines = [json.dumps(payload)]
    elif args.format == "csv":
        lines = ["n,coefficient", *(f"{n},{c}" for n, c in enumerate(coeffs))]
    else:  # bfile: "n a(n)" per line, starting at n=1
        lines = [f"{n} {coeffs[n]}" for n in range(1, args.order + 1)]
    return _write(lines)


def _cmd_list(args: argparse.Namespace) -> int:
    found = compositions.list_arndt_carlitz(args.n, args.parity, _brute_cap())
    return _write(["+".join(str(p) for p in c) for c in found])


def _cmd_asymptotics(args: argparse.Namespace) -> int:
    from . import _pole  # the int core: no mpmath on this path

    digits = args.digits
    # extra internal digits so every displayed digit is converged
    internal = max(digits, 20) + 5
    values, wp = _pole.amplitudes(_pole.find_rho(internal)[2], internal)
    names = ("rho", "growth", "c_even", "c_odd", "c_total")
    lines = [f"{name} = {_pole.nstr(v, wp, digits)}" for name, v in zip(names, values)]
    lines.append(f"growth (unrestricted compositions) = {asymptotics.UNRESTRICTED_GROWTH}")
    lines.append(f"growth (Carlitz compositions) = {asymptotics.CARLITZ_GROWTH}")
    return _write(lines)


def _cmd_verify(args: argparse.Namespace) -> int:
    cap = _brute_cap()
    if args.max_n > cap:
        raise UsageError(f"--max-n {args.max_n} exceeds the brute-force cap {cap}")
    from . import _verify

    if _verify.LISTING_MAX_N > cap:  # checked before the first line prints
        raise UsageError(
            f"the golden listings enumerate n={_verify.LISTING_MAX_N}, "
            f"which exceeds the brute-force cap {cap}"
        )
    return EXIT_MISMATCH if _verify.run_checks(args.max_n, args.order, cap) else EXIT_OK


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
    except MemoryError:
        print("error: not enough memory; use a smaller --n or --order", file=sys.stderr)
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


def run() -> int:
    """Process entry: `main` on sys.argv, then the heap frozen for the exit.

    stdout is flushed inside the try, so a reader that closed the pipe
    early ends the process with exit 1 and no traceback: fd 1 then points
    at os.devnull, so the flush at shutdown has nowhere to fail (Python
    docs, signal module, "Note on SIGPIPE").  gc.freeze() runs on every
    way out, SystemExit included: the collections at interpreter shutdown
    skip every object alive at that point, and the operating system
    reclaims the memory.  atexit handlers and the stdio flush still run.
    """
    try:
        code = main()
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
