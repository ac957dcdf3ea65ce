"""Command-line interface: counting, listing, series export, asymptotics, verify.

Exit codes: 0 success, 1 output pipe closed early, 2 usage error (also
an --n or --order too large to fit in memory), 3 brute-force cap
exceeded, 4 verification mismatch, 5 numeric/precision failure.

The process entry is `run`: it calls `main` with the cyclic collector off
and ends the process with os._exit once the result is out.  `main` is the
in-process entry for tests and library callers: it turns nothing off and
returns the exit code.  Every command except verify writes its whole
result to stdout at once; verify prints one line per check as it runs.

The grammar is one option table, `COMMANDS`.  `main` first parses argv
strictly against it: a command name, then exact `--flag value` pairs,
each flag at most once, no value starting with '-', every value within
its range or choices and every required flag present.  argparse, built
from the same table, gives the same namespace for such an argv; it is
imported only for any other argv, for its help text, usage errors and
forms such as `--order=50` or an abbreviated flag.

The brute-force cap (default 30) can be overridden with the
ARNDT_CARLITZ_CAP environment variable.
"""

from __future__ import annotations

import atexit
import gc
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, NoReturn

# gf (and with it series) loads only in the commands that build series;
# the parser choices and main's except clauses need these two
from . import asymptotics, compositions

if TYPE_CHECKING:
    import argparse

    # what a handler reads: the strict parse's or argparse's namespace
    Args = SimpleNamespace | argparse.Namespace

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
    """The check of an integer in [low, high] (no upper bound if high is None).

    It raises ValueError with the message that argparse prints after
    `argument --flag: `.
    """

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"must be an integer, got {text!r}") from None
        if value < low:
            raise ValueError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise ValueError(f"must be <= {high}, got {value}")
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


def _cmd_count(args: Args) -> int:
    every = args.parity == "all"
    shown = _counts_for(args.n, args.method, ("even", "odd") if every else (args.parity,))
    if every:
        shown["total"] = shown["even"] + shown["odd"]
    parts = [f"n={args.n}"] + [f"{k}={v}" for k, v in shown.items()]
    return _write([" ".join(parts)])


def _cmd_series(args: Args) -> int:
    from . import gf

    if args.order is None:  # gf's default order: the parser does not load gf
        args.order = gf.DEFAULT_ORDER
    series = {"even": gf.even_series, "odd": gf.odd_series, "all": gf.total_series}
    coeffs = series[args.parity](args.order).coeffs
    if args.format == "plain":
        lines = [" ".join(str(c) for c in coeffs)]
    elif args.format == "json":
        # json.dumps of the payload {query, parity, method, order,
        # coefficients}: its strings are ASCII choices and its numbers
        # ints, so the line needs no json module
        lines = [f'{{"query": "series", "parity": "{args.parity}", "method": "gf", '
                 f'"order": {args.order}, "coefficients": [{", ".join(map(str, coeffs))}]}}']
    elif args.format == "csv":
        lines = ["n,coefficient", *(f"{n},{c}" for n, c in enumerate(coeffs))]
    else:  # bfile: "n a(n)" per line, starting at n=1
        lines = [f"{n} {coeffs[n]}" for n in range(1, args.order + 1)]
    return _write(lines)


def _cmd_list(args: Args) -> int:
    found = compositions.list_arndt_carlitz(args.n, args.parity, _brute_cap())
    return _write(["+".join(str(p) for p in c) for c in found])


def _cmd_asymptotics(args: Args) -> int:
    from . import _pole  # the int core: no mpmath on this path

    digits = max(args.digits, 10)  # the fewest digits find_rho accepts
    values, wp = _pole.amplitudes(_pole.find_rho(digits), digits)
    names = ("rho", "growth", "c_even", "c_odd", "c_total")
    lines = [f"{name} = {_pole.nstr(v, wp, args.digits)}" for name, v in zip(names, values)]
    lines.append(f"growth (unrestricted compositions) = {asymptotics.UNRESTRICTED_GROWTH}")
    lines.append(f"growth (Carlitz compositions) = {asymptotics.CARLITZ_GROWTH}")
    return _write(lines)


def _cmd_verify(args: Args) -> int:
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


# The command grammar, read by `_parse_strict` and `build_parser`: per
# command its handler, its help line and its flags, each as
# (flag, dest, rule, default, required, help).  A rule is an int check
# from `_bounded_int` or a tuple of choices.
COMMANDS = {
    "count": (_cmd_count, "count compositions of n by parity", (
        ("--n", "n", _bounded_int(1), None, True, None),
        ("--parity", "parity", compositions.PARITIES, "all", False, None),
        ("--method", "method", ("brute", "gf", "slice"), "gf", False, None),
    )),
    "series": (_cmd_series, "emit counting-series coefficients", (
        ("--order", "order", _bounded_int(0), None, False, None),
        ("--parity", "parity", compositions.PARITIES, "all", False, None),
        ("--format", "format", ("plain", "json", "csv", "bfile"), "plain", False, None),
    )),
    "list": (_cmd_list, "list the compositions of n", (
        ("--n", "n", _bounded_int(1), None, True, None),
        ("--parity", "parity", compositions.PARITIES, "all", False, None),
    )),
    "asymptotics": (_cmd_asymptotics, "dominant pole and residue constants", (
        ("--digits", "digits", _bounded_int(1, MAX_DIGITS), 20, False,
         f"significant digits, 1 to {MAX_DIGITS} (default 20)"),
    )),
    "verify": (_cmd_verify, "run the cross-verification harness", (
        ("--max-n", "max_n", _bounded_int(1), 16, False, None),
        ("--order", "order", _bounded_int(0), None, False, None),
    )),
}


def _parse_strict(argv: list[str]) -> SimpleNamespace | None:
    """The namespace of a well-formed argv, as argparse would return it.

    None for any other argv, which is then left to argparse.  A value
    starting with '-' is declined because argparse may read it as a flag.
    """
    if not argv or argv[0] not in COMMANDS or len(argv) % 2 == 0:
        return None
    func, _, flags = COMMANDS[argv[0]]
    given = dict(zip(argv[1::2], argv[2::2]))
    if len(given) != len(argv) // 2 or not given.keys() <= {f[0] for f in flags}:
        return None  # a repeated or unknown flag
    values = {}
    for flag, dest, rule, default, required, _ in flags:
        if flag not in given:
            if required:
                return None
            values[dest] = default
            continue
        text = given[flag]
        if text.startswith("-"):
            return None
        if isinstance(rule, tuple):
            if text not in rule:
                return None
            values[dest] = text
        else:
            try:
                values[dest] = rule(text)
            except ValueError:
                return None
    return SimpleNamespace(command=argv[0], func=func, **values)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of `COMMANDS`: help, usage errors, every other form."""
    import argparse

    def argparse_type(check):
        def parse(text: str) -> int:
            try:
                return check(text)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None

        return parse

    parser = argparse.ArgumentParser(
        prog="arndt-carlitz",
        description="Exact counting and asymptotics for Arndt-Carlitz compositions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_line, flags) in COMMANDS.items():
        p_command = sub.add_parser(command, help=help_line)
        for flag, dest, rule, default, required, help_text in flags:
            if isinstance(rule, tuple):
                checked = {"choices": rule}
            else:
                checked = {"type": argparse_type(rule)}
            p_command.add_argument(flag, dest=dest, default=default, required=required,
                                   help=help_text, **checked)
        p_command.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_strict(argv)
    if args is None:
        args = build_parser().parse_args(argv)
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
    except (asymptotics.DomainError, asymptotics.PrecisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECISION


def run() -> NoReturn:
    """Process entry: `main` on sys.argv with the cyclic collector off, then os._exit.

    No command builds cyclic garbage worth collecting, so gc.disable()
    saves the collector's passes (15 in verify, 13 of them in `import
    mpmath`).  argparse's SystemExit (--help, usage errors) ends here with
    its own code.  Once the result is out, stdout is flushed: a reader
    that closed the pipe early gives exit 1 and no traceback.  Then the
    atexit handlers run, stderr is flushed and os._exit ends the process
    with the code, skipping the interpreter's teardown (module cleanup,
    the shutdown collection, __del__ and weakref callbacks at exit).  An
    uncaught exception still ends in its traceback the normal way.
    """
    gc.disable()
    try:
        try:
            code = main()
        except SystemExit as exc:  # argparse exits with an int code
            code = exc.code
        sys.stdout.flush()
    except BrokenPipeError:
        code = EXIT_BROKEN_PIPE
    atexit._run_exitfuncs()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    sys.exit(run())
