"""Run one arndt-carlitz CLI call with spans around the package's layer functions.

Usage (with src/ on PYTHONPATH):

    python3 perfbench/trace_boot.py SPANS_OUT OP_ID -- CLI_ARGV...

The bootstrap wraps every function in TARGETS wherever the package bound
it (`asymptotics.denominator_series` as well as `gf.denominator_series`,
`__rmul__` as well as `__mul__`), calls `cli.main(CLI_ARGV)` and exits with
its code.  Spans (name, start, end, parent, op id, work) stay in memory and
are written to SPANS_OUT as JSON when the call returns, together with the
hit and miss totals of the `gf` caches and any target the package lacks.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

PACKAGE = "arndt_carlitz"


def _product_terms(a, b) -> int:
    """Coefficient products of a dense truncated product: (n+1)(n+2)/2."""
    if not hasattr(b, "order"):
        return 0
    n = min(a.order, b.order)
    return (n + 1) * (n + 2) // 2


def _compositions_of(n, *_args, **_kwargs) -> int:
    """Compositions brute force walks for n: 2^(n-1), one for n = 0."""
    return 2 ** (n - 1) if n >= 1 else 1


# "module:qualname" of each traced function -> work counter, or None
TARGETS = {
    "cli:main": None,
    "series:TruncatedSeries.__mul__": _product_terms,
    "series:TruncatedSeries.reciprocal": None,
    "series:BivariateTruncatedSeries.__mul__": None,
    "series:BivariateTruncatedSeries.mul_univariate": None,
    "series:BivariateTruncatedSeries.substitute_u": None,
    "series:BivariateTruncatedSeries.__add__": None,
    "series:BivariateTruncatedSeries.__sub__": None,
    "gf:alpha_series": None,
    "gf:beta_series": None,
    "gf:numerator_series": None,
    "gf:denominator_series": None,
    "gf:even_series": None,
    "gf:fzz_series": None,
    "gf:odd_series": None,
    "gf:total_series": None,
    "gf:series_bundle": None,
    "gf:slice_iteration_series": None,
    "gf:slice_bundle": None,
    "compositions:count_brute_force": _compositions_of,
    "compositions:list_arndt_carlitz": _compositions_of,
    "asymptotics:find_rho": None,
    "asymptotics:amplitudes": None,
    "asymptotics:eval_denominator": None,
    "asymptotics:denominator_derivative": None,
    "asymptotics:denominator_derivative_via_series": None,
}


class Tracer:
    """Span store for one op: spans are appended in start order."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, work):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                done = work(*args, **kwargs) if work else 0
                self.spans[index] = [name, start, end, parent, self.op_id, done]

        return traced


def install(tracer: Tracer) -> list[str]:
    """Replace every binding of each target in the package; return missing targets."""
    modules = [m for name, m in list(sys.modules.items())
               if name == PACKAGE or name.startswith(PACKAGE + ".")]
    missing = []
    for target, work in TARGETS.items():
        module_name, qualname = target.split(":")
        owner = importlib.import_module(f"{PACKAGE}.{module_name}")
        *outer, attr = qualname.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            missing.append(target)
            continue
        wrapper = tracer.wrap(target, original, work)
        namespaces = [owner] if outer else modules
        for namespace in namespaces:
            for key, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, key, wrapper)
    return missing


def main(argv: list[str]) -> int:
    spans_out, op_id, separator, *cli_argv = argv
    if separator != "--":
        raise SystemExit("usage: trace_boot.py SPANS_OUT OP_ID -- CLI_ARGV...")
    cli = importlib.import_module(f"{PACKAGE}.cli")
    gf = importlib.import_module(f"{PACKAGE}.gf")
    caches = [f for f in vars(gf).values() if hasattr(f, "cache_info")]
    tracer = Tracer(op_id)
    missing = install(tracer)
    code = 1
    try:
        code = cli.main(cli_argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        infos = [f.cache_info() for f in caches]
        record = {
            "op": op_id,
            "spans": tracer.spans,
            "missing": missing,
            "cache_hits": sum(i.hits for i in infos),
            "cache_misses": sum(i.misses for i in infos),
        }
        with open(spans_out, "w") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
