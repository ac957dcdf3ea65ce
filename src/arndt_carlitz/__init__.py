"""Exact counting and asymptotics for Arndt-Carlitz compositions.

Arndt-Carlitz compositions are integer compositions obeying the
interleaved chain s1 > s2 != s3 > s4 != s5 ...  The package counts them
three mutually cross-checking ways (exhaustive enumeration, closed-form
generating functions, slice-recurrence iteration) and computes the
dominant-pole asymptotics of the counting sequences.

The root exports the entry points and the records and errors they return
or raise; the building blocks are imported from the modules
`arndt_carlitz.gf`, `.asymptotics`, `.series` and `.compositions`.
Importing the root loads none of them: each name imports its module on
first access (PEP 562), so a command compiles only the code it runs.
"""

from importlib import import_module

# each public name -> the module that defines it
_OWNERS = {
    "AsymptoticEstimate": "asymptotics",
    "BracketError": "asymptotics",
    "CapExceededError": "compositions",
    "DEFAULT_CAP": "compositions",
    "DegeneratePoleError": "asymptotics",
    "DomainError": "asymptotics",
    "NonInvertibleSeriesError": "series",
    "ParityCounts": "compositions",
    "PrecisionError": "asymptotics",
    "SeriesBundle": "gf",
    "SeriesConsistencyError": "gf",
    "TruncatedSeries": "series",
    "amplitudes": "asymptotics",
    "asymptotic_count": "asymptotics",
    "count_brute_force": "compositions",
    "find_rho": "asymptotics",
    "list_arndt_carlitz": "compositions",
    "series_bundle": "gf",
    "slice_bundle": "gf",
}

__all__ = list(_OWNERS)


def __getattr__(name: str):
    owner = _OWNERS.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{owner}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
