"""Exact counting and asymptotics for Arndt-Carlitz compositions.

Arndt-Carlitz compositions are integer compositions obeying the
interleaved chain s1 > s2 != s3 > s4 != s5 ...  The package counts them
three mutually cross-checking ways (exhaustive enumeration, closed-form
generating functions, slice-recurrence iteration) and computes the
dominant-pole asymptotics of the counting sequences.

The root exports the entry points and the records and errors they return
or raise; the building blocks are imported from the modules
`arndt_carlitz.gf`, `.asymptotics`, `.series` and `.compositions`.
"""

from .asymptotics import (
    AsymptoticEstimate,
    BracketError,
    DegeneratePoleError,
    DomainError,
    PrecisionError,
    amplitudes,
    asymptotic_count,
    find_rho,
)
from .compositions import (
    CapExceededError,
    DEFAULT_CAP,
    ParityCounts,
    count_brute_force,
    list_arndt_carlitz,
)
from .gf import SeriesBundle, SeriesConsistencyError, series_bundle, slice_bundle
from .series import NonInvertibleSeriesError, TruncatedSeries

__all__ = [
    "AsymptoticEstimate",
    "BracketError",
    "CapExceededError",
    "DEFAULT_CAP",
    "DegeneratePoleError",
    "DomainError",
    "NonInvertibleSeriesError",
    "ParityCounts",
    "PrecisionError",
    "SeriesBundle",
    "SeriesConsistencyError",
    "TruncatedSeries",
    "amplitudes",
    "asymptotic_count",
    "count_brute_force",
    "find_rho",
    "list_arndt_carlitz",
    "series_bundle",
    "slice_bundle",
]
