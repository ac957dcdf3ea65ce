"""The package's public surface: the root exports exactly the entry points,
every name in __all__ resolves, the building blocks resolve in their own
modules, and importing the package leaves mpmath and logging unloaded."""

import importlib
import os
import subprocess
import sys

import pytest

import arndt_carlitz
from arndt_carlitz import asymptotics


def test_every_public_name_resolves():
    for name in arndt_carlitz.__all__:
        assert getattr(arndt_carlitz, name) is not None, name
    namespace = {}
    exec("from arndt_carlitz import *", namespace)
    assert set(arndt_carlitz.__all__) <= set(namespace)


ROOT_NAMES = {
    "AsymptoticEstimate", "BracketError", "CapExceededError", "DEFAULT_CAP",
    "DegeneratePoleError", "DomainError", "NonInvertibleSeriesError",
    "ParityCounts", "PrecisionError", "SeriesBundle", "SeriesConsistencyError",
    "TruncatedSeries", "amplitudes", "asymptotic_count", "count_brute_force",
    "find_rho", "list_arndt_carlitz", "series_bundle", "slice_bundle",
}

# building blocks that are imported from their own modules, not the root
MODULE_NAMES = {
    "asymptotics": (
        "denominator_derivative", "denominator_derivative_via_series",
        "eval_alpha", "eval_beta", "eval_denominator", "eval_numerator",
    ),
    "compositions": (
        "Composition", "enumerate_compositions", "is_arndt", "is_arndt_carlitz",
        "is_carlitz",
    ),
    "gf": (
        "alpha_series", "beta_series", "denominator_series", "even_series",
        "fzz_series", "numerator_series", "odd_series", "slice_iteration_series",
        "total_series",
    ),
    "series": ("BivariateTruncatedSeries",),
}


def test_root_exports_the_entry_points_only():
    assert len(arndt_carlitz.__all__) == len(ROOT_NAMES)
    assert set(arndt_carlitz.__all__) == ROOT_NAMES


@pytest.mark.parametrize("module", sorted(MODULE_NAMES))
def test_building_blocks_resolve_in_their_modules(module):
    owner = importlib.import_module(f"arndt_carlitz.{module}")
    for name in MODULE_NAMES[module]:
        assert getattr(owner, name) is not None, name
        assert name not in arndt_carlitz.__all__, name


def test_numeric_names_are_the_asymptotics_objects():
    assert arndt_carlitz.find_rho is asymptotics.find_rho
    assert arndt_carlitz.BracketError is asymptotics.BracketError
    assert arndt_carlitz.AsymptoticEstimate is asymptotics.AsymptoticEstimate


@pytest.mark.parametrize(
    "record, fields",
    [
        (arndt_carlitz.SeriesBundle, ("even", "fzz", "odd", "total", "order")),
        (
            arndt_carlitz.AsymptoticEstimate,
            ("rho", "growth", "c_even", "c_odd", "c_total", "precision_digits"),
        ),
        (arndt_carlitz.ParityCounts, ("even", "odd", "total")),
    ],
)
def test_records_are_immutable_with_fixed_fields(record, fields):
    assert record._fields == fields
    value = record(*range(len(fields)))
    assert value == record(*range(len(fields)))
    assert hash(value) == hash(record(*range(len(fields))))
    with pytest.raises(AttributeError):
        setattr(value, fields[0], -1)


def test_dir_lists_all_public_names():
    assert set(arndt_carlitz.__all__) <= set(dir(arndt_carlitz))


def test_unknown_attribute_raises_standard_error():
    with pytest.raises(AttributeError) as exc:
        arndt_carlitz.no_such_name
    assert str(exc.value) == "module 'arndt_carlitz' has no attribute 'no_such_name'"


def test_bare_import_leaves_mpmath_unloaded():
    probe = (
        "import sys, arndt_carlitz; "
        "print(sorted(m for m in ('mpmath', 'logging') if m in sys.modules))"
    )
    # the child imports the package from this process's path: the tree under test
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert done.stdout == "[]\n"
