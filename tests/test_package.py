"""The package's public surface: every name in __all__ resolves, and
importing the package leaves mpmath and logging unloaded."""

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
