"""The package's public surface: the root exports exactly the entry points,
every name in __all__ resolves, the building blocks resolve in their own
modules, every function the benchmark's tracer wraps by name exists, and
importing the package loads only what is used."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

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
    "AsymptoticEstimate", "CapExceededError", "DEFAULT_CAP", "DomainError",
    "NonInvertibleSeriesError", "ParityCounts", "PrecisionError", "SeriesBundle",
    "SeriesConsistencyError", "TruncatedSeries", "amplitudes", "asymptotic_count",
    "count_brute_force", "find_rho", "list_arndt_carlitz", "series_bundle",
    "slice_bundle",
}

# building blocks that are imported from their own modules, not the root
MODULE_NAMES = {
    "asymptotics": (
        "denominator_derivative", "denominator_derivative_via_series",
        "eval_denominator",
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


def _trace_boot():
    """perfbench/trace_boot.py, loaded from its file and not registered."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "trace_boot.py"
    spec = importlib.util.spec_from_file_location("trace_boot_targets", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACE_BOOT = _trace_boot()


@pytest.mark.parametrize("target", list(TRACE_BOOT.TARGETS))
def test_every_tracer_target_resolves_to_a_function(target):
    # the benchmark's tracer wraps each target by name, found as its
    # install() finds it; a renamed or deleted function must fail here
    module_name, qualname = target.split(":")
    owner = importlib.import_module(f"{TRACE_BOOT.PACKAGE}.{module_name}")
    *outer, attr = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    original = vars(owner).get(attr) if owner is not None else None
    assert callable(original), target


def test_numeric_names_are_the_asymptotics_objects():
    assert arndt_carlitz.find_rho is asymptotics.find_rho
    assert arndt_carlitz.PrecisionError is asymptotics.PrecisionError
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


def fresh(probe: str) -> str:
    """Stdout of `probe` run in a fresh interpreter."""
    # the child imports the package from this process's path: the tree under test
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        capture_output=True, text=True, check=True, timeout=60,
    )
    return done.stdout


def test_bare_import_leaves_mpmath_unloaded():
    probe = (
        "import sys, arndt_carlitz; "
        "print(sorted(m for m in ('mpmath', 'logging') if m in sys.modules))"
    )
    assert fresh(probe) == "[]\n"


LOADED_SUBMODULES = (
    "import sys, {module}; "
    "print(sorted(m for m in sys.modules if m.startswith('arndt_carlitz.')))"
)


def test_bare_import_loads_no_submodule():
    # each root name imports its module on first access
    assert fresh(LOADED_SUBMODULES.format(module="arndt_carlitz")) == "[]\n"


def test_cli_import_loads_only_what_every_command_needs():
    # the parser choices and main's except clauses need compositions and
    # asymptotics; they must also stay top-level imports because the
    # benchmark tracer (perfbench/trace_boot.py) wraps only functions of
    # modules loaded before it runs, and a traced verify books
    # asymptotics:find_rho and compositions:count_brute_force
    expected = ["arndt_carlitz.asymptotics", "arndt_carlitz.cli", "arndt_carlitz.compositions"]
    assert fresh(LOADED_SUBMODULES.format(module="arndt_carlitz.cli")) == f"{expected}\n"


def test_lazy_fraction_imports_work_in_a_fresh_interpreter():
    # in-process tests run with fractions loaded by the test modules; here
    # the paths that once imported it on demand run in a process that had
    # not, and leave it unloaded: the package never imports fractions
    probe = """
import sys
from arndt_carlitz.asymptotics import PrecisionError, eval_denominator, find_rho
from arndt_carlitz.series import NonInvertibleSeriesError, TruncatedSeries
assert "fractions" not in sys.modules
print(find_rho(20))
assert "fractions" not in sys.modules
print(eval_denominator("0.25", dps=20))
assert "fractions" not in sys.modules
print((TruncatedSeries.one(3) / TruncatedSeries([1, 1, 0, 0])).coeffs)
try:
    TruncatedSeries.one(3) / TruncatedSeries([2, 1, 0, 0])
except NonInvertibleSeriesError:
    print("NonInvertibleSeriesError")
assert "fractions" not in sys.modules
# the message holds no value, so it prints at any dps
try:
    eval_denominator("0.95", dps=9000)
except PrecisionError as exc:
    print(exc)
assert "fractions" not in sys.modules
"""
    assert fresh(probe).splitlines() == [
        "0.627901008918481",
        "1.04734797423889",
        "(1, -1, 1, -1)",
        "NonInvertibleSeriesError",
        "tail of the k-sums did not fall below tol within 100000 terms",
    ]
