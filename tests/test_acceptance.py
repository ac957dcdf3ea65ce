"""Acceptance suite: one test and one printed pass/fail line per criterion.

Criteria 6 and 7 pin the dominant pole rho, the growth rate 1/rho and the
residue constants c_even, c_odd, c_total to the converged values of the
defining infinite k-sums, rounded to 20 significant digits.  They are the
anchors of tests/test_asymptotics.py, where
test_coefficient_ratios_approach_growth certifies them against the exact
counting coefficients at n = 100, a path that shares no k-sum truncation.
See README ("Acceptance status") for the provenance of the older tabulated
digits, which are the k<=20 truncation of the same sums.
"""

import random
import time

from mpmath import mp, mpf

from arndt_carlitz.asymptotics import (
    amplitudes,
    asymptotic_count,
    eval_denominator,
    find_rho,
)
from arndt_carlitz.compositions import count_brute_force, list_arndt_carlitz
from arndt_carlitz.gf import (
    alpha_series,
    beta_series,
    even_series,
    fzz_series,
    odd_series,
    series_bundle,
    slice_bundle,
    total_series,
)
from arndt_carlitz.series import BivariateTruncatedSeries, TruncatedSeries

GOLDEN_EVEN = [0, 0, 0, 1, 1, 2, 3, 5, 7, 12, 20, 30]
GOLDEN_ODD = [0, 1, 1, 1, 1, 2, 4, 5, 9, 15, 22, 36]
GOLDEN_LIST_7_EVEN = {(6, 1), (5, 2), (4, 3), (3, 1, 2, 1), (2, 1, 3, 1)}
GOLDEN_LIST_8_EVEN = {(7, 1), (6, 2), (5, 3), (3, 1, 3, 1), (2, 1, 4, 1),
                      (2, 1, 3, 2), (4, 1, 2, 1)}
GOLDEN_LIST_8_ODD = {(8,), (2, 1, 5), (3, 1, 4), (3, 2, 3), (4, 1, 3),
                     (5, 1, 2), (5, 2, 1), (4, 3, 1), (2, 1, 2, 1, 2)}

# converged dominant-pole constants, 20 significant digits
REF_RHO = "0.62790100891848093729"
REF_C_EVEN = "0.18236795113048885315"
REF_C_ODD = "0.21701049107523726983"
REF_C_TOTAL = "0.39937844220572612298"
REF_GROWTH = "1.5926077292381415640"


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


def test_criterion_1_golden_even_series():
    t0 = time.perf_counter()
    got = [int(c) for c in even_series(11).coeffs]
    elapsed = time.perf_counter() - t0
    ok = got == GOLDEN_EVEN and elapsed < 1.0
    _report(1, ok, f"even coefficients through z^11 = {got} ({elapsed:.3f}s)")
    assert got == GOLDEN_EVEN
    assert elapsed < 1.0


def test_criterion_2_golden_odd_series():
    t0 = time.perf_counter()
    got = [int(c) for c in odd_series(11).coeffs]
    elapsed = time.perf_counter() - t0
    ok = got == GOLDEN_ODD and elapsed < 1.0
    _report(2, ok, f"odd coefficients through z^11 = {got} ({elapsed:.3f}s)")
    assert got == GOLDEN_ODD
    assert elapsed < 1.0


def test_criterion_3_golden_listings():
    t0 = time.perf_counter()
    got_7e = set(list_arndt_carlitz(7, "even"))
    got_8e = set(list_arndt_carlitz(8, "even"))
    got_8o = set(list_arndt_carlitz(8, "odd"))
    elapsed = time.perf_counter() - t0
    ok = (
        got_7e == GOLDEN_LIST_7_EVEN
        and got_8e == GOLDEN_LIST_8_EVEN
        and got_8o == GOLDEN_LIST_8_ODD
        and elapsed < 1.0
    )
    _report(3, ok, f"listings for (7,even), (8,even), (8,odd) ({elapsed:.3f}s)")
    assert got_7e == GOLDEN_LIST_7_EVEN
    assert got_8e == GOLDEN_LIST_8_EVEN
    assert got_8o == GOLDEN_LIST_8_ODD
    assert elapsed < 1.0


def test_criterion_4_three_path_oracle_equivalence():
    t0 = time.perf_counter()
    max_n = 20
    closed = series_bundle(max_n)
    sliced = slice_bundle(max_n)
    mismatches = []
    for n in range(1, max_n + 1):
        brute = tuple(count_brute_force(n))
        for name, bundle in (("gf", closed), ("slice", sliced)):
            got = (
                int(bundle.even.coefficient(n)),
                int(bundle.odd.coefficient(n)),
                int(bundle.total.coefficient(n)),
            )
            if got != brute:
                mismatches.append((n, name, got, brute))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 60.0
    _report(4, ok, f"brute = gf = slice for n=1..{max_n} ({elapsed:.1f}s)")
    assert not mismatches, mismatches
    assert elapsed < 60.0


def test_criterion_5_system_residual_exactly_zero():
    order = 64
    a1 = alpha_series("one", order)
    az = alpha_series("z", order)
    b1 = beta_series("one", order)
    bz = beta_series("z", order)
    f1 = even_series(order)
    fzz = fzz_series(order)
    one = TruncatedSeries.one(order)
    r1 = f1 - (a1 * (f1 + one) + b1 * fzz)
    r2 = fzz - (az * (f1 + one) + bz * fzz)
    ok = r1.is_zero() and r2.is_zero()
    _report(5, ok, f"both linear-system residuals identically zero to order {order}")
    assert r1.is_zero()
    assert r2.is_zero()


def test_criterion_6_rho_reproduction():
    t0 = time.perf_counter()
    rho = find_rho(20)
    with mp.workdps(35):
        residual = abs(eval_denominator(rho, dps=35))
        delta = abs(rho - mpf(REF_RHO))
        elapsed = time.perf_counter() - t0
        ok = residual < mpf("1e-20") and delta < mpf("1e-20") and elapsed < 5.0
        _report(
            6,
            ok,
            f"find_rho(20) = {mp.nstr(rho, 21)}, |D(rho)| = {mp.nstr(residual, 3)}, "
            f"|rho - {REF_RHO}| = {mp.nstr(delta, 3)} ({elapsed:.1f}s)",
        )
        assert elapsed < 5.0
        assert residual < mpf("1e-20")
        assert delta < mpf("1e-20"), (
            f"computed root {mp.nstr(rho, 21)} differs from the converged "
            f"reference {REF_RHO} by {mp.nstr(delta, 3)}; the reference is "
            f"certified by the exact coefficient ratios in test_asymptotics"
        )


def test_criterion_7_amplitude_reproduction():
    t0 = time.perf_counter()
    est = amplitudes(find_rho(20), 20)
    with mp.workdps(35):
        deltas = {
            "c_even": (abs(est.c_even - mpf(REF_C_EVEN)), mpf("1e-15")),
            "c_odd": (abs(est.c_odd - mpf(REF_C_ODD)), mpf("1e-12")),
            "c_total": (abs(est.c_total - mpf(REF_C_TOTAL)), mpf("1e-12")),
            "growth": (abs(est.growth - mpf(REF_GROWTH)), mpf("1e-12")),
        }
        elapsed = time.perf_counter() - t0
        ok = all(d < tol for d, tol in deltas.values()) and elapsed < 10.0
        detail = ", ".join(
            f"|{k} - ref| = {mp.nstr(d, 3)} (tol {mp.nstr(t, 2)})"
            for k, (d, t) in deltas.items()
        )
        _report(7, ok, f"{detail} ({elapsed:.1f}s)")
        assert elapsed < 10.0
        failing = {k: mp.nstr(d, 3) for k, (d, t) in deltas.items() if d >= t}
        assert not failing, (
            f"computed constants differ from the converged references by "
            f"{failing}; the references are certified by the exact coefficients "
            f"at n = 100 in test_asymptotics"
        )


def test_criterion_8_asymptotic_convergence():
    t0 = time.perf_counter()
    est = amplitudes(find_rho(20), 20)
    totals = total_series(100)
    with mp.workdps(35):
        errs = {}
        for n in (40, 80):
            exact = mpf(int(totals.coefficient(n)))
            errs[n] = abs(asymptotic_count(n, est, "total") / exact - 1)
        elapsed = time.perf_counter() - t0
        ok = errs[80] < errs[40] and errs[80] < mpf("0.01") and elapsed < 30.0
        _report(
            8,
            ok,
            f"relative error {mp.nstr(errs[40], 3)} at n=40 -> "
            f"{mp.nstr(errs[80], 3)} at n=80 ({elapsed:.1f}s)",
        )
        assert errs[80] < errs[40]
        assert errs[80] < mpf("0.01")
        assert elapsed < 30.0


def test_criterion_9_property_suite():
    rng = random.Random(20260810)
    # reciprocal/multiplication round trip
    for _ in range(25):
        coeffs = [rng.choice([1, -1])] + [
            rng.randint(-4, 4) for _ in range(rng.randint(0, 11))
        ]
        s = TruncatedSeries(coeffs)
        assert s * s.reciprocal() == TruncatedSeries.one(s.order)
    # truncation consistency across orders
    for maker in (
        lambda n: alpha_series("one", n),
        lambda n: alpha_series("z", n),
        lambda n: beta_series("one", n),
        lambda n: beta_series("z", n),
        even_series,
        odd_series,
    ):
        assert maker(41).truncate(33) == maker(33)
    # substitute_u("one") respects multiplication
    for _ in range(25):
        order = 8
        pairs = {}
        for _ in range(rng.randint(0, 6)):
            p = rng.randint(0, order)
            pairs[(p, rng.randint(0, p))] = rng.randint(-3, 3)
        a = BivariateTruncatedSeries(pairs, order)
        b = BivariateTruncatedSeries.geometric_zu(rng.randint(1, 3), order)
        assert (a * b).substitute_u("one") == (
            a.substitute_u("one") * b.substitute_u("one")
        )
    # counting coefficients are nonnegative integers up to order 100
    bundle = series_bundle(100)
    for s in (bundle.even, bundle.fzz, bundle.odd, bundle.total):
        for c in s.coeffs:
            assert type(c) is int and c >= 0
    _report(
        9,
        True,
        "reciprocal round-trip, truncation consistency, substitution "
        "homomorphism, integrality/nonnegativity to order 100",
    )
