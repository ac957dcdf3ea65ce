from fractions import Fraction

import pytest

from arndt_carlitz import gf
from arndt_carlitz.compositions import (
    count_brute_force,
    enumerate_compositions,
    is_arndt_carlitz,
)
from arndt_carlitz.gf import (
    SeriesConsistencyError,
    alpha_series,
    beta_series,
    denominator_series,
    even_series,
    fzz_series,
    numerator_series,
    odd_series,
    series_bundle,
    slice_bundle,
    slice_iteration_series,
    total_series,
)
from arndt_carlitz.series import BivariateTruncatedSeries, TruncatedSeries

# z^0..z^11, exhaustively cross-checked against enumeration
EVEN_PREFIX = (0, 0, 0, 1, 1, 2, 3, 5, 7, 12, 20, 30)
ODD_PREFIX = (0, 1, 1, 1, 1, 2, 4, 5, 9, 15, 22, 36)


def ints(series) -> list[int]:
    return [int(c) for c in series.coeffs]


def fzz_oracle(order: int) -> list[int]:
    """Coefficient m: even-part Arndt-Carlitz compositions with n + last = m."""
    out = [0] * (order + 1)
    for n in range(1, order):
        for c in enumerate_compositions(n):
            if c and len(c) % 2 == 0 and is_arndt_carlitz(c) and n + c[-1] <= order:
                out[n + c[-1]] += 1
    return out


# --------------------------------------------------------------- alpha/beta


def test_alpha_one_low_order():
    # k=1 and k=2 summands by hand:
    #   z/(1-z) * (z^2/(1-z^2) + z^4/((1-z^4)(1-z)) + O(z^6))
    # = z/(1-z) * (z^2 + 2 z^4 + z^5 + O(z^6)) = z^3 + z^4 + 3 z^5 + O(z^6)
    assert ints(alpha_series("one", 5)) == [0, 0, 0, 1, 1, 3]


def test_alpha_below_valuation_is_zero():
    assert alpha_series("one", 2).is_zero()
    assert alpha_series("z", 3).is_zero()
    assert alpha_series("one", 0).is_zero()


def test_alpha_z_low_order():
    # z/(1-z) * (z^3/(1-z^3) + z^5/((1-z^5)(1-z^2)) + O(z^7))
    assert ints(alpha_series("z", 5)) == [0, 0, 0, 0, 1, 1]


def test_beta_one_low_order():
    # -z/(1-z) - z^3/((1-z)(1-z^3)) - z^5/(...)  =>  -z - z^2 - 2z^3 - ...
    assert ints(beta_series("one", 3)) == [0, -1, -1, -2]


def test_beta_below_valuation_is_zero():
    assert beta_series("one", 0).is_zero()
    assert beta_series("z", 1).is_zero()


def test_beta_is_nonpositive():
    for variant in ("one", "z"):
        assert all(c <= 0 for c in beta_series(variant, 40).coeffs)


def test_variant_validation():
    with pytest.raises(ValueError):
        alpha_series("u", 5)
    with pytest.raises(ValueError):
        beta_series("zz", 5)
    with pytest.raises(ValueError):
        alpha_series("one", -1)


@pytest.mark.parametrize("maker", [alpha_series, beta_series])
@pytest.mark.parametrize("variant", ["one", "z"])
def test_ksum_truncation_consistency(maker, variant):
    # an off-by-one in the k-sum cutoff would make the wide computation
    # disagree with the narrow one below the narrow order
    for wide, narrow in ((37, 30), (36, 31), (12, 11)):
        assert maker(variant, wide).truncate(narrow) == maker(variant, narrow)


def _one_minus(m: int, order: int) -> TruncatedSeries:
    return TruncatedSeries.from_coeffs([1] + [0] * (m - 1) + [-1], order)


def alpha_by_series_division(s: int, order: int) -> TruncatedSeries:
    """alpha(z,z^s) summed term by term with TruncatedSeries arithmetic."""
    total = TruncatedSeries.zero(order)
    prod = TruncatedSeries.one(order)
    k = 1
    while 2 * k + 1 + s <= order:
        if k > 1:
            prod = prod / _one_minus(2 * k - 3 + s, order)
        total = total + (prod / _one_minus(2 * k + s, order)).shift(2 * k + s)
        k += 1
    return (total / _one_minus(1, order)).shift(1)


def beta_by_series_division(s: int, order: int) -> TruncatedSeries:
    """beta(z,z^s) summed term by term with TruncatedSeries arithmetic."""
    total = TruncatedSeries.zero(order)
    prod = TruncatedSeries.one(order)
    k = 1
    while 2 * k - 1 + s <= order:
        prod = prod / _one_minus(2 * k - 1 + s, order)
        total = total + prod.shift(2 * k - 1 + s)
        k += 1
    return -total


@pytest.mark.parametrize(
    "maker, reference",
    [(alpha_series, alpha_by_series_division), (beta_series, beta_by_series_division)],
)
@pytest.mark.parametrize("s, variant", [(0, "one"), (1, "z")])
def test_ksums_match_series_division(maker, reference, s, variant):
    # the in-place integer-list recurrence against the k-sums written out
    # as divisions by 1 - z^m, shifts and sums of whole series
    for order in [*range(41), 224]:
        got = maker(variant, order)
        assert got == reference(s, order), (variant, order)
        assert all(type(c) is int for c in got.coeffs)


def test_cold_bundle_builds_a_constant_number_of_series(monkeypatch):
    # the k-sums build each series once, not a handful per k-term, so the
    # work outside the O(N) inner loops does not grow with the order
    calls = 0
    init = TruncatedSeries.__init__

    def counting_init(self, coeffs):
        nonlocal calls
        calls += 1
        init(self, coeffs)

    monkeypatch.setattr(TruncatedSeries, "__init__", counting_init)
    counts = {}
    for order in (64, 224):
        for f in vars(gf).values():
            if hasattr(f, "cache_clear"):
                f.cache_clear()
        calls = 0
        series_bundle(order)
        counts[order] = calls
    assert counts[64] == counts[224] <= 24, counts


# ------------------------------------------------------------- denominator


def test_denominator_low_order():
    d = denominator_series(5)
    assert d.coefficient(0) == 1
    assert d.coefficient(1) == 0
    assert ints(d) == [1, 0, 1, -1, 1, -3]


def test_denominator_times_even_is_numerator():
    order = 32
    lhs = denominator_series(order) * even_series(order)
    assert lhs == numerator_series(order)


# ---------------------------------------------------------- counting series


def test_even_series_reference_prefix():
    assert ints(even_series(11)) == list(EVEN_PREFIX)
    assert even_series(11).coefficient(7) == 5


def test_odd_series_reference_prefix():
    assert ints(odd_series(11)) == list(ODD_PREFIX)
    assert odd_series(11).coefficient(8) == 9


def test_total_series_examples():
    t = total_series(11)
    assert t.coefficient(1) == 1
    assert t.coefficient(7) == 10
    assert t.coefficient(8) == 16


def test_counting_series_match_brute_force():
    order = 16
    bundle = series_bundle(order)
    for n in range(0, order + 1):
        counts = count_brute_force(n)
        assert int(bundle.even.coefficient(n)) == counts.even, f"even at {n}"
        assert int(bundle.odd.coefficient(n)) == counts.odd, f"odd at {n}"
        assert int(bundle.total.coefficient(n)) == counts.total, f"total at {n}"


def test_three_paths_agree_to_26():
    # the prefix walk makes brute force cheap enough to go past criterion 4's n = 20
    order = 26
    closed = series_bundle(order)
    sliced = slice_bundle(order)
    for n in range(1, order + 1):
        brute = tuple(count_brute_force(n))
        for bundle in (closed, sliced):
            got = (bundle.even.coefficient(n), bundle.odd.coefficient(n),
                   bundle.total.coefficient(n))
            assert got == brute, f"n={n}"


def test_fzz_series_against_oracle():
    order = 16
    assert ints(fzz_series(order)) == fzz_oracle(order)


def test_fzz_low_order():
    s = fzz_series(6)
    assert s.valuation() == 4
    assert s.coefficient(4) == 1
    assert s.coefficient(5) == 1
    assert fzz_series(0).is_zero()


def test_even_has_no_terms_below_cube():
    s = even_series(20)
    assert all(s.coefficient(n) == 0 for n in range(3))
    assert odd_series(20).coefficient(1) == 1


def test_counting_coefficients_integral_nonnegative_to_100():
    bundle = series_bundle(100)
    for s in (bundle.even, bundle.fzz, bundle.odd, bundle.total):
        for c in s.coeffs:
            assert c.denominator == 1
            assert c >= 0


def test_production_path_stays_in_int_arithmetic():
    # every counting series has integer coefficients; a slide back into
    # Fraction arithmetic would make the exact engine several times slower
    order = 64
    bundle = series_bundle(order)
    series = [
        maker(variant, order)
        for maker in (alpha_series, beta_series)
        for variant in ("one", "z")
    ]
    series += [numerator_series(order), denominator_series(order)]
    series += [bundle.even, bundle.fzz, bundle.odd, bundle.total]
    for s in series:
        assert all(type(c) is int for c in s.coeffs)
    assert all(type(v) is int for _p, _q, v in slice_iteration_series(16).terms())


def test_total_monotone_from_two():
    t = total_series(100)
    for n in range(2, 100):
        assert t.coefficient(n + 1) >= t.coefficient(n)


def test_bundle_shape():
    b = series_bundle(24)
    assert b.order == 24
    assert b.total == b.even + b.odd


def test_counting_series_truncation_consistency():
    assert even_series(40).truncate(17) == even_series(17)
    assert odd_series(40).truncate(17) == odd_series(17)
    assert fzz_series(40).truncate(17) == fzz_series(17)


def test_consistency_guard_trips_on_corrupted_numerator(monkeypatch):
    real = numerator_series.__wrapped__

    def corrupted(order):
        return real(order) + TruncatedSeries.monomial(2, order, Fraction(1, 2))

    monkeypatch.setattr(gf, "numerator_series", corrupted)
    with pytest.raises(SeriesConsistencyError):
        gf.even_series.__wrapped__(9)


# ------------------------------------------------------------ linear system


def test_functional_system_residual_is_exactly_zero():
    order = 64
    a1 = alpha_series("one", order)
    az = alpha_series("z", order)
    b1 = beta_series("one", order)
    bz = beta_series("z", order)
    f1 = even_series(order)
    fzz = fzz_series(order)
    one = TruncatedSeries.one(order)
    assert f1 == a1 * (f1 + one) + b1 * fzz
    assert fzz == az * (f1 + one) + bz * fzz


# ----------------------------------------------------------- slice iteration


def test_first_slice_tables():
    # at order 4 only a_1 survives truncation: z^3 u + z^4 u
    f4 = slice_iteration_series(4)
    assert [(p, q, int(v)) for p, q, v in f4.terms()] == [(3, 1, 1), (4, 1, 1)]
    # at order 5: pairs (2,1), (3,1), (4,1), (3,2)
    f5 = slice_iteration_series(5)
    assert [(p, q, int(v)) for p, q, v in f5.terms()] == [
        (3, 1, 1),
        (4, 1, 1),
        (5, 1, 1),
        (5, 2, 1),
    ]


def test_slice_terms_record_last_part():
    # u-power is the last part: never more than half the recorded total
    f = slice_iteration_series(14)
    for p, q, _v in f.terms():
        assert 1 <= q <= (p - 1) // 2


def slice_iteration_by_dicts(order: int) -> BivariateTruncatedSeries:
    """F(z,u) by the slice recurrence on sparse bivariate series products."""

    def monomial(zpow, upow):
        return BivariateTruncatedSeries.monomial(zpow, upow, order)

    z_geom = TruncatedSeries([1] * (order + 1))                # 1/(1-z)
    zu_geom = BivariateTruncatedSeries.geometric_zu(1, order)  # 1/(1-zu)
    w = zu_geom * monomial(1, 1)                               # zu/(1-zu)
    # z^3*u/(1-z^2*u); times z_geom it is the kernel and a_1
    kernel = BivariateTruncatedSeries.geometric_zu(2, order) * monomial(3, 1)
    a = total = kernel.mul_univariate(z_geom)
    while not a.is_zero():
        rescaled = BivariateTruncatedSeries(
            {(p + 2 * q, q): v for p, q, v in a.terms()}, order
        )                                                      # a(z, z^2*u)
        a = (
            kernel.mul_univariate(z_geom * a.substitute_u("one"))
            - w.mul_univariate(a.substitute_u("z"))
            + zu_geom * rescaled
        )
        total = total + a
    return total


def test_slice_rows_match_dict_iteration():
    # the dense-row recurrence against the same recurrence written out as
    # products of sparse bivariate series
    for order in range(65):
        got = slice_iteration_series(order)
        expected = slice_iteration_by_dicts(order)
        assert list(got.terms()) == list(expected.terms()), order
        assert got.order == expected.order == order
        assert all(type(v) is int for _p, _q, v in got.terms())


def test_slice_matches_closed_form():
    for order in (11, 20, 48):
        f = slice_iteration_series(order)
        assert f.substitute_u("one") == even_series(order)
        assert f.substitute_u("z") == fzz_series(order)


def test_slice_bundle_matches_series_bundle():
    # 256: the highest order the benchmark exports
    for order in (16, 256):
        a = slice_bundle(order)
        b = series_bundle(order)
        assert a.even == b.even
        assert a.fzz == b.fzz
        assert a.odd == b.odd
        assert a.total == b.total


def test_slice_truncation_consistency():
    wide = slice_iteration_series(18)
    narrow = slice_iteration_series(12)
    assert wide.substitute_u("one").truncate(12) == narrow.substitute_u("one")


# ------------------------------------------------------------------- edges


def test_order_zero_everything_vanishes():
    assert even_series(0).is_zero()
    assert odd_series(0).is_zero()
    assert fzz_series(0).is_zero()
    assert slice_iteration_series(0).is_zero()
    zero_bundle = slice_bundle(0)
    assert zero_bundle.total.is_zero()


def test_default_order_is_64():
    assert even_series().order == 64
    assert series_bundle().order == 64
