from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from arndt_carlitz.series import (
    BivariateTruncatedSeries,
    NonInvertibleSeriesError,
    TruncatedSeries,
)

coeffs_st = st.integers(min_value=-4, max_value=4)


@st.composite
def series_st(draw, max_order=9):
    return TruncatedSeries(draw(st.lists(coeffs_st, min_size=1, max_size=max_order + 1)))


@st.composite
def unit_series_st(draw, max_order=9):
    head = draw(st.sampled_from([1, -1, 2, -2, 3]))
    tail = draw(st.lists(coeffs_st, max_size=max_order))
    return TruncatedSeries([head] + tail)


@st.composite
def bivariate_st(draw, order=8):
    # entries with u-power <= z-power, the shape the slice recurrence produces
    entries = {}
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        p = draw(st.integers(min_value=0, max_value=order))
        q = draw(st.integers(min_value=0, max_value=p))
        entries[(p, q)] = draw(coeffs_st)
    return BivariateTruncatedSeries(entries, order)


# ---------------------------------------------------------------- univariate


def test_mul_difference_of_squares():
    one_plus = TruncatedSeries.from_coeffs([1, 1], 3)
    one_minus = TruncatedSeries.from_coeffs([1, -1], 3)
    assert one_plus * one_minus == TruncatedSeries([1, 0, -1, 0])


def test_mul_telescopes_to_truncated_one():
    a = TruncatedSeries([1, 1, 1, 1])
    b = TruncatedSeries.from_coeffs([1, -1], 3)
    assert a * b == TruncatedSeries([1, 0, 0, 0])


def test_add_monomials():
    s = TruncatedSeries.monomial(3, 5) + TruncatedSeries.monomial(4, 5)
    assert (s + TruncatedSeries.monomial(5, 5)).coeffs == (0, 0, 0, 1, 1, 1)


def test_scalar_mul():
    assert TruncatedSeries([1, 2]) * 3 == TruncatedSeries([3, 6])
    assert Fraction(1, 2) * TruncatedSeries([2, 4]) == TruncatedSeries([1, 2])


def test_reciprocal_geometric():
    assert TruncatedSeries.from_coeffs([1, -1], 4).reciprocal() == TruncatedSeries(
        [1, 1, 1, 1, 1]
    )
    assert TruncatedSeries.one(3).reciprocal() == TruncatedSeries.one(3)


def test_reciprocal_fibonacci():
    # 1/(1 - z - z^2) generates the Fibonacci numbers
    s = TruncatedSeries.from_coeffs([1, -1, -1], 5).reciprocal()
    assert s == TruncatedSeries([1, 1, 2, 3, 5, 8])
    assert s * TruncatedSeries.from_coeffs([1, -1, -1], 5) == TruncatedSeries.one(5)


def test_reciprocal_requires_unit_constant():
    with pytest.raises(NonInvertibleSeriesError):
        TruncatedSeries([0, 1]).reciprocal()
    with pytest.raises(NonInvertibleSeriesError):
        TruncatedSeries([1, 2]) / TruncatedSeries([0, 1])


def test_integral_coefficients_are_stored_as_int():
    s = TruncatedSeries([Fraction(4, 2), Fraction(1, 2)])
    assert s.coeffs == (2, Fraction(1, 2))
    assert type(s.coeffs[0]) is int


def test_shift():
    assert TruncatedSeries.from_coeffs([1, 1], 4).shift(2).coeffs == (0, 0, 1, 1, 0)
    assert TruncatedSeries([1, 2, 3]).shift(5) == TruncatedSeries.zero(2)
    assert TruncatedSeries.one(4).shift(3) == TruncatedSeries.monomial(3, 4)
    with pytest.raises(ValueError):
        TruncatedSeries.one(4).shift(-1)


def test_valuation_and_is_zero():
    assert TruncatedSeries.zero(5).is_zero()
    assert TruncatedSeries.zero(5).valuation() is None
    assert TruncatedSeries.monomial(4, 6).valuation() == 4


def test_coefficient_bounds():
    s = TruncatedSeries([1, 2, 3])
    assert s.coefficient(2) == 3
    with pytest.raises(IndexError):
        s.coefficient(3)


def test_derivative():
    s = TruncatedSeries([5, 1, 2, 7])  # 5 + z + 2z^2 + 7z^3
    assert s.derivative() == TruncatedSeries([1, 4, 21])


def test_evaluate_exact():
    s = TruncatedSeries([1, 1, 1])
    assert s.evaluate(Fraction(1, 2)) == Fraction(7, 4)


def test_truncate():
    s = TruncatedSeries([1, 2, 3, 4])
    assert s.truncate(1) == TruncatedSeries([1, 2])
    assert s.truncate(5) is s


@given(series_st(), series_st())
def test_mul_commutative(a, b):
    assert a * b == b * a


@given(series_st(), series_st(), series_st())
def test_mul_associative_and_distributive(a, b, c):
    assert (a * b) * c == a * (b * c)
    n = min(a.order, b.order, c.order)
    lhs = a * (b + c)
    assert lhs.truncate(n) == (a * b + a * c).truncate(n)


@given(unit_series_st())
def test_reciprocal_roundtrip(a):
    assert a * a.reciprocal() == TruncatedSeries.one(a.order)


@given(series_st(), unit_series_st())
def test_division_inverts_multiplication(a, b):
    assert (a * b) / b == a.truncate(b.order)
    assert a / b == a * b.reciprocal()


@given(series_st(), series_st(), st.integers(min_value=0, max_value=9))
def test_mul_truncation_consistency(a, b, m):
    n = min(a.order, b.order)
    m = min(m, n)
    assert (a * b).truncate(m) == a.truncate(m) * b.truncate(m)


@given(unit_series_st(), st.integers(min_value=0, max_value=9))
def test_reciprocal_truncation_consistency(a, m):
    m = min(m, a.order)
    assert a.reciprocal().truncate(m) == a.truncate(m).reciprocal()


# ---------------------------------------------------------------- bivariate


def test_bivariate_add():
    m = BivariateTruncatedSeries.monomial(3, 1, 6)
    assert (m + m).coefficient(3, 1) == 2


def test_geometric_zu():
    g = BivariateTruncatedSeries.geometric_zu(1, 3)
    assert list(g.terms()) == [
        (0, 0, Fraction(1)),
        (1, 1, Fraction(1)),
        (2, 2, Fraction(1)),
        (3, 3, Fraction(1)),
    ]
    with pytest.raises(ValueError):
        BivariateTruncatedSeries.geometric_zu(0, 3)


def test_geometric_zu_times_monomial():
    g = BivariateTruncatedSeries.geometric_zu(1, 4)
    prod = g * BivariateTruncatedSeries.monomial(3, 1, 4)
    assert list(prod.terms()) == [(3, 1, Fraction(1)), (4, 2, Fraction(1))]


def test_mul_univariate():
    m = BivariateTruncatedSeries.monomial(1, 1, 4)
    s = m.mul_univariate(TruncatedSeries([1] * 5))
    assert [t[:2] for t in s.terms()] == [(1, 1), (2, 1), (3, 1), (4, 1)]


def test_substitute_modes_on_monomial():
    m = BivariateTruncatedSeries.monomial(3, 1, 8)
    assert m.substitute_u("one") == TruncatedSeries.monomial(3, 8)
    assert m.substitute_u("z") == TruncatedSeries.monomial(4, 8)


def test_substitute_drops_terms_past_order():
    m = BivariateTruncatedSeries.monomial(3, 2, 4)
    assert m.substitute_u("z").is_zero()          # z^5 > order 4
    assert m.substitute_u("one") == TruncatedSeries.monomial(3, 4)


def test_substitute_rejects_unknown_mode():
    with pytest.raises(ValueError):
        BivariateTruncatedSeries.zero(3).substitute_u("u")


def test_bivariate_order_mismatch():
    with pytest.raises(ValueError):
        BivariateTruncatedSeries.zero(3) + BivariateTruncatedSeries.zero(4)


@given(bivariate_st(), bivariate_st())
def test_substitute_one_is_multiplicative(a, b):
    lhs = (a * b).substitute_u("one")
    rhs = a.substitute_u("one") * b.substitute_u("one")
    assert lhs == rhs


@given(bivariate_st(), bivariate_st())
def test_substitute_z_is_multiplicative(a, b):
    lhs = (a * b).substitute_u("z")
    rhs = a.substitute_u("z") * b.substitute_u("z")
    assert lhs == rhs


@given(bivariate_st(), bivariate_st())
def test_substitute_is_additive(a, b):
    for mode in ("one", "z"):
        assert (a + b).substitute_u(mode) == a.substitute_u(mode) + b.substitute_u(mode)


# ------------------------------------------------------------------- edges


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        TruncatedSeries([0.5])
    with pytest.raises(TypeError):
        TruncatedSeries.monomial(1, 3, coeff=0.25)
    with pytest.raises(TypeError):
        BivariateTruncatedSeries({(0, 0): 0.5}, 2)


def test_from_coeffs_pads_and_truncates():
    assert TruncatedSeries.from_coeffs([1, 2, 3, 4, 5], 2) == TruncatedSeries([1, 2, 3])
    assert TruncatedSeries.from_coeffs([7], 3) == TruncatedSeries([7, 0, 0, 0])


def test_hash_and_eq():
    a = TruncatedSeries([1, Fraction(2)])
    b = TruncatedSeries([Fraction(1), 2])
    assert a == b and hash(a) == hash(b)
    assert a != TruncatedSeries([1, 2, 0])
    x = BivariateTruncatedSeries({(1, 1): 2, (0, 0): 0}, 4)
    y = BivariateTruncatedSeries({(1, 1): Fraction(2)}, 4)
    assert x == y and hash(x) == hash(y)


def test_bivariate_negative_exponents_rejected():
    with pytest.raises(ValueError):
        BivariateTruncatedSeries({(-1, 0): 1}, 4)
