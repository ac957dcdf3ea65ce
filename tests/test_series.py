import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

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
    head = draw(st.sampled_from([1, -1]))
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
    one_plus = TruncatedSeries([1, 1, 0, 0])
    one_minus = TruncatedSeries([1, -1, 0, 0])
    assert one_plus * one_minus == TruncatedSeries([1, 0, -1, 0])
    # sparse times dense, zero constant term:
    # 2z * (3 + 2z - 3z^2 + 5z^3) = 6z + 4z^2 - 6z^3 (order 3)
    sparse = TruncatedSeries([0, 2, 0, 0])
    dense = TruncatedSeries([3, 2, -3, 5])
    for product in (sparse * dense, dense * sparse):
        assert product.coeffs == (0, 6, 4, -6)


def test_mul_telescopes_to_truncated_one():
    a = TruncatedSeries([1, 1, 1, 1])
    b = TruncatedSeries([1, -1, 0, 0])
    assert a * b == TruncatedSeries([1, 0, 0, 0])


def test_add_monomials():
    s = TruncatedSeries.monomial(3, 5) + TruncatedSeries.monomial(4, 5)
    assert (s + TruncatedSeries.monomial(5, 5)).coeffs == (0, 0, 0, 1, 1, 1)


def test_reciprocal_geometric():
    assert TruncatedSeries([1, -1, 0, 0, 0]).reciprocal() == TruncatedSeries(
        [1, 1, 1, 1, 1]
    )
    assert TruncatedSeries.one(3).reciprocal() == TruncatedSeries.one(3)


def test_reciprocal_fibonacci():
    # 1/(1 - z - z^2) generates the Fibonacci numbers
    fib = TruncatedSeries([1, -1, -1, 0, 0, 0])
    s = fib.reciprocal()
    assert s == TruncatedSeries([1, 1, 2, 3, 5, 8])
    assert s * fib == TruncatedSeries.one(5)


def test_reciprocal_requires_unit_constant():
    with pytest.raises(NonInvertibleSeriesError):
        TruncatedSeries([0, 1]).reciprocal()
    with pytest.raises(NonInvertibleSeriesError):
        TruncatedSeries([1, 2]) / TruncatedSeries([0, 1])
    # the quotient of int series stays in Z[[z]] only for a constant term +-1
    with pytest.raises(NonInvertibleSeriesError):
        TruncatedSeries.one(3) / TruncatedSeries([2, 1, 0, 0])
    assert TruncatedSeries([-1, 1, 0]).reciprocal() == TruncatedSeries([-1, -1, -1])


def test_integral_coefficients_are_stored_as_int():
    # an int subclass is stored as its int value
    s = TruncatedSeries([True, 2])
    assert s.coeffs == (1, 2)
    assert [type(c) for c in s.coeffs] == [int, int]
    assert type(TruncatedSeries.monomial(1, 2, True).coeffs[1]) is int
    (term,) = BivariateTruncatedSeries({(1, 1): True}, 2).terms()
    assert term == (1, 1, 1) and type(term[2]) is int


def test_is_zero():
    assert TruncatedSeries.zero(5).is_zero()
    assert not TruncatedSeries.monomial(4, 6).is_zero()
    assert TruncatedSeries.monomial(7, 6).is_zero()  # past the order


def test_coefficient_bounds():
    s = TruncatedSeries([1, 2, 3])
    assert s.coefficient(2) == 3
    with pytest.raises(IndexError):
        s.coefficient(3)


def test_derivative():
    s = TruncatedSeries([5, 1, 2, 7])  # 5 + z + 2z^2 + 7z^3
    assert s.derivative() == TruncatedSeries([1, 4, 21])
    # no coefficient is known below an order-0 constant's top one
    assert TruncatedSeries([5]).derivative() == TruncatedSeries.zero(0)


def test_truncate():
    s = TruncatedSeries([1, 2, 3, 4])
    assert s.truncate(1) == TruncatedSeries([1, 2])
    assert s.truncate(5) is s
    with pytest.raises(ValueError):
        s.truncate(-1)


def test_empty_series_is_rejected():
    with pytest.raises(ValueError):
        TruncatedSeries([])


@given(series_st())
@example(TruncatedSeries([0, 1, -2]))
def test_repr_evaluates_to_an_equal_series(s):
    assert eval(repr(s)) == s


@given(series_st(), series_st())
def test_mul_commutative(a, b):
    assert a * b == b * a


@given(series_st(), series_st(), series_st())
def test_mul_associative_and_distributive(a, b, c):
    assert (a * b) * c == a * (b * c)
    n = min(a.order, b.order, c.order)
    lhs = a * (b + c)
    assert lhs.truncate(n) == (a * b + a * c).truncate(n)


@given(series_st(), series_st())
def test_add_sub_of_unequal_orders_stop_at_the_smaller(a, b):
    n = min(a.order, b.order)
    for op in (operator.add, operator.sub):
        want = [op(a.coeffs[i], b.coeffs[i]) for i in range(n + 1)]
        assert op(a, b) == TruncatedSeries(want)


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
    m = BivariateTruncatedSeries({(3, 1): 1}, 6)
    assert list((m + m).terms()) == [(3, 1, 2)]


def test_geometric_zu():
    g = BivariateTruncatedSeries.geometric_zu(1, 3)
    assert list(g.terms()) == [(0, 0, 1), (1, 1, 1), (2, 2, 1), (3, 3, 1)]
    with pytest.raises(ValueError):
        BivariateTruncatedSeries.geometric_zu(0, 3)


def test_geometric_zu_times_monomial():
    g = BivariateTruncatedSeries.geometric_zu(1, 4)
    prod = g * BivariateTruncatedSeries({(3, 1): 1}, 4)
    assert list(prod.terms()) == [(3, 1, 1), (4, 2, 1)]


def test_mul_univariate():
    m = BivariateTruncatedSeries({(1, 1): 1}, 4)
    s = m.mul_univariate(TruncatedSeries([1] * 5))
    assert [t[:2] for t in s.terms()] == [(1, 1), (2, 1), (3, 1), (4, 1)]


def test_substitute_modes_on_monomial():
    m = BivariateTruncatedSeries({(3, 1): 1}, 8)
    assert m.substitute_u("one") == TruncatedSeries.monomial(3, 8)
    assert m.substitute_u("z") == TruncatedSeries.monomial(4, 8)


def test_substitute_drops_terms_past_order():
    m = BivariateTruncatedSeries({(3, 2): 1}, 4)
    assert m.substitute_u("z").is_zero()          # z^5 > order 4
    assert m.substitute_u("one") == TruncatedSeries.monomial(3, 4)


def test_substitute_rejects_unknown_mode():
    with pytest.raises(ValueError):
        BivariateTruncatedSeries({}, 3).substitute_u("u")


def test_bivariate_order_mismatch():
    a, b = BivariateTruncatedSeries({}, 3), BivariateTruncatedSeries({}, 4)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a - b


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
        assert (a - b).substitute_u(mode) == a.substitute_u(mode) - b.substitute_u(mode)


# The carrier's +, - and mul_univariate against a plain-dict reference: the
# terms of an equal-order pair (exponents may lie past the order and drop)
# and factors s shorter and longer than the carrier.

exponent_dict_st = st.dictionaries(
    st.tuples(st.integers(0, 12), st.integers(0, 12)), coeffs_st, max_size=12
)


def _within(entries, order):
    """The nonzero terms of entries that lie inside the truncation order."""
    return {k: v for k, v in entries.items() if v and max(k) <= order}


def _terms(carrier):
    return {(p, q): v for p, q, v in carrier.terms()}


@given(st.integers(0, 10), exponent_dict_st, exponent_dict_st)
def test_bivariate_add_sub_match_a_dict_reference(order, x, y):
    a, b = BivariateTruncatedSeries(x, order), BivariateTruncatedSeries(y, order)
    for op in (operator.add, operator.sub):
        want = {k: op(x.get(k, 0), y.get(k, 0)) for k in x.keys() | y.keys()}
        assert _terms(op(a, b)) == _within(want, order)


@given(
    st.integers(0, 10),
    exponent_dict_st,
    st.lists(coeffs_st, min_size=1, max_size=13),  # s of order 0-12
)
def test_mul_univariate_matches_a_dict_reference(order, x, s):
    want = {}
    for (p, q), v in x.items():
        for i, c in enumerate(s):
            want[(p + i, q)] = want.get((p + i, q), 0) + v * c
    got = BivariateTruncatedSeries(x, order).mul_univariate(TruncatedSeries(s))
    assert got.order == order
    assert _terms(got) == _within(want, order)


# ------------------------------------------------------------------- edges


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        TruncatedSeries([0.5])
    with pytest.raises(TypeError):
        TruncatedSeries.monomial(1, 3, coeff=0.25)
    with pytest.raises(TypeError):
        BivariateTruncatedSeries({(0, 0): 0.5}, 2)
    # a term past the order drops, but its coefficient is checked first
    with pytest.raises(TypeError):
        TruncatedSeries.monomial(7, 3, 0.5)
    with pytest.raises(TypeError):
        BivariateTruncatedSeries({(9, 0): 0.5}, 4)


def test_fractions_are_rejected():
    # every series of the package lies in Z[[z]]: no rational coefficients
    with pytest.raises(TypeError):
        TruncatedSeries([Fraction(1, 2)])
    with pytest.raises(TypeError):
        TruncatedSeries.monomial(2, 4, Fraction(1, 2))
    with pytest.raises(TypeError):
        BivariateTruncatedSeries({(1, 1): Fraction(1, 2)}, 4)
    with pytest.raises(TypeError):
        TruncatedSeries.monomial(7, 3, Fraction(1, 2))
    with pytest.raises(TypeError):
        BivariateTruncatedSeries({(0, 9): Fraction(1, 2)}, 4)


def test_monomial_rejects_a_negative_exponent():
    with pytest.raises(ValueError):
        TruncatedSeries.monomial(-1, 3)


def test_hash_and_eq():
    a = TruncatedSeries([True, 2])
    b = TruncatedSeries((1, 2))
    assert a == b and hash(a) == hash(b)
    assert a != TruncatedSeries([1, 2, 0])
    x = BivariateTruncatedSeries({(1, 1): 2, (0, 0): 0}, 4)
    y = BivariateTruncatedSeries({(1, 1): 2}, 4)
    assert x == y and hash(x) == hash(y)
    assert list(x.terms()) == [(1, 1, 2)]
    assert x != BivariateTruncatedSeries({(1, 1): 2}, 5)


@pytest.mark.parametrize("s", [
    TruncatedSeries([1, 2]), BivariateTruncatedSeries({(1, 1): 2}, 4),
], ids=["univariate", "bivariate"])
def test_an_int_operand_is_not_a_series(s):
    # each operator returns NotImplemented, so Python raises TypeError
    # (and == falls back to identity) instead of treating 1 as a series
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            op(s, 1)
    assert (s == 1) is False


def test_bivariate_negative_exponents_rejected():
    with pytest.raises(ValueError):
        BivariateTruncatedSeries({(-1, 0): 1}, 4)
    with pytest.raises(ValueError):
        BivariateTruncatedSeries({}, -1)


@pytest.mark.parametrize(
    "coeffs, order",
    [
        ({(1.5, 0): 1}, 4),
        ({(0, 2.0): 1}, 4),
        ({(9.0, 0): 1}, 4),  # past the order, checked before it drops
        ({(Fraction(1), 0): 1}, 4),
        ({(1, 1): 1}, 2.5),
        ({}, 2.0),
        ({}, "3"),
    ],
    ids=["z-float", "u-float", "dropped-float", "fraction", "order-float", "order-whole-float",
         "order-str"],
)
def test_bivariate_non_int_exponents_and_orders_rejected(coeffs, order):
    # a float exponent once reached substitute_u as a list index
    with pytest.raises(TypeError):
        BivariateTruncatedSeries(coeffs, order)


def test_bivariate_int_subclass_exponents_are_stored_as_int():
    s = BivariateTruncatedSeries({(True, 0): 2}, True)
    assert s == BivariateTruncatedSeries({(1, 0): 2}, 1)
    assert s.substitute_u("one").coeffs == (0, 2)
    assert all(type(e) is int for term in s.terms() for e in term) and type(s.order) is int


def test_bivariate_terms_past_the_order_drop():
    # a z-power or a u-power above the order is truncated away
    s = BivariateTruncatedSeries({(1, 1): 3, (5, 0): 1, (0, 5): 1}, 4)
    assert list(s.terms()) == [(1, 1, 3)]
    assert s == BivariateTruncatedSeries({(1, 1): 3}, 4)
