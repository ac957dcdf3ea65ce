"""Generating functions for Arndt-Carlitz compositions.

Let F(z, u) = sum over Arndt-Carlitz compositions with an even number of
parts of z^(sum of parts) * u^(last part).  Appending one admissible slice
(a pair a > b with a different from the previous last part) maps a marker
monomial u^j to

    z^3*u/((1-z)(1-z^2*u)) - z^j * (zu - (zu)^j)/(1 - zu),

which gives the slice recurrence

    a_{k+1}(z,u) = z^3*u/((1-z)(1-z^2*u)) * a_k(z,1)
                   - zu/(1-zu) * a_k(z,z) + 1/(1-zu) * a_k(z, z^2*u),
    a_1(z,u)     = z^3*u/((1-z)(1-z^2*u)),

where a_k counts the compositions with exactly 2k parts.  Summing over k
and iterating yields the linear functional equation

    F(z,u) = alpha(z,u) * (F(z,1) + 1) + beta(z,u) * F(z,z),

with coefficient functions

    alpha(z,u) = 1/(1-z) * sum_{k>=1} z^(2k+1)*u / (1 - z^(2k)*u)
                           / prod_{l=1}^{k-1} (1 - z^(2l-1)*u),
    beta(z,u)  = - sum_{k>=1} z^(2k-1)*u / prod_{l=1}^{k} (1 - z^(2l-1)*u).

Specializing u to 1 and to z gives a 2x2 linear system for F(z,1) and
F(z,z).  Both specializations are written once, as u = z^s with the
exponent shift s = 0 (variant "one") or s = 1 (variant "z"); every factor
of the k-sums is then some 1/(1 - z^m), applied in place on an int list.
The system is solved by

    F(z,1) = Num(z) / D(z),        F(z,z) = alpha(z,z) / D(z),
    Num    = alpha(z,1) + alpha(z,z)*beta(z,1) - alpha(z,1)*beta(z,z),
    D      = 1 - alpha(z,1) - beta(z,z) + beta(z,z)*alpha(z,1)
               - alpha(z,z)*beta(z,1).

F(z,1) counts the even-part compositions.  Odd-part compositions arise
from the even ones by attaching one extra part different from the last
(plus the single-part compositions), so their series is

    z/(1-z) + F(z,1)*z/(1-z) - F(z,z),

F(z,z) being exactly the correction for the forbidden repeat of the last
part (each even-part composition contributes z^(n + last part), which the
brute-force oracle confirms).

Two independent computation paths are provided, both on int lists: the
closed forms above (production path) and direct iteration of the slice
recurrence on dense rows (cross-check path, slower).  Their agreement,
plus agreement with exhaustive enumeration, is the module's correctness
argument.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, sub
from typing import NamedTuple

from .series import BivariateTruncatedSeries, TruncatedSeries

VARIANTS = ("one", "z")

DEFAULT_ORDER = 64


class SeriesConsistencyError(ArithmeticError):
    """A counting series came out non-integral or negative: arithmetic bug."""


def _variant_shift(variant: str) -> int:
    """The exponent s with u = z^s: 0 for variant "one", 1 for variant "z"."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    return VARIANTS.index(variant)


def _validate_order(order: int) -> None:
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")


def _divide_one_minus(c: list, m: int) -> list:
    """Divide the coefficient list c by 1 - z^m (m >= 1) in place, in O(N)."""
    for i in range(m, len(c)):
        c[i] += c[i - m]
    return c


@lru_cache(maxsize=64)
def alpha_series(variant: str, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """alpha(z,1) (variant "one") or alpha(z,z) (variant "z"), truncated.

    alpha(z,z^s) = z/(1-z) * sum_k z^(2k+s)/(1-z^(2k+s)) / prod_{l<k}(1-z^(2l-1+s))

    With m = 2k+s the k-th summand starts at z^(m+1), so the sum stops at
    m = order - 1.  The sum is kept below z^order, all that the factor z
    leaves, so of the k-th quotient only its first order - m terms count.
    """
    s = _variant_shift(variant)
    _validate_order(order)
    total = [0] * order
    prod = [1] + [0] * order
    for m in range(2 + s, order, 2):
        if m > 2 + s:
            _divide_one_minus(prod, m - 3)
        total[m:] = map(add, total[m:], _divide_one_minus(prod[: order - m], m))
    return TruncatedSeries([0] + _divide_one_minus(total, 1))


@lru_cache(maxsize=64)
def beta_series(variant: str, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """beta(z,1) (variant "one") or beta(z,z) (variant "z"), truncated.

    beta(z,z^s) = - sum_k z^(2k-1+s) / prod_{l=1}^{k} (1-z^(2l-1+s))

    Valuation of the k-th term: m = 2k-1+s.  All coefficients <= 0.
    """
    s = _variant_shift(variant)
    _validate_order(order)
    total = [0] * (order + 1)
    prod = [1] + [0] * order
    for m in range(1 + s, order + 1, 2):
        _divide_one_minus(prod, m)
        total[m:] = map(add, total[m:], prod)
    return TruncatedSeries([-c for c in total])


@lru_cache(maxsize=64)
def numerator_series(order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Num = alpha(z,1) + alpha(z,z)*beta(z,1) - alpha(z,1)*beta(z,z)."""
    a1 = alpha_series("one", order)
    az = alpha_series("z", order)
    b1 = beta_series("one", order)
    bz = beta_series("z", order)
    return a1 + az * b1 - a1 * bz


@lru_cache(maxsize=64)
def denominator_series(order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """D = 1 - alpha(z,1) - beta(z,z) + beta(z,z)*alpha(z,1) - alpha(z,z)*beta(z,1).

    The three alpha terms of D are -Num, so D = 1 - beta(z,z) - Num.
    """
    bz = beta_series("z", order)
    return TruncatedSeries.one(order) - bz - numerator_series(order)


def _require_counting_series(s: TruncatedSeries, name: str) -> TruncatedSeries:
    for n, c in enumerate(s.coeffs):
        if c.denominator != 1 or c < 0:
            raise SeriesConsistencyError(
                f"{name} coefficient of z^{n} is {c}; counting series must have "
                f"nonnegative integer coefficients"
            )
    return s


@lru_cache(maxsize=64)
def even_series(order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """F(z,1): number of Arndt-Carlitz compositions of n with evenly many parts."""
    s = numerator_series(order) / denominator_series(order)
    return _require_counting_series(s, "even_series")


@lru_cache(maxsize=64)
def fzz_series(order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """F(z,z) = alpha(z,z)/D: even-part compositions weighted by z^(last part)."""
    s = alpha_series("z", order) / denominator_series(order)
    return _require_counting_series(s, "fzz_series")


class SeriesBundle(NamedTuple):
    """The four counting series at one truncation order."""

    even: TruncatedSeries
    fzz: TruncatedSeries
    odd: TruncatedSeries
    total: TruncatedSeries
    order: int


def _bundle(even: TruncatedSeries, fzz: TruncatedSeries) -> SeriesBundle:
    """Complete F(z,1) and F(z,z) to the bundle, whichever path made them.

    odd = z/(1-z) * (1 + F(z,1)) - F(z,z): attach a part different from
    the last to an even-part composition, plus the one-part compositions.
    z/(1-z) * (1 + F(z,1)) takes one O(N) division by 1 - z.
    """
    c = list(even.coeffs)
    c[0] += 1
    attached = TruncatedSeries([0] + _divide_one_minus(c, 1)[: even.order])
    odd = _require_counting_series(attached - fzz, "odd")
    return SeriesBundle(even=even, fzz=fzz, odd=odd, total=even + odd, order=even.order)


def series_bundle(order: int = DEFAULT_ORDER) -> SeriesBundle:
    """Closed-form bundle (production path)."""
    return _bundle(even_series(order), fzz_series(order))


@lru_cache(maxsize=64)
def odd_series(order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Number of Arndt-Carlitz compositions of n with oddly many parts."""
    return series_bundle(order).odd


@lru_cache(maxsize=64)
def total_series(order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """All Arndt-Carlitz compositions of n, no parity restriction."""
    return series_bundle(order).total


def _add_slice_kernel(rows: list, f: list) -> list:
    """rows += z^3*u/((1-z)(1-z^2*u)) * f(z), in place on dense rows.

    The kernel is the sum over q >= 1 of z^(2q+1)*u^q/(1-z), so it puts the
    prefix sums of f into row q from z^(2q+1) on.  f is overwritten.
    """
    prefix = _divide_one_minus(f, 1)
    for q in range(1, len(rows)):
        rows[q][2 * q + 1:] = map(add, rows[q][2 * q + 1:], prefix)
    return rows


@lru_cache(maxsize=16)
def slice_iteration_series(order: int = DEFAULT_ORDER) -> BivariateTruncatedSeries:
    """F(z,u) by direct iteration of the slice recurrence (cross-check path).

    a_k is kept as dense int rows: a[q][p] is the coefficient of z^p*u^q,
    q being the last part.  The smallest slice ending in q is (q+1, q), so
    row q starts at z^(2q+1) and rows above order/2 are never stored.  Each
    slice contributes at least z^3 (the smallest admissible pair is 2 > 1),
    so a_k has z-valuation 3k and the loop ends once the truncated a_k
    vanishes.
    """
    _validate_order(order)
    n = order
    a = _add_slice_kernel([[0] * (n + 1) for _ in range(n // 2 + 1)], [1] + [0] * n)
    total = [row[:] for row in a]
    while any(map(any, a)):
        at_one = [sum(col) for col in zip(*a)]  # a_k(z,1)
        at_z = [0] * (n + 1)                    # a_k(z,z)
        for q, row in enumerate(a):
            at_z[q:] = map(add, at_z[q:], row[: n + 1 - q])
        # (a_k(z, z^2*u) - zu*a_k(z,z)) / (1 - zu), one row after the other
        a = [[0] * (2 * q) + row[: n + 1 - 2 * q] for q, row in enumerate(a)]
        a[1][1:] = map(sub, a[1][1:], at_z[:n])
        for q in range(1, len(a)):
            a[q][1:] = map(add, a[q][1:], a[q - 1][:n])
        _add_slice_kernel(a, at_one)
        # row q of a_k starts at z^(3k+2q-2), so an empty top row stays empty
        while a and not any(a[-1]):
            a.pop()
        for t, row in zip(total, a):
            t[:] = map(add, t, row)
    terms = {(p, q): v for q, row in enumerate(total) for p, v in enumerate(row) if v}
    return BivariateTruncatedSeries(terms, n)


def slice_bundle(order: int = DEFAULT_ORDER) -> SeriesBundle:
    """Counting bundle computed from the slice recurrence (cross-check path)."""
    f = slice_iteration_series(order)
    even = _require_counting_series(f.substitute_u("one"), "slice even")
    fzz = _require_counting_series(f.substitute_u("z"), "slice fzz")
    return _bundle(even, fzz)
