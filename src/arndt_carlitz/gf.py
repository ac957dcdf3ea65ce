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
    beta(z,u)  = - sum_{k>=1} z^(2k-1)*u / prod_{l=1}^{k} (1 - z^(2l-1)*u)
               = 1 - prod_{l>=1} 1/(1 - z^(2l-1)*u)     (the sum telescopes).

Specializing u to 1 and to z gives a 2x2 linear system for F(z,1) and
F(z,z).  Both specializations are written once, as u = z^s with the
exponent shift s = 0 (variant "one") or s = 1 (variant "z"); every factor
of the k-sums is then some 1/(1 - z^m), applied in place on an int list.
alpha is summed by Horner's rule from the largest m = 2k+s down,

    alpha(z,z^s) = z/(1-z) * (T_1 + f_1*(T_2 + f_2*(T_3 + ...))),
    T_k = z^m/(1-z^m),  f_l = 1/(1 - z^(2l-1+s)),

so each k costs one pass over the list.  The products of beta are
partition generating functions: with Euler's function
E(z) = prod_{l>=1} (1-z^l) = sum over k in Z of (-1)^k z^(k(3k-1)/2)
(the pentagonal number theorem; Andrews, The Theory of Partitions, 1976,
ch. 1), which has about 2*sqrt(2N/3) nonzero terms below z^N,

    1 - beta(z,1) = E(z^2)/E(z),        1 - beta(z,z) = 1/E(z^2),

each one division by a sparse series.  The system is solved by

    F(z,1) = Num(z) / D(z),        F(z,z) = alpha(z,z) / D(z),
    Num    = alpha(z,1) + alpha(z,z)*beta(z,1) - alpha(z,1)*beta(z,z)
           = alpha(z,1)*(1 - beta(z,z)) + alpha(z,z)*beta(z,1),
    D      = 1 - alpha(z,1) - beta(z,z) + beta(z,z)*alpha(z,1)
               - alpha(z,z)*beta(z,1)  =  (1 - beta(z,z)) - Num,

where alpha(z,1)*(1 - beta(z,z)) = alpha(z,1)/E(z^2) is a sparse
division, which leaves one dense product.

F(z,1) counts the even-part compositions.  Odd-part compositions arise
from the even ones by attaching one extra part different from the last
(plus the single-part compositions), so their series is

    z/(1-z) + F(z,1)*z/(1-z) - F(z,z),

F(z,z) being exactly the correction for the forbidden repeat of the last
part (each even-part composition contributes z^(n + last part), which the
brute-force oracle confirms).  Since D = (1 - beta(z,z)) - Num,

    1 + F(z,1) = (1 - beta(z,z)) / D,
    odd        = (z/(1-z)*(1 - beta(z,z)) - alpha(z,z)) / D,

so the odd series alone, and the total Num/D + odd, take one division
by D each.

Two independent computation paths are provided, both on int lists: the
closed forms above (production path) and direct iteration of the slice
recurrence on dense rows (cross-check path, slower).  Their agreement,
plus agreement with exhaustive enumeration, is the module's correctness
argument.  Every series here lies in Z[[z]], and each divisor (E(z),
E(z^2), D) has constant term 1, so the quotients stay integral; a counting
series is checked only for negative coefficients.

A function is memoised only when one command re-reads its value: _euler,
alpha_series, beta_series, numerator_series and denominator_series.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, sub
from typing import NamedTuple

from .series import TruncatedSeries

VARIANTS = ("one", "z")

DEFAULT_ORDER = 64


class SeriesConsistencyError(ArithmeticError):
    """A counting series came out with a negative coefficient: arithmetic bug."""


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


def _times_z_over_one_minus_z(c: list) -> TruncatedSeries:
    """z/(1-z) * c, at the order of the coefficient list c (overwritten)."""
    return TruncatedSeries([0] + _divide_one_minus(c, 1)[:-1])


@lru_cache(maxsize=64)
def _euler(step: int, order: int) -> TruncatedSeries:
    """E(z^step) = prod_{l>=1} (1 - z^(step*l)) by the pentagonal theorem.

    E(z) = 1 + sum_{k>=1} (-1)^k (z^(k(3k-1)/2) + z^(k(3k+1)/2)).
    """
    c = [0] * (order + 1)
    c[0] = 1
    k = 1
    while step * k * (3 * k - 1) // 2 <= order:
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if step * g <= order:
                c[step * g] = -1 if k % 2 else 1
        k += 1
    return TruncatedSeries(c)


@lru_cache(maxsize=64)
def alpha_series(variant: str, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """alpha(z,1) (variant "one") or alpha(z,z) (variant "z"), truncated.

    alpha(z,z^s) = z/(1-z) * sum_k z^(2k+s)/(1-z^(2k+s)) / prod_{l<k}(1-z^(2l-1+s))

    With m = 2k+s the k-th summand starts at z^(m+1), so the sum stops at
    m = order - 1, and it is kept below z^order, all that the factor z
    leaves.  Horner's rule from the largest m down: add z^m/(1-z^m) (a 1
    at every multiple of m), then divide by 1 - z^(m-3), the factor that
    the (k-1)-th term shares with all above it.  The running sum then has
    valuation m, so the division starts at z^(m + m-3).
    """
    s = _variant_shift(variant)
    _validate_order(order)
    c = [0] * order
    for m in reversed(range(2 + s, order, 2)):
        for i in range(m, order, m):
            c[i] += 1
        if m > 2 + s:
            f = m - 3
            for i in range(m + f, order):
                c[i] += c[i - f]
    return TruncatedSeries([0] + _divide_one_minus(c, 1))


@lru_cache(maxsize=64)
def beta_series(variant: str, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """beta(z,1) (variant "one") or beta(z,z) (variant "z"), truncated.

    beta(z,z^s) = - sum_k z^(2k-1+s) / prod_{l=1}^{k} (1-z^(2l-1+s))
                = 1 - prod_{l>=1} 1/(1-z^(2l-1+s)),

    because with P(k) = prod_{l=1}^{k} (1-z^(2l-1+s)) the k-th term is
    z^(2k-1+s)/P(k) = 1/P(k) - 1/P(k-1) and the sum telescopes.  So
    -beta(z,1) counts the partitions of n >= 1 into odd parts and
    -beta(z,z) those into even parts.  All coefficients <= 0.  The odd
    parts' product is E(z^2)/E(z), the even parts' 1/E(z^2).
    """
    s = _variant_shift(variant)
    _validate_order(order)
    if s == 0:
        partitions = _euler(2, order) / _euler(1, order)
    else:
        partitions = TruncatedSeries.one(order) / _euler(2, order)
    return TruncatedSeries([0] + [-c for c in partitions.coeffs[1:]])


@lru_cache(maxsize=64)
def numerator_series(order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Num = alpha(z,1) + alpha(z,z)*beta(z,1) - alpha(z,1)*beta(z,z).

    Computed as alpha(z,1)/E(z^2) + alpha(z,z)*beta(z,1), because
    1 - beta(z,z) = 1/E(z^2): one sparse division and one dense product.
    """
    a1 = alpha_series("one", order)
    az = alpha_series("z", order)
    b1 = beta_series("one", order)
    return a1 / _euler(2, order) + az * b1


@lru_cache(maxsize=64)
def denominator_series(order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """D = 1 - alpha(z,1) - beta(z,z) + beta(z,z)*alpha(z,1) - alpha(z,z)*beta(z,1).

    The three alpha terms of D are -Num, so D = 1 - beta(z,z) - Num.
    """
    bz = beta_series("z", order)
    return TruncatedSeries.one(order) - bz - numerator_series(order)


def _require_counting_series(s: TruncatedSeries, name: str) -> TruncatedSeries:
    for n, c in enumerate(s.coeffs):
        if c < 0:
            raise SeriesConsistencyError(
                f"{name} coefficient of z^{n} is {c}; counting series must have "
                f"nonnegative integer coefficients"
            )
    return s


def even_series(order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """F(z,1): number of Arndt-Carlitz compositions of n with evenly many parts."""
    s = numerator_series(order) / denominator_series(order)
    return _require_counting_series(s, "even_series")


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
    odd = _require_counting_series(_times_z_over_one_minus_z(c) - fzz, "odd")
    return SeriesBundle(even=even, fzz=fzz, odd=odd, total=even + odd, order=even.order)


def series_bundle(order: int = DEFAULT_ORDER) -> SeriesBundle:
    """Closed-form bundle (production path)."""
    return _bundle(even_series(order), fzz_series(order))


def _odd_numerator(order: int) -> TruncatedSeries:
    """z/(1-z) * (1 - beta(z,z)) - alpha(z,z), the odd series times D."""
    c = [1] + [-b for b in beta_series("z", order).coeffs[1:]]
    return _times_z_over_one_minus_z(c) - alpha_series("z", order)


def odd_series(order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Number of Arndt-Carlitz compositions of n with oddly many parts."""
    s = _odd_numerator(order) / denominator_series(order)
    return _require_counting_series(s, "odd_series")


def total_series(order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """All Arndt-Carlitz compositions of n, no parity restriction."""
    s = (numerator_series(order) + _odd_numerator(order)) / denominator_series(order)
    return _require_counting_series(s, "total_series")


def _add_slice_kernel(rows: list, f: list) -> list:
    """rows += z^3*u/((1-z)(1-z^2*u)) * f(z), in place on dense rows.

    The kernel is the sum over q >= 1 of z^(2q+1)*u^q/(1-z), so it puts the
    prefix sums of f into row q from z^(2q+1) on.  f is overwritten.
    """
    prefix = _divide_one_minus(f, 1)
    for q in range(1, len(rows)):
        rows[q][2 * q + 1:] = map(add, rows[q][2 * q + 1:], prefix)
    return rows


def _substitute_u(rows, s: int) -> list:
    """sum_q z^(s*q) * rows[q], dense rows in (z, u) at u = z^s (s = 0 or 1), truncated."""
    if not s:
        return [sum(col) for col in zip(*rows)]
    out = [0] * len(rows[0])
    for q, row in enumerate(rows):
        out[q:] = map(add, out[q:], row)
    return out


def slice_iteration_series(order: int = DEFAULT_ORDER) -> list[list[int]]:
    """F(z,u) by direct iteration of the slice recurrence (cross-check path).

    Returns dense int rows, a new list of lists on each call: rows[q][p],
    the coefficient of z^p*u^q, counts the even-part compositions of p
    with last part q.  The smallest slice ending in q is (q+1, q), so row
    q starts at z^(2q+1) and only the rows q = 0..order//2 are stored
    (row 0 is zero).  Each slice contributes at least z^3 (the smallest
    admissible pair is 2 > 1), so a_k has z-valuation 3k and the loop
    ends once the truncated a_k vanishes.
    """
    _validate_order(order)
    n = order
    a = _add_slice_kernel([[0] * (n + 1) for _ in range(n // 2 + 1)], [1] + [0] * n)
    total = [row[:] for row in a]
    while any(map(any, a)):
        at_one = _substitute_u(a, 0)  # a_k(z,1)
        at_z = _substitute_u(a, 1)    # a_k(z,z)
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
    return total


def slice_bundle(order: int = DEFAULT_ORDER) -> SeriesBundle:
    """Counting bundle computed from the slice recurrence (cross-check path)."""
    rows = slice_iteration_series(order)
    even = _require_counting_series(TruncatedSeries(_substitute_u(rows, 0)), "slice even")
    fzz = _require_counting_series(TruncatedSeries(_substitute_u(rows, 1)), "slice fzz")
    return _bundle(even, fzz)
