"""Truncated formal power series with exact integer coefficients.

Two carriers: TruncatedSeries in z, and BivariateTruncatedSeries in (z, u)
with u-substitution maps, each with only the operations that the package,
its acceptance tests and the benchmark tracer call.  The bivariate one
serves library callers (the slice path runs on dense int rows), so it is
defined in the private module _bivariate, loaded on first use, and
resolves here by name.  Every series the package builds lies in Z[[z]],
and every divisor has constant term 1, so coefficients are Python ints
only: an int subclass such as bool is stored as its int value, and any
other type raises TypeError, also for a term past the order that drops.
Nothing in this module ever rounds.  Values are immutable after
construction, so they are safe to share across threads and to cache.

Truncation convention: a series of order N stores coefficients of
z^0 .. z^N inclusive; every operation truncates its result back to order N.
Binary operations on different orders normalize to the smaller order
(+ and - zip the coefficients, so they stop at the shorter series).

A product is one convolution per coefficient, c_k = sum(map(mul, a[:k+1],
b_rev[n-k:])) with b reversed, so the inner loop runs in C; a quotient is
long division over the nonzero terms of the divisor only, whose constant
term must be +-1 (its own inverse, so the quotient stays in Z[[z]]).
"""

from __future__ import annotations

from operator import add, mul, sub
from typing import Iterable


class NonInvertibleSeriesError(ZeroDivisionError):
    """Division by a series whose constant term is not +-1."""


def _int(v: int) -> int:
    """The coefficient v as a plain int (an int subclass such as bool converts)."""
    if isinstance(v, int):
        return int(v)
    # floats and fractions are rejected outright: this module is the exact substrate
    raise TypeError(f"coefficients must be int, got {type(v).__name__}")


class TruncatedSeries:
    """Power series in z truncated at a fixed order, int coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        cs = tuple(coeffs)
        if set(map(type, cs)) - {int}:  # plain ints are canonical already
            cs = tuple(map(_int, cs))
        if not cs:
            raise ValueError("a truncated series needs at least the z^0 coefficient")
        self._coeffs = cs

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls([0] * (order + 1))

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls.monomial(0, order)

    @classmethod
    def monomial(cls, exponent: int, order: int, coeff: int = 1) -> "TruncatedSeries":
        if exponent < 0:
            raise ValueError(f"negative exponent {exponent}")
        cs = [0] * (order + 1)
        coeff = _int(coeff)  # checked even where the term drops
        if exponent <= order:
            cs[exponent] = coeff
        return cls(cs)

    # -- accessors ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    def coefficient(self, n: int) -> int:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} outside truncation order {self.order}")
        return self._coeffs[n]

    def is_zero(self) -> bool:
        return not any(self._coeffs)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return TruncatedSeries(map(add, self._coeffs, other._coeffs))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return TruncatedSeries(map(sub, self._coeffs, other._coeffs))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.order, other.order)
        a = self._coeffs[: n + 1]
        b = other._coeffs[n::-1]  # reversed, so b[n - k:] is b_k, ..., b_0
        return TruncatedSeries(
            [sum(map(mul, a[: k + 1], b[n - k:])) for k in range(n + 1)]
        )

    def __truediv__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Series q with q * other = self up to the common order.

        Long division that visits only the nonzero terms of the divisor,
        so dividing by a sparse series such as 1 - z^m costs O(N).
        """
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        b = other._coeffs
        inv0 = b[0]  # +-1 is its own inverse
        if inv0 not in (1, -1):
            raise NonInvertibleSeriesError(
                f"cannot divide by a series with constant term {inv0} (not +-1)"
            )
        n = min(self.order, other.order)
        support = [(i, b[i]) for i in range(1, n + 1) if b[i]]
        out = list(self._coeffs[: n + 1])
        for k in range(n + 1):
            acc = out[k]
            for i, bi in support:
                if i > k:
                    break
                acc -= bi * out[k - i]
            out[k] = acc * inv0
        return TruncatedSeries(out)

    def reciprocal(self) -> "TruncatedSeries":
        """Series b with self * b = 1 up to the truncation order."""
        return TruncatedSeries.one(self.order) / self

    def truncate(self, order: int) -> "TruncatedSeries":
        if order < 0:
            raise ValueError(f"order must be nonnegative, got {order}")
        if order >= self.order:
            return self
        return TruncatedSeries(self._coeffs[: order + 1])

    def derivative(self) -> "TruncatedSeries":
        """d/dz; the result is one order shorter (the top coefficient is unknown)."""
        if self.order == 0:
            return TruncatedSeries.zero(0)
        return TruncatedSeries(
            [i * self._coeffs[i] for i in range(1, self.order + 1)]
        )

    # -- dunder plumbing -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self._coeffs)})"


def __getattr__(name: str):
    # no command runs the bivariate carrier, so it lives in _bivariate
    # and is compiled on first use (PEP 562)
    if name == "BivariateTruncatedSeries":
        from ._bivariate import BivariateTruncatedSeries

        return BivariateTruncatedSeries
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
