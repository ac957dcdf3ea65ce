"""Truncated formal power series with exact rational coefficients.

Two carriers: TruncatedSeries in z, and BivariateTruncatedSeries in (z, u)
with u-substitution maps.  All arithmetic is exact: every coefficient is
stored in canonical form, an int when it is integral and a
fractions.Fraction otherwise, so integer series stay in int arithmetic
throughout (fractions is imported only once a non-int value, or a divisor
whose constant term is not +-1, shows up).  Nothing in this module ever
rounds.  Values are immutable after construction, so they are safe to
share across threads and to cache.

Truncation convention: a series of order N stores coefficients of
z^0 .. z^N inclusive; every operation truncates its result back to order N.
Binary operations on different orders normalize to the smaller order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Union

if TYPE_CHECKING:
    from fractions import Fraction

Scalar = Union[int, "Fraction"]


class NonInvertibleSeriesError(ZeroDivisionError):
    """Division by a series whose constant term is zero."""


def _is_scalar(v: object) -> bool:
    """True for an int or a Fraction; only a non-int imports fractions."""
    if isinstance(v, int):
        return True
    from fractions import Fraction

    return isinstance(v, Fraction)


def _frac(v: Scalar) -> Scalar:
    """Canonical exact coefficient: int when integral, else Fraction."""
    if isinstance(v, int):
        return int(v)
    if _is_scalar(v):
        return v.numerator if v.denominator == 1 else v
    # floats are rejected outright: this module is the exact substrate
    raise TypeError(f"coefficients must be int or Fraction, got {type(v).__name__}")


class TruncatedSeries:
    """Power series in z truncated at a fixed order, exact coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Scalar]):
        cs = tuple(map(_frac, coeffs))
        if not cs:
            raise ValueError("a truncated series needs at least the z^0 coefficient")
        self._coeffs = cs

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[Scalar], order: int) -> "TruncatedSeries":
        """Series with the given low-order coefficients, zero-padded to order."""
        cs = list(coeffs)[: order + 1]
        cs += [0] * (order + 1 - len(cs))
        return cls(cs)

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls([0] * (order + 1))

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls.monomial(0, order)

    @classmethod
    def monomial(cls, exponent: int, order: int, coeff: Scalar = 1) -> "TruncatedSeries":
        cs = [0] * (order + 1)
        if 0 <= exponent <= order:
            cs[exponent] = _frac(coeff)
        return cls(cs)

    # -- accessors ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Scalar, ...]:
        return self._coeffs

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    def coefficient(self, n: int) -> Scalar:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} outside truncation order {self.order}")
        return self._coeffs[n]

    def is_zero(self) -> bool:
        return not any(self._coeffs)

    def valuation(self) -> int | None:
        """Exponent of the lowest nonzero term, or None for the zero series."""
        for i, c in enumerate(self._coeffs):
            if c:
                return i
        return None

    # -- arithmetic --------------------------------------------------------

    def _common_order(self, other: "TruncatedSeries") -> int:
        return min(self.order, other.order)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = self._common_order(other)
        return TruncatedSeries(
            [self._coeffs[i] + other._coeffs[i] for i in range(n + 1)]
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = self._common_order(other)
        return TruncatedSeries(
            [self._coeffs[i] - other._coeffs[i] for i in range(n + 1)]
        )

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries([-c for c in self._coeffs])

    def __mul__(self, other: Union["TruncatedSeries", Scalar]) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            if not _is_scalar(other):
                return NotImplemented
            s = _frac(other)
            return TruncatedSeries([c * s for c in self._coeffs])
        n = self._common_order(other)
        out = [0] * (n + 1)
        for i, a in enumerate(self._coeffs[: n + 1]):
            if not a:
                continue
            for j in range(n + 1 - i):
                b = other._coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncatedSeries(out)

    __rmul__ = __mul__

    def __truediv__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Series q with q * other = self up to the common order.

        Long division that visits only the nonzero terms of the divisor,
        so dividing by a sparse series such as 1 - z^m costs O(N).
        """
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        b = other._coeffs
        if b[0] == 0:
            raise NonInvertibleSeriesError(
                "cannot divide by a series with zero constant term"
            )
        n = self._common_order(other)
        if b[0] in (1, -1):  # its own inverse: integer series stay int
            inv0 = b[0]
        else:
            from fractions import Fraction

            inv0 = _frac(Fraction(1, b[0]))
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

    def shift(self, d: int) -> "TruncatedSeries":
        """Multiply by z^d (terms pushed past the order fall off)."""
        if d < 0:
            raise ValueError(f"shift must be nonnegative, got {d}")
        n = self.order
        if d > n:
            return TruncatedSeries.zero(n)
        return TruncatedSeries([0] * d + list(self._coeffs[: n + 1 - d]))

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

    def evaluate(self, x: Scalar) -> Scalar:
        """Exact Horner evaluation of the truncated polynomial at rational x."""
        xf = _frac(x)
        acc = 0
        for c in reversed(self._coeffs):
            acc = acc * xf + c
        return _frac(acc)

    # -- dunder plumbing -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"TruncatedSeries({[str(c) for c in self._coeffs]})"


class BivariateTruncatedSeries:
    """Series in z and u, truncated at order N in each variable separately.

    Sparse representation: only nonzero (z-power, u-power) -> coefficient
    entries are stored.  u is an auxiliary marker (it records the value of
    the last part in the slice recurrence), so there is a substitution map
    back into univariate series for u -> 1 and u -> z.
    """

    __slots__ = ("_coeffs", "_order")

    def __init__(self, coeffs: dict[tuple[int, int], Scalar], order: int):
        if order < 0:
            raise ValueError(f"order must be nonnegative, got {order}")
        store: dict[tuple[int, int], Scalar] = {}
        for (p, q), v in coeffs.items():
            if p < 0 or q < 0:
                raise ValueError(f"negative exponent pair ({p}, {q})")
            if p > order or q > order:
                continue
            fv = _frac(v)
            if fv:
                store[(p, q)] = fv
        self._coeffs = store
        self._order = order

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "BivariateTruncatedSeries":
        return cls({}, order)

    @classmethod
    def monomial(
        cls, zpow: int, upow: int, order: int, coeff: Scalar = 1
    ) -> "BivariateTruncatedSeries":
        return cls({(zpow, upow): coeff}, order)

    @classmethod
    def geometric_zu(cls, step: int, order: int) -> "BivariateTruncatedSeries":
        """1/(1 - z^step * u) = sum_j z^(step*j) u^j."""
        if step < 1:
            raise ValueError(f"step must be >= 1, got {step}")
        d = {}
        j = 0
        while step * j <= order and j <= order:
            d[(step * j, j)] = 1
            j += 1
        return cls(d, order)

    # -- accessors ---------------------------------------------------------

    @property
    def order(self) -> int:
        return self._order

    def coefficient(self, zpow: int, upow: int) -> Scalar:
        return self._coeffs.get((zpow, upow), 0)

    def terms(self) -> Iterator[tuple[int, int, Scalar]]:
        """Nonzero terms as (z-power, u-power, coefficient), sorted."""
        for (p, q) in sorted(self._coeffs):
            yield p, q, self._coeffs[(p, q)]

    def is_zero(self) -> bool:
        return not self._coeffs

    # -- arithmetic --------------------------------------------------------

    def _require_same_order(self, other: "BivariateTruncatedSeries") -> None:
        if self._order != other._order:
            raise ValueError(
                f"bivariate order mismatch: {self._order} vs {other._order}"
            )

    def __add__(self, other: "BivariateTruncatedSeries") -> "BivariateTruncatedSeries":
        if not isinstance(other, BivariateTruncatedSeries):
            return NotImplemented
        self._require_same_order(other)
        out = dict(self._coeffs)
        for k, v in other._coeffs.items():
            out[k] = out.get(k, 0) + v
        return BivariateTruncatedSeries(out, self._order)

    def __sub__(self, other: "BivariateTruncatedSeries") -> "BivariateTruncatedSeries":
        if not isinstance(other, BivariateTruncatedSeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "BivariateTruncatedSeries":
        return BivariateTruncatedSeries(
            {k: -v for k, v in self._coeffs.items()}, self._order
        )

    def __mul__(self, other: "BivariateTruncatedSeries") -> "BivariateTruncatedSeries":
        if not isinstance(other, BivariateTruncatedSeries):
            return NotImplemented
        self._require_same_order(other)
        n = self._order
        out: dict[tuple[int, int], Scalar] = {}
        for (p1, q1), v1 in self._coeffs.items():
            for (p2, q2), v2 in other._coeffs.items():
                p, q = p1 + p2, q1 + q2
                if p <= n and q <= n:
                    key = (p, q)
                    out[key] = out.get(key, 0) + v1 * v2
        return BivariateTruncatedSeries(out, n)

    def mul_univariate(self, s: TruncatedSeries) -> "BivariateTruncatedSeries":
        """Multiply by a series in z alone."""
        n = self._order
        out: dict[tuple[int, int], Scalar] = {}
        for (p1, q1), v1 in self._coeffs.items():
            for i in range(min(s.order, n - p1) + 1):
                c = s.coeffs[i]
                if c:
                    key = (p1 + i, q1)
                    out[key] = out.get(key, 0) + v1 * c
        return BivariateTruncatedSeries(out, n)

    # -- substitution ------------------------------------------------------

    def substitute_u(self, mode: str) -> TruncatedSeries:
        """Substitute u = z^s for the marker, giving a series in z.

        mode "one":  u -> 1 (s = 0).
        mode "z":    u -> z (s = 1; terms past the order drop).
        """
        s = {"one": 0, "z": 1}.get(mode)
        if s is None:
            raise ValueError(f"mode must be 'one' or 'z', got {mode!r}")
        n = self._order
        out = [0] * (n + 1)
        for (p, q), v in self._coeffs.items():
            if p + s * q <= n:
                out[p + s * q] += v
        return TruncatedSeries(out)

    # -- dunder plumbing -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BivariateTruncatedSeries):
            return NotImplemented
        return self._order == other._order and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self._order, frozenset(self._coeffs.items())))

    def __repr__(self) -> str:
        inner = ", ".join(f"z^{p}*u^{q}: {v}" for p, q, v in self.terms())
        return f"BivariateTruncatedSeries({{{inner}}}, order={self._order})"
