"""A bivariate truncated series in (z, u), for library callers.

Resolved as arndt_carlitz.series.BivariateTruncatedSeries too.  gf runs
the slice recurrence on dense int rows, so no command loads this module.
The carrier is a sparse dict; + and - share one term-wise loop, and
mul_univariate is the product with its factor lifted to u^0 terms.
Coefficients are ints, checked as in TruncatedSeries, dropped terms too;
an exponent or the order that is no integer raises TypeError.
"""

from __future__ import annotations

from operator import add, index, sub
from typing import Iterator

from .series import TruncatedSeries, _int


class BivariateTruncatedSeries:
    """Series in z and u, truncated at order N in each variable separately.

    Sparse representation: only nonzero (z-power, u-power) -> coefficient
    entries are stored.  u is an auxiliary marker (it records the value of
    the last part in the slice recurrence), so there is a substitution map
    back into univariate series for u -> 1 and u -> z.
    """

    __slots__ = ("_coeffs", "_order")

    def __init__(self, coeffs: dict[tuple[int, int], int], order: int):
        order = index(order)  # TypeError for a float, as for each exponent
        if order < 0:
            raise ValueError(f"order must be nonnegative, got {order}")
        store: dict[tuple[int, int], int] = {}
        for (p, q), v in coeffs.items():
            p, q = index(p), index(q)
            if p < 0 or q < 0:
                raise ValueError(f"negative exponent pair ({p}, {q})")
            fv = _int(v)  # checked even where the term drops
            if fv and p <= order and q <= order:
                store[(p, q)] = fv
        self._coeffs = store
        self._order = order

    # -- constructors ------------------------------------------------------

    @classmethod
    def geometric_zu(cls, step: int, order: int) -> "BivariateTruncatedSeries":
        """1/(1 - z^step * u) = sum_j z^(step*j) u^j."""
        if step < 1:
            raise ValueError(f"step must be >= 1, got {step}")
        return cls({(step * j, j): 1 for j in range(order // step + 1)}, order)

    # -- accessors ---------------------------------------------------------

    @property
    def order(self) -> int:
        return self._order

    def terms(self) -> Iterator[tuple[int, int, int]]:
        """Nonzero terms as (z-power, u-power, coefficient), sorted."""
        for (p, q) in sorted(self._coeffs):
            yield p, q, self._coeffs[(p, q)]

    # -- arithmetic --------------------------------------------------------

    def _require_same_order(self, other: "BivariateTruncatedSeries") -> None:
        if self._order != other._order:
            raise ValueError(
                f"bivariate order mismatch: {self._order} vs {other._order}"
            )

    def _combine(self, other: object, op) -> "BivariateTruncatedSeries":
        """Term-wise op(self, other): the one loop behind + and -."""
        if not isinstance(other, BivariateTruncatedSeries):
            return NotImplemented
        self._require_same_order(other)
        out = dict(self._coeffs)
        for k, v in other._coeffs.items():
            out[k] = op(out.get(k, 0), v)
        return BivariateTruncatedSeries(out, self._order)

    def __add__(self, other: "BivariateTruncatedSeries") -> "BivariateTruncatedSeries":
        return self._combine(other, add)

    def __sub__(self, other: "BivariateTruncatedSeries") -> "BivariateTruncatedSeries":
        return self._combine(other, sub)

    def __mul__(self, other: "BivariateTruncatedSeries") -> "BivariateTruncatedSeries":
        if not isinstance(other, BivariateTruncatedSeries):
            return NotImplemented
        self._require_same_order(other)
        n = self._order
        out: dict[tuple[int, int], int] = {}
        for (p1, q1), v1 in self._coeffs.items():
            for (p2, q2), v2 in other._coeffs.items():
                p, q = p1 + p2, q1 + q2
                if p <= n and q <= n:
                    key = (p, q)
                    out[key] = out.get(key, 0) + v1 * v2
        return BivariateTruncatedSeries(out, n)

    def mul_univariate(self, s: TruncatedSeries) -> "BivariateTruncatedSeries":
        """Multiply by a series in z alone: the product with s as u^0 terms."""
        lifted = {(i, 0): c for i, c in enumerate(s.coeffs)}
        return self * BivariateTruncatedSeries(lifted, self._order)

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
