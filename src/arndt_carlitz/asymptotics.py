"""Dominant-singularity asymptotics for the Arndt-Carlitz counting sequences.

The counting generating functions are quotients with the common denominator

    D(z) = 1 - alpha(z,1) - beta(z,z) + beta(z,z)*alpha(z,1)
             - alpha(z,z)*beta(z,1),

whose smallest positive zero rho is a simple pole of every counting
series.  Near it F(z,1) ~ c_even/(1 - z/rho) with residue constant
c_even = -Num(rho)/(rho*D'(rho)), and likewise for the odd and total
sequences, so counts grow like c * (1/rho)^n.

All evaluation here is numeric but precision-controlled: mpmath floats at
an explicit number of decimal digits (never ambient global state), with
the infinite k-sums cut only once their geometric tail is provably below
tolerance.  As in the gf module, u = z^s with s = 0 (variant "one") or
s = 1 (variant "z") selects alpha(x,1)/beta(x,1) or alpha(x,x)/beta(x,x),
so each k-sum is written once.  The truncated exact series from the gf
module double as an independent cross-check for every evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpf

from .gf import _variant_shift, denominator_series
from .series import TruncatedSeries

DEFAULT_DPS = 30

GUARD_DIGITS = 15

DEFAULT_BRACKET = ("0.55", "0.70")

# growth rates of the two classical comparison classes
UNRESTRICTED_GROWTH = "2"
CARLITZ_GROWTH = "1.750243"

_MAX_TERMS = 100_000


class DomainError(ValueError):
    """Evaluation point outside the open interval (0, 1)."""


class BracketError(ArithmeticError):
    """No sign change on the root bracket: the evaluators are broken."""


class PrecisionError(ArithmeticError):
    """An iteration failed to converge at the requested precision."""


class DegeneratePoleError(ArithmeticError):
    """|D'(rho)| is numerically zero; the simple-pole formulas do not apply."""


@dataclass(frozen=True)
class AsymptoticEstimate:
    """Dominant pole and residue constants: counts(n) ~ c * growth^n."""

    rho: mpf
    growth: mpf
    c_even: mpf
    c_odd: mpf
    c_total: mpf
    precision_digits: int


def _check_domain(x) -> mpf:
    xv = mpf(x)
    if not 0 < xv < 1:
        raise DomainError(f"evaluation point must lie in (0, 1), got {xv}")
    return xv


def _default_tol(dps: int) -> mpf:
    return mpf(10) ** (-(dps + 5))


def _sum_tail_controlled(terms, x: mpf, tol: mpf) -> mpf:
    """Sum a stream of k-terms with a geometric-tail stopping rule.

    Terms eventually decay at least like x^(2k), so the tail after a term
    below tol*(1 - x^2) is below tol.  Stops only after two consecutive
    terms beat the threshold: the second is the defensive extra evaluation.
    """
    threshold = tol * (1 - x * x)
    total = mpf(0)
    small_run = 0
    for count, term in enumerate(terms):
        if count > _MAX_TERMS:
            raise PrecisionError(
                f"tail of the k-sum did not reach {threshold} within {_MAX_TERMS} terms"
            )
        total += term
        small_run = small_run + 1 if abs(term) < threshold else 0
        if small_run >= 2:
            break
    return total


def _alpha_terms(x: mpf, s: int):
    # x^(2k+s)/(1-x^(2k+s)) / prod_{l<k}(1-x^(2l-1+s))
    prod = mpf(1)
    k = 1
    while True:
        if k > 1:
            prod *= 1 - x ** (2 * k - 3 + s)
        yield x ** (2 * k + s) / (1 - x ** (2 * k + s)) / prod
        k += 1


def _beta_terms(x: mpf, s: int):
    # x^(2k-1+s) / prod_{l<=k}(1-x^(2l-1+s))
    prod = mpf(1)
    k = 1
    while True:
        prod *= 1 - x ** (2 * k - 1 + s)
        yield x ** (2 * k - 1 + s) / prod
        k += 1


def eval_alpha(x, variant: str = "one", tol=None, dps: int = DEFAULT_DPS) -> mpf:
    """alpha(z,1) or alpha(z,z) at a real point of (0, 1), tail below tol."""
    s = _variant_shift(variant)
    with mp.workdps(dps):
        xv = _check_domain(x)
        tolv = _default_tol(dps) if tol is None else mpf(tol)
        total = _sum_tail_controlled(_alpha_terms(xv, s), xv, tolv)
        return xv / (1 - xv) * total


def eval_beta(x, variant: str = "one", tol=None, dps: int = DEFAULT_DPS) -> mpf:
    """beta(z,1) or beta(z,z) at a real point of (0, 1); negative there."""
    s = _variant_shift(variant)
    with mp.workdps(dps):
        xv = _check_domain(x)
        tolv = _default_tol(dps) if tol is None else mpf(tol)
        return -_sum_tail_controlled(_beta_terms(xv, s), xv, tolv)


def eval_denominator(x, tol=None, dps: int = DEFAULT_DPS) -> mpf:
    """D(x), assembled from the four evaluators (error budget ~5*tol)."""
    with mp.workdps(dps):
        a1 = eval_alpha(x, "one", tol, dps)
        az = eval_alpha(x, "z", tol, dps)
        b1 = eval_beta(x, "one", tol, dps)
        bz = eval_beta(x, "z", tol, dps)
        return 1 - a1 - bz + bz * a1 - az * b1


def eval_numerator(x, tol=None, dps: int = DEFAULT_DPS) -> mpf:
    """Num(x) = alpha(x,1) + alpha(x,x)*beta(x,1) - alpha(x,1)*beta(x,x)."""
    with mp.workdps(dps):
        a1 = eval_alpha(x, "one", tol, dps)
        az = eval_alpha(x, "z", tol, dps)
        b1 = eval_beta(x, "one", tol, dps)
        bz = eval_beta(x, "z", tol, dps)
        return a1 + az * b1 - a1 * bz


def find_rho(digits: int = 20, bracket=DEFAULT_BRACKET) -> mpf:
    """The zero of D in (0, 1), accurate to `digits` significant digits.

    Sign change is verified on the bracket, then bisection to ~10 digits,
    then secant refinement at digits + 15 working digits.
    """
    if digits < 10:
        raise ValueError(f"digits must be >= 10, got {digits}")
    working = digits + GUARD_DIGITS
    with mp.workdps(working):
        tol = _default_tol(working)
        a, b = mpf(bracket[0]), mpf(bracket[1])
        fa = eval_denominator(a, tol, working)
        fb = eval_denominator(b, tol, working)
        if fa == 0:
            return a
        if fb == 0:
            return b
        if (fa > 0) == (fb > 0):
            raise BracketError(
                f"D({a}) = {fa} and D({b}) = {fb} do not change sign; "
                f"root bracket or evaluators are broken"
            )
        # bisection: cheap, guaranteed, ~10 digits
        while b - a > mpf(10) ** -10:
            c = (a + b) / 2
            fc = eval_denominator(c, tol, working)
            if fc == 0:
                return c
            if (fc > 0) == (fa > 0):
                a, fa = c, fc
            else:
                b, fb = c, fc
        # secant: superlinear, takes over to full working precision
        x0, f0 = a, fa
        x1, f1 = b, fb
        stop = mpf(10) ** (-(digits + 8))
        for _ in range(200):
            if f1 == f0:
                break
            x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
            x0, f0 = x1, f1
            x1, f1 = x2, eval_denominator(x2, tol, working)
            if abs(x1 - x0) < stop:
                return x1
        raise PrecisionError(
            f"secant refinement did not converge to {digits} digits on {bracket}"
        )


def denominator_derivative(x, digits: int = 20) -> mpf:
    """D'(x) by centered finite difference, step 10^(-digits/2), 2*digits working."""
    working = 2 * digits
    with mp.workdps(working):
        xv = _check_domain(x)
        tol = _default_tol(working)
        h = mpf(10) ** (-mpf(digits) / 2)
        return (
            eval_denominator(xv + h, tol, working)
            - eval_denominator(xv - h, tol, working)
        ) / (2 * h)


def _series_value(series: TruncatedSeries, x: mpf) -> mpf:
    acc = mpf(0)
    for c in reversed(series.coeffs):
        acc = acc * x + mpf(c.numerator) / c.denominator
    return acc


def denominator_derivative_via_series(x, order: int = 250, dps: int = DEFAULT_DPS) -> mpf:
    """D'(x) from the exact truncated series: independent of the evaluators.

    The tail beyond `order` is below |x|^order up to subexponential factors,
    so order 250 is ample anywhere near the dominant root.
    """
    with mp.workdps(dps):
        xv = _check_domain(x)
        return _series_value(denominator_series(order).derivative(), xv)


def amplitudes(rho, digits: int = 20) -> AsymptoticEstimate:
    """Residue constants at the dominant pole rho (a verified root of D).

    c_even = -Num(rho)/(rho*D'(rho)); the odd series z/(1-z)*(1+F(z,1)) -
    F(z,z) picks up rho/(1-rho)*c_even - c_fzz, with c_fzz the residue
    constant of F(z,z) = alpha(z,z)/D.
    """
    working = digits + GUARD_DIGITS
    with mp.workdps(working):
        rv = _check_domain(rho)
        tol = _default_tol(working)
        residual = eval_denominator(rv, tol, working)
        if abs(residual) > mpf(10) ** (-mpf(digits) / 2):
            raise ValueError(
                f"rho={rv} is not a root of D (|D(rho)| = {abs(residual)})"
            )
        dprime = denominator_derivative(rv, digits)
        if abs(dprime) < mpf(10) ** -6:
            raise DegeneratePoleError(
                f"|D'(rho)| = {abs(dprime)} is numerically zero at rho={rv}"
            )
        c_even = -eval_numerator(rv, tol, working) / (rv * dprime)
        c_fzz = -eval_alpha(rv, "z", tol, working) / (rv * dprime)
        c_odd = rv / (1 - rv) * c_even - c_fzz
        c_total = c_even + c_odd
        if not (c_even > 0 and c_odd > 0):
            raise PrecisionError(
                f"residue constants came out nonpositive: {c_even}, {c_odd}"
            )
        return AsymptoticEstimate(
            rho=rv,
            growth=1 / rv,
            c_even=c_even,
            c_odd=c_odd,
            c_total=c_total,
            precision_digits=digits,
        )


def asymptotic_count(n: int, est: AsymptoticEstimate, parity: str = "total") -> mpf:
    """c_parity * (1/rho)^n: the leading-order approximation to the counts."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    amplitude = {
        "even": est.c_even,
        "odd": est.c_odd,
        "total": est.c_total,
    }.get(parity)
    if amplitude is None:
        raise ValueError(f"parity must be 'even', 'odd' or 'total', got {parity!r}")
    with mp.workdps(est.precision_digits + GUARD_DIGITS):
        return amplitude * est.growth ** n
