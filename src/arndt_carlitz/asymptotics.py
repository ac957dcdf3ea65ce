"""Dominant-singularity asymptotics for the Arndt-Carlitz counting sequences.

The counting generating functions are quotients with the common denominator

    D(z) = 1 - alpha(z,1) - beta(z,z) + beta(z,z)*alpha(z,1)
             - alpha(z,z)*beta(z,1),

whose smallest positive zero rho, in the fixed bracket (0.55, 0.70), is a
simple pole of every counting series.  Near it F(z,1) ~ c_even/(1 - z/rho)
with residue constant c_even = -Num(rho)/(rho*D'(rho)), and likewise for
the odd and total sequences, so counts grow like c * (1/rho)^n.

All evaluation here is numeric but precision-controlled: Python ints in
fixed point (an int n stands for n/2^w) at a number of bits set by the
requested decimal digits (never ambient global state), with the infinite
k-sums cut only once their geometric tail is provably below tolerance.
As in the gf module, u = z^s: index s = 0 of the k-sums is
alpha(x,1)/beta(x,1) and s = 1 is alpha(x,x)/beta(x,x).  One pass over k
(`_pole.ksums`) sums both alpha k-sums and their x-derivatives and reads
both beta values and derivatives off its running products, so D, Num and
the analytic D' come from a single evaluation.  The truncated exact series
from the gf module are an independent cross-check of that pass;
`denominator_derivative_via_series` is one.

mpf appears only at the public boundary: `find_rho`, `amplitudes`,
`asymptotic_count`, `eval_denominator` and the two D' functions import
mpmath; those that reach the int core in the private module `_pole`,
which loads on first use, convert around it with mpf((n, -w)).  The
`asymptotics` command calls that core alone: it takes the constants from
the pass that confirmed `find_rho`'s root and rounds them to decimal
exactly in ints (`_pole.nstr`).  Neither module imports logging (see
`_pole._debug`), gf is imported only by
`denominator_derivative_via_series`, and the package never imports
fractions, so that command runs on ints from argv to stdout.
"""

from __future__ import annotations

from operator import index
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from mpmath import mpf

DEFAULT_DPS = 30

GUARD_DIGITS = 15

# growth rates of the two classical comparison classes
UNRESTRICTED_GROWTH = "2"
CARLITZ_GROWTH = "1.750243"


class DomainError(ValueError):
    """Evaluation point outside (0, 0.95], or a claimed root of D that is not one."""


class PrecisionError(ArithmeticError):
    """The numeric layer could not certify a result at the requested precision.

    A k-sum pass that needs more than 100000 terms, a root bracket
    without a sign change of D beyond the error budget, a Newton iteration
    that does not converge, |D'(rho)| numerically zero (no simple pole), or
    residue constants that come out nonpositive.  `find_rho` checks the
    term cap before its first pass, at 0.70 and digits + 15, so it raises
    at once from 30951 digits on.
    """


class AsymptoticEstimate(NamedTuple):
    """Dominant pole and residue constants: counts(n) ~ c * growth^n."""

    rho: mpf
    growth: mpf
    c_even: mpf
    c_odd: mpf
    c_total: mpf
    precision_digits: int


def _dyadic(v: mpf) -> tuple[int, int]:
    """(n, w) with v = n/2^w and w >= 0, for a finite mpf v."""
    sign, man, exp, _ = v._mpf_
    man = -man if sign else man
    return (man << exp, 0) if exp > 0 else (man, -exp)


def _check_domain(x) -> mpf:
    """x at the working precision if in (0, 0.95], where a pass keeps its error budget."""
    from mpmath import mp, mpf

    xv = mpf(x)
    if not 0 < xv <= mpf("0.95"):
        raise DomainError(f"evaluation point must lie in (0, 0.95], got {mp.nstr(xv, 20)}")
    return xv


def _ksums(x, dps: int = DEFAULT_DPS):
    """`_pole.ksums` at a real x rounded to dps digits, every value an mpf at dps."""
    from mpmath import mp, mpf

    from . import _pole

    if index(dps) < 1:  # TypeError for a float
        raise ValueError(f"dps must be >= 1, got {dps}")
    with mp.workdps(dps):
        sums = _pole.ksums(*_dyadic(_check_domain(x)), dps)

        def real(v):
            return tuple(map(real, v)) if isinstance(v, tuple) else mpf((v, -sums.wp))

        return sums._make((*map(real, sums[:8]), sums.terms, sums.wp))


def eval_denominator(x, dps: int = DEFAULT_DPS) -> mpf:
    """D(x) from the k-sums, within 5*10^-(dps+5) (the pass's D' within 10^-(dps+1))."""
    return _ksums(x, dps).denominator


def find_rho(digits: int = 20) -> mpf:
    """The zero of D in (0.55, 0.70) to `digits` significant digits, an mpf.

    The x of the pass that `_pole.find_rho` returns, at digits + 15: the
    root at which the `asymptotics` command reads its constants.
    """
    from mpmath import mp, mpf

    from . import _pole

    with mp.workdps(digits + GUARD_DIGITS):
        sums = _pole.find_rho(index(digits))
        return mpf((sums.x, -sums.wp))


def denominator_derivative(x, digits: int = 20) -> mpf:
    """D'(x) differentiated term by term in the k-sums at digits + 15, within 10^-(digits+16)."""
    if index(digits) < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")
    return _ksums(x, digits + GUARD_DIGITS).derivative


def denominator_derivative_via_series(x, order: int = 250, dps: int = DEFAULT_DPS) -> mpf:
    """D'(x) from the exact truncated series: independent of the evaluators.

    At rho the tail beyond `order` is about 1e-37 at order 250 (rho^250 is
    3e-51), so order 250 checks D'(rho) to about 35 digits.
    """
    from mpmath import mp

    from .gf import denominator_series

    if index(dps) < 1:
        raise ValueError(f"dps must be >= 1, got {dps}")
    with mp.workdps(dps):
        xv = _check_domain(x)
        return mp.polyval(denominator_series(order).derivative().coeffs[::-1], xv)


def amplitudes(rho, digits: int = 20) -> AsymptoticEstimate:
    """Residue constants at the dominant pole rho (a verified root of D).

    `_pole.amplitudes` on one pass at rho, read as an mpf at digits + 15.
    """
    from mpmath import mp, mpf

    from . import _pole

    if index(digits) < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")
    with mp.workdps(digits + GUARD_DIGITS):
        sums = _pole.ksums(*_dyadic(_check_domain(rho)), digits + GUARD_DIGITS)
        values, wp = _pole.amplitudes(sums, digits)
        return AsymptoticEstimate(*(mpf((v, -wp)) for v in values), precision_digits=digits)


def asymptotic_count(n: int, est: AsymptoticEstimate, parity: str = "total") -> mpf:
    """c_parity * (1/rho)^n: the leading-order approximation to the counts."""
    from mpmath import mp

    n = index(n)  # TypeError for a float or a str
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if est.precision_digits < 1:
        raise ValueError(f"precision_digits must be >= 1, got {est.precision_digits}")
    amplitude = {
        "even": est.c_even,
        "odd": est.c_odd,
        "total": est.c_total,
    }.get(parity)
    if amplitude is None:
        raise ValueError(f"parity must be 'even', 'odd' or 'total', got {parity!r}")
    with mp.workdps(est.precision_digits + GUARD_DIGITS):
        return amplitude * est.growth ** n
