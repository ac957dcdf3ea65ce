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
s = 1 (variant "z") selects alpha(x,1)/beta(x,1) or alpha(x,x)/beta(x,x).
One pass over k (`_ksums`) sums all four k-sums and their x-derivatives
together, so D, Num and the analytic D' come from a single evaluation.
The truncated exact series from the gf module double as an independent
cross-check for every evaluator.  mpmath is imported inside the functions
that use it, so importing this module (as the package and the CLI do for
every command) leaves it unloaded for the exact commands; this module
never imports logging (see `_debug`).
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, NamedTuple

from .gf import _variant_shift, denominator_series

if TYPE_CHECKING:
    from mpmath import mpf

DEFAULT_DPS = 30

GUARD_DIGITS = 15

DEFAULT_BRACKET = ("0.55", "0.70")

# growth rates of the two classical comparison classes
UNRESTRICTED_GROWTH = "2"
CARLITZ_GROWTH = "1.750243"

_MAX_TERMS = 100_000

# find_rho's precision ladder starts between _MIN_RUNG and 2*_MIN_RUNG digits
_MIN_RUNG = 15

_MAX_STEPS_PER_RUNG = 100


class DomainError(ValueError):
    """Evaluation point outside (0, 1), or a claimed root of D that is not one."""


class BracketError(ArithmeticError):
    """No sign change on the root bracket: the evaluators are broken."""


class PrecisionError(ArithmeticError):
    """An iteration failed to converge at the requested precision."""


class DegeneratePoleError(ArithmeticError):
    """|D'(rho)| is numerically zero; the simple-pole formulas do not apply."""


class AsymptoticEstimate(NamedTuple):
    """Dominant pole and residue constants: counts(n) ~ c * growth^n."""

    rho: mpf
    growth: mpf
    c_even: mpf
    c_odd: mpf
    c_total: mpf
    precision_digits: int


class _KSums(NamedTuple):
    """The k-sums at one point x, indexed by the shift s (0: u = 1, 1: u = x)."""

    x: mpf
    alpha: tuple[mpf, mpf]
    beta: tuple[mpf, mpf]
    dalpha: tuple[mpf, mpf]
    dbeta: tuple[mpf, mpf]
    numerator: mpf
    denominator: mpf
    derivative: mpf
    terms: int


def _debug(msg: str, *args) -> None:
    """A DEBUG record of this module's logger, made only if logging is loaded.

    A handler can only be configured by code that imported logging, so
    when it is not loaded no one can receive the record.
    """
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(__name__).debug(msg, *args)


def _check_domain(x) -> mpf:
    from mpmath import mpf

    xv = mpf(x)
    if not 0 < xv < 1:
        raise DomainError(f"evaluation point must lie in (0, 1), got {xv}")
    return xv


def _never_small(xv: mpf, value_threshold: mpf) -> bool:
    """True if B_0(k) = x^(2k-1)/P_0(k) stays above e*value_threshold for all k <= _MAX_TERMS.

    B_0 is log-concave (see `_ksums`), so the two ends of the range decide.
    Both are bounded below in floats: ln B_0(1) = ln(x/(1-x)), and
    ln B_0(_MAX_TERMS) = (2*_MAX_TERMS-1)*ln(x) - sum_j ln(1-x^(2j-1)),
    whose sum is cut as soon as it settles the question (its terms are
    positive and fall with j).  The factor e absorbs the float rounding.
    """
    import math

    from mpmath import mag, mp

    # value_threshold <= 2^mag, so this target errs on the side of the loop
    target = mag(value_threshold) * math.log(2) + 1
    with mp.workprec(64):
        ln_x = float(mp.log(xv))
        first = xv / (1 - xv)
        low = (2 * _MAX_TERMS - 1) * ln_x
        # the sum is at most (pi^2/6) * x/(1-x) (see `_ksums`)
        if low + math.pi ** 2 / 6 * float(first) < target or float(mp.log(first)) < target:
            return False
    for j in range(1, _MAX_TERMS + 1):
        if low >= target:
            return True
        # a float 1-x^m below 1e-300 stands for a true one below ~1e-300
        # (ln x may have underflowed), so -ln(1e-300) stays a lower bound
        term = -math.log(max(-math.expm1((2 * j - 1) * ln_x), 1e-300))
        low += term
        if low + (_MAX_TERMS - j) * term < target:
            return False
    return low >= target


def _ksums(x, tol=None, dps: int = DEFAULT_DPS) -> _KSums:
    """alpha(x,x^s), beta(x,x^s) for s = 0, 1 and their x-derivatives, in one pass.

    With P_s(j) = prod_{l<=j} (1 - x^(2l-1+s)) the k-th terms are

        A_s(k) = x^(2k+s)/(1-x^(2k+s)) / P_s(k-1),   alpha = x/(1-x) * sum_k A_s(k),
        B_s(k) = x^(2k-1+s) / P_s(k),                beta  = -sum_k B_s(k).

    All four streams use only x^(2k-1), x^(2k), x^(2k+1) and the two
    reciprocals 1/(1-x^(2k)), 1/(1-x^(2k+1)) at step k, kept incrementally
    (1/(1-x^(2k+1)) is the next step's 1/(1-x^(2k-1))).  The derivative
    rides along as a log-derivative: with t(m) = x^m/(1-x^m) and
    H_s(j) = sum_{l<=j} m_l*t(m_l), m_l = 2l-1+s, one has
    d log(1/P_s(j))/dx = H_s(j)/x, hence

        x*A_s(k)' = A_s(k) * ((2k+s)*(1 + t(2k+s)) + H_s(k-1)),
        x*B_s(k)' = B_s(k) * ((2k-1+s) + H_s(k)).

    Stop rule: the value terms eventually decay at least like x^(2k), so the
    tail after a value term below tol*(1-x^2) is below tol.  A derivative
    term is its value term times a weight that grows linearly in k (H_s
    converges), so it decays like k*x^(2k); with q = x^2 the tail after
    the k-th such term is at most that term times q/(1-q) + q/(k*(1-q)^2),
    which is below 1/(1-q)^2 for every k >= 1.  So a derivative term below
    tol*(1-x^2)^2 leaves a tail below tol.  The pass stops after two
    consecutive steps in which all four value terms and all four
    derivative terms beat their thresholds; the second is the defensive
    extra evaluation.

    Fixed point: the loop runs on Python ints, an int n standing for
    n/2^wp; a product is a*b >> wp and a reciprocal is one*2^wp // (one - p).
    Only the eight sums become mpf, and alpha, beta, Num, D and D' are
    assembled from them in mpf at dps.  Every term is nonnegative, so the
    stop rule compares the ints themselves with the thresholds.  Let
    L = 1/(1-x) and K = _MAX_TERMS >= k.  The products 1/P_s never exceed
    prod_m 1/(1-x^m), whose log2 is at most

        G = (pi^2/6) * x / ((1-x) * ln 2),

    because 1-x^j >= j*x^(j-1)*(1-x) bounds -ln(1-x^j) = sum_r x^(jr)/r by
    sum_r x/(r^2*(1-x)) for every j.  Each operation, and the conversion of
    x, rounds by at most one unit u = 2^-wp.  To first order the powers
    then carry at most 6uL; the reciprocals 7uL^3 (relative 7uL^2, so the
    k factors of 1/P_s 8kuL^2); the t(m) 14uL^3; the value terms
    23KuL^3*2^G; the weights, at most 7KL, 70K^2*uL^3 (H_s adds up to k
    values of t, each times m_l <= 2l); and each derivative term
    232K^2*uL^4*2^G.  Each of the eight sums adds at most K terms, so with

        wp = bits + G + 3*bitlen(K) + 4*log2(L) + 18,

    2^-bits <= the derivative threshold and bits >= the precision of dps
    plus 2*log2(1/x) (alpha ~ x^2 keeps its relative precision as x -> 0),
    every term and every sum lies within 2^-10 of that threshold of its
    exact value: rounding moves neither the stop nor the digits.

    Fail fast: B_0(k) = x^(2k-1)/P_0(k) has the step ratio
    x^2/(1-x^(2k+1)), which falls with k, so B_0 is log-concave and its
    minimum over 1 <= k <= _MAX_TERMS is B_0(1) or B_0(_MAX_TERMS).  If
    a float lower bound puts both a factor e above the value threshold,
    the pass can never stop, and it raises PrecisionError before the loop.
    """
    import math

    from mpmath import ldexp, mag, mp, mpf

    with mp.workdps(dps):
        xv = _check_domain(x)
        tolv = mpf(10) ** (-(dps + 5)) if tol is None else mpf(tol)
        if not tolv > 0:
            raise ValueError(f"tol must be > 0, got {tol}")
        x2 = xv * xv
        value_threshold = tolv * (1 - x2)
        slope_threshold = value_threshold * (1 - x2) * xv  # compared with x*term'
        stuck = (
            f"tail of the k-sums did not reach {value_threshold} "
            f"within {_MAX_TERMS} terms"
        )
        if _never_small(xv, value_threshold):
            raise PrecisionError(stuck)
        with mp.workprec(53):
            inv_gap = float(1 / (1 - xv))
        # G of the docstring, one bit up for the float rounding
        guard = math.ceil(math.pi ** 2 / 6 * (inv_gap - 1) / math.log(2)) + 1
        wp = (
            max(mp.prec - 2 * mag(xv), 3 - mag(slope_threshold)) + guard
            + 3 * _MAX_TERMS.bit_length() + 4 * math.ceil(math.log2(inv_gap)) + 18
        )
        one = 1 << wp
        one_squared = one << wp
        xf = int(ldexp(xv, wp))
        xf2 = xf * xf >> wp
        value_cut = int(ldexp(value_threshold, wp))
        slope_cut = int(ldexp(slope_threshold, wp))
        power = xf                   # x^(2k-1)
        inv_odd = one_squared // (one - xf)  # 1/(1-x^(2k-1))
        t_odd = power * inv_odd >> wp  # t(2k-1)
        prod0 = prod1 = one          # 1/P_s(k-1)
        logd0 = logd1 = 0            # H_s(k-1)
        sum_a0 = sum_a1 = sum_b0 = sum_b1 = 0
        slope_a0 = slope_a1 = slope_b0 = slope_b1 = 0
        small_run = 0
        k = 0
        while small_run < 2:
            k += 1
            if k > _MAX_TERMS:
                raise PrecisionError(stuck)
            p_even = power * xf >> wp
            p_next = power * xf2 >> wp
            inv_even = one_squared // (one - p_even)
            inv_next = one_squared // (one - p_next)
            t_even = p_even * inv_even >> wp
            t_next = p_next * inv_next >> wp
            # alpha: A_0 uses t(2k), A_1 uses t(2k+1); both over P_s(k-1)
            a_0 = t_even * prod0 >> wp
            a_1 = t_next * prod1 >> wp
            da_0 = a_0 * (2 * k * (one + t_even) + logd0) >> wp
            da_1 = a_1 * ((2 * k + 1) * (one + t_next) + logd1) >> wp
            # P_s(k) = P_s(k-1) * (1 - x^(2k-1+s))
            prod0 = prod0 * inv_odd >> wp
            prod1 = prod1 * inv_even >> wp
            logd0 += (2 * k - 1) * t_odd
            logd1 += 2 * k * t_even
            b_0 = power * prod0 >> wp
            b_1 = p_even * prod1 >> wp
            db_0 = b_0 * ((2 * k - 1) * one + logd0) >> wp
            db_1 = b_1 * (2 * k * one + logd1) >> wp
            sum_a0 += a_0
            sum_a1 += a_1
            sum_b0 += b_0
            sum_b1 += b_1
            slope_a0 += da_0
            slope_a1 += da_1
            slope_b0 += db_0
            slope_b1 += db_1
            small = (
                max(a_0, a_1, b_0, b_1) < value_cut
                and max(da_0, da_1, db_0, db_1) < slope_cut
            )
            small_run = small_run + 1 if small else 0
            power, inv_odd, t_odd = p_next, inv_next, t_next
        sum_a = (mpf((sum_a0, -wp)), mpf((sum_a1, -wp)))
        sum_b = (mpf((sum_b0, -wp)), mpf((sum_b1, -wp)))
        slope_a = (mpf((slope_a0, -wp)), mpf((slope_a1, -wp)))
        slope_b = (mpf((slope_b0, -wp)), mpf((slope_b1, -wp)))
        # alpha = x/(1-x) * S, so alpha' = (S/(1-x) + x*S')/(1-x)
        one_minus = 1 - xv
        alpha = tuple(xv / one_minus * sum_a[s] for s in (0, 1))
        beta = tuple(-sum_b[s] for s in (0, 1))
        dalpha = tuple((sum_a[s] / one_minus + slope_a[s]) / one_minus for s in (0, 1))
        dbeta = tuple(-slope_b[s] / xv for s in (0, 1))
        (a1, az), (b1, bz), (da1, daz), (db1, dbz) = alpha, beta, dalpha, dbeta
        numerator = a1 + az * b1 - a1 * bz
        dnumerator = da1 + daz * b1 + az * db1 - da1 * bz - a1 * dbz
        # D = 1 - alpha(x,1) - beta(x,x) + beta(x,x)*alpha(x,1) - alpha(x,x)*beta(x,1)
        #   = 1 - beta(x,x) - Num
        return _KSums(
            x=xv,
            alpha=alpha,
            beta=beta,
            dalpha=dalpha,
            dbeta=dbeta,
            numerator=numerator,
            denominator=1 - bz - numerator,
            derivative=-dbz - dnumerator,
            terms=k,
        )


def eval_alpha(x, variant: str = "one", tol=None, dps: int = DEFAULT_DPS) -> mpf:
    """alpha(z,1) or alpha(z,z) at a real point of (0, 1), tail below tol."""
    s = _variant_shift(variant)
    return _ksums(x, tol, dps).alpha[s]


def eval_beta(x, variant: str = "one", tol=None, dps: int = DEFAULT_DPS) -> mpf:
    """beta(z,1) or beta(z,z) at a real point of (0, 1); negative there."""
    s = _variant_shift(variant)
    return _ksums(x, tol, dps).beta[s]


def eval_denominator(x, tol=None, dps: int = DEFAULT_DPS) -> mpf:
    """D(x), assembled from the four k-sums (error budget ~5*tol)."""
    return _ksums(x, tol, dps).denominator


def eval_numerator(x, tol=None, dps: int = DEFAULT_DPS) -> mpf:
    """Num(x) = alpha(x,1) + alpha(x,x)*beta(x,1) - alpha(x,1)*beta(x,x)."""
    return _ksums(x, tol, dps).numerator


def _budget(dps: int) -> mpf:
    """|D| above this is far beyond the evaluation error at dps digits, so its sign holds."""
    from mpmath import mpf

    return mpf(10) ** (-mpf(dps) / 2)


def _ladder(working: int) -> list[int]:
    """Working precisions from about 20 digits up to `working`, each double the last."""
    rungs = [working]
    while rungs[-1] > 2 * _MIN_RUNG:
        rungs.append((rungs[-1] + 1) // 2)
    return rungs[::-1]


def find_rho(digits: int = 20, bracket=DEFAULT_BRACKET) -> mpf:
    """The zero of D in (0, 1), accurate to `digits` significant digits.

    Safeguarded Newton iteration on the analytic D' with precision
    doubling: the sign change is verified on the bracket at the first rung
    of the ladder (about 20 digits; at digits + 15 when |D| at an endpoint
    is within that rung's error budget), Newton starts from the bracket's
    midpoint, and each rung doubles the precision up to digits + 15
    working digits.  Every value of D whose size exceeds the rung's error
    budget shrinks a sign-change bracket around the iterates; a Newton
    step that would leave the bracket is replaced by a bisection step, so
    the root stays enclosed.  The iteration stops once a step at full
    working precision is below 10^-(digits+8).
    """
    from mpmath import mp, mpf

    if digits < 10:
        raise ValueError(f"digits must be >= 10, got {digits}")
    working = digits + GUARD_DIGITS
    ladder = _ladder(working)
    passes = newton_steps = bisection_steps = 0

    def evaluate(x, dps: int) -> _KSums:
        nonlocal passes
        passes += 1
        return _ksums(x, None, dps)

    def endpoint(x) -> mpf:
        f = evaluate(x, ladder[0]).denominator
        if abs(f) <= _budget(ladder[0]) and ladder[0] < working:
            f = evaluate(x, working).denominator
        return f

    with mp.workdps(working):
        a, b = mpf(bracket[0]), mpf(bracket[1])
        fa, fb = endpoint(a), endpoint(b)
        if fa == 0:
            return a
        if fb == 0:
            return b
        if (fa > 0) == (fb > 0):
            raise BracketError(
                f"D({a}) = {fa} and D({b}) = {fb} do not change sign; "
                f"root bracket or evaluators are broken"
            )
        x = (a + b) / 2
        stop = mpf(10) ** (-(digits + 8))
    for dps in ladder:
        budget = _budget(dps)
        with mp.workdps(dps):
            for _ in range(_MAX_STEPS_PER_RUNG):
                sums = evaluate(x, dps)
                f = sums.denominator
                if abs(f) > budget:
                    if (f > 0) == (fa > 0):
                        a = x
                    else:
                        b = x
                # an exact zero gives a zero Newton step and ends the rung;
                # D' = 0 yields the candidate a, which forces a bisection step
                candidate = x - f / sums.derivative if sums.derivative else a
                if a < candidate < b:
                    newton_steps += 1
                else:
                    candidate = (a + b) / 2
                    bisection_steps += 1
                dx = abs(candidate - x)
                x = candidate
                # Newton squares the error: after a step below 10^(-dps/2)
                # the rung's precision is used up
                if dx < (stop if dps == working else budget):
                    break
            else:
                if dps == working:
                    raise PrecisionError(
                        f"Newton refinement did not converge to {digits} digits "
                        f"on {bracket}"
                    )
    _debug(
        "find_rho digits=%d ladder=%s passes=%d newton=%d bisection=%d "
        "k_terms=%d |dx|=%s",
        digits, ladder, passes, newton_steps, bisection_steps, sums.terms,
        mp.nstr(dx, 3),
    )
    return x


def denominator_derivative(x, digits: int = 20) -> mpf:
    """D'(x), differentiated term by term in the k-sums, at digits + 15 working."""
    return _ksums(x, None, digits + GUARD_DIGITS).derivative


def denominator_derivative_via_series(x, order: int = 250, dps: int = DEFAULT_DPS) -> mpf:
    """D'(x) from the exact truncated series: independent of the evaluators.

    At rho the tail beyond `order` is about 1e-37 at order 250 (rho^250 is
    3e-51), so order 250 checks D'(rho) to about 35 digits.
    """
    from mpmath import mp

    with mp.workdps(dps):
        xv = _check_domain(x)
        return mp.polyval(denominator_series(order).derivative().coeffs[::-1], xv)


def amplitudes(rho, digits: int = 20) -> AsymptoticEstimate:
    """Residue constants at the dominant pole rho (a verified root of D).

    c_even = -Num(rho)/(rho*D'(rho)); the odd series z/(1-z)*(1+F(z,1)) -
    F(z,z) picks up rho/(1-rho)*c_even - c_fzz, with c_fzz the residue
    constant of F(z,z) = alpha(z,z)/D.  D, Num, alpha(rho,rho) and D' all
    come from one pass over the k-sums.  A rho with |D(rho)| above
    10^(-digits/2) raises DomainError.
    """
    from mpmath import mp, mpf

    working = digits + GUARD_DIGITS
    sums = _ksums(rho, None, working)
    with mp.workdps(working):
        rv = sums.x
        residual = abs(sums.denominator)
        _debug(
            "amplitudes digits=%d |D(rho)|=%s k_terms=%d",
            digits, mp.nstr(residual, 3), sums.terms,
        )
        if residual > _budget(digits):
            raise DomainError(
                f"rho={rv} is not a root of D (|D(rho)| = {residual})"
            )
        dprime = sums.derivative
        if abs(dprime) < mpf(10) ** -6:
            raise DegeneratePoleError(
                f"|D'(rho)| = {abs(dprime)} is numerically zero at rho={rv}"
            )
        c_even = -sums.numerator / (rv * dprime)
        c_fzz = -sums.alpha[1] / (rv * dprime)
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
    from mpmath import mp

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
