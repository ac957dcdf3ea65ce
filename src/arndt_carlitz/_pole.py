"""Integer core of the dominant-pole computation in `asymptotics`.

Everything here runs on Python ints in fixed point, an int n standing for
n/2^w: `ksums` is the fused pass over the k-sums, `find_rho` the
safeguarded Newton iteration for the zero of D, which returns the pass
that confirmed it, `amplitudes` the residue constants read off that
pass, and `nstr` prints a value rounded exactly, in mpmath's layout.
The public mpf functions of `asymptotics` convert around this core, and
the `asymptotics` command calls it directly, without mpmath: the root it
prints is the one the public `find_rho` returns.  The module is imported
on first use: commands that never reach the numeric layer do not load
it.  Exact rationals are int pairs (num, den), rounded in ints, so the
module never imports fractions.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .asymptotics import GUARD_DIGITS, DomainError, PrecisionError

_MAX_TERMS = 100_000

# find_rho's precision ladder starts between _MIN_RUNG and 2*_MIN_RUNG digits
_MIN_RUNG = 15

_MAX_STEPS_PER_RUNG = 100

# find_rho's root bracket (0.55, 0.70) as exact (num, den) ends: D is about
# 0.81 at 0.55 and -2.9 at 0.70
BRACKET = ((11, 20), (7, 10))


class KSums(NamedTuple):
    """The k-sums at one point x, indexed by the shift s (0: u = 1, 1: u = x).

    `ksums` gives each value as an int n standing for n/2^wp;
    `asymptotics._ksums` gives the same record with each value as an mpf.
    """

    x: int
    alpha: tuple[int, int]
    beta: tuple[int, int]
    dalpha: tuple[int, int]
    dbeta: tuple[int, int]
    numerator: int
    denominator: int
    derivative: int
    terms: int
    wp: int


def _dps_to_prec(dps: int) -> int:
    """Bits for dps decimal digits, by mpmath's dps_to_prec formula."""
    return max(1, round((dps + 1) * 3.3219280948873626))


def _div(a: int, b: int) -> int:
    """a/b rounded to the nearest int, halves up (b != 0)."""
    return (2 * a + b) // (2 * b)


def _exceeds(f: int, wp: int, dps: int) -> bool:
    """|f/2^wp| > 10^(-dps/2), exactly: a D this large keeps its sign at dps digits."""
    return f * f * 10 ** dps > 1 << 2 * wp


def nstr(n: int, wp: int, digits: int) -> str:
    """n/2^wp rounded half up to `digits` >= 1 significant digits, exactly.

    Laid out as mpmath's nstr lays out an mpf: fixed point while
    min(-(digits // 3), -5) < exponent < digits, else e-notation; trailing
    zeros go, a bare "x." becomes "x.0", and 0 prints as "0.0".  Ints only,
    so a value of any size prints.
    """
    if n < 0:
        return "-" + nstr(-n, wp, digits)
    if not n:
        return "0.0"
    top = 10 ** digits
    exponent = (n.bit_length() - wp) * 1233 >> 12  # log10(2) ~ 1233/2^12
    while True:  # settle 10^exponent <= n/2^wp < 10^(exponent+1)
        scale = digits - 1 - exponent
        num, den = n * 10 ** max(scale, 0) << max(-wp, 0), 10 ** max(-scale, 0) << max(wp, 0)
        if num >= top * den:
            exponent += 1
        elif 10 * num < top * den:
            exponent -= 1
        else:
            break
    text = str((2 * num + den) // (2 * den))
    if len(text) > digits:  # 99...9 rounded up to 100...0
        text, exponent = text[:digits], exponent + 1
    split = 1
    if min(-(digits // 3), -5) < exponent < digits:
        text, split, exponent = "0" * -exponent + text, max(exponent, 0) + 1, 0
    text = text[:split] + "." + (text[split:].rstrip("0") or "0")
    return f"{text}e{exponent:+d}" if exponent else text


def _debug(msg: str, *args) -> None:
    """A DEBUG record of the `asymptotics` logger, made only if logging is loaded.

    A handler can only be configured by code that imported logging, so
    when it is not loaded no one can receive the record.
    """
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("arndt_carlitz.asymptotics").debug(msg, *args)


# significant digits of each value that an error message prints
_SHOWN = 20


def _plan(n: int, w: int, dps: int) -> tuple[int, int]:
    """(K, wp) of `ksums` at x = n/2^w: its term count and working bits.

    K is the least count with F*tau' <= tol (see `ksums`): a*K >= R(K) =
    ln(F*Q*c/tol) + ln((2K+3)c + 2qc^2 + xL^3), a = ln(1/q).  R grows with
    K, so K -> ceil(R(K)/a) rises from 0 to that K.  Past the first step
    a*K > ln(1/tol) > 13, and R grows by under 1/13 per unit of a*K, so each
    step cuts the distance 13-fold.  The logs are floats, Q and F their bounds.
    PrecisionError if K exceeds _MAX_TERMS.
    """
    x, ln2 = n / (1 << w), math.log(2)
    ln_x = math.log(n) - w * ln2
    inv_gap = (1 << w) / ((1 << w) - n)  # L
    c, xl = inv_gap / (1 + x), x * inv_gap
    log_q = math.pi ** 2 / 6 * xl  # G*ln(2)
    log_f = math.log1p(2 * xl * c) + log_q
    log_tol = -(dps + 5) * math.log(10)
    head = log_f + log_q + math.log(c) - log_tol
    rest = 3 * c + 2 * x * x * c * c + xl * inv_gap * inv_gap
    terms, last = 0, -1
    while terms != last:
        last, terms = terms, math.ceil((head + math.log(2 * c * terms + rest)) / (-2 * ln_x))
    if terms > _MAX_TERMS:
        raise PrecisionError(f"tail of the k-sums did not fall below tol within {_MAX_TERMS} terms")
    bits = math.ceil((log_f - ln_x - log_tol) / ln2)  # 2^-bits <= x*tol/F
    bits = max(bits, _dps_to_prec(dps) - 2 * (n.bit_length() - w))
    # G of the docstring, one bit up for the float rounding
    guard = math.ceil(log_q / ln2) + 1
    return terms, bits + guard + 3 * terms.bit_length() + 4 * math.ceil(math.log2(inv_gap)) + 18


def ksums(n: int, w: int, dps: int) -> KSums:
    """alpha(x,x^s), beta(x,x^s), s = 0, 1, and their x-derivatives at x = n/2^w.

    One pass of K steps, K set before it starts (`_plan`, which raises
    PrecisionError past _MAX_TERMS); every value is an int over 2^wp (see
    `KSums`).  The tail tolerance is tol = 10^-(dps+5).

    With P_s(j) = prod_{l<=j} (1 - x^(2l-1+s)) the k-th terms are

        A_s(k) = x^(2k+s)/(1-x^(2k+s)) / P_s(k-1),   alpha = x/(1-x) * sum_k A_s(k),
        B_s(k) = x^(2k-1+s) / P_s(k),                beta  = -sum_k B_s(k).

    All four streams use only x^(2k-1), x^(2k), x^(2k+1) and the two
    reciprocals 1/(1-x^(2k)), 1/(1-x^(2k+1)) at step k, kept incrementally
    (1/(1-x^(2k+1)) is the next step's 1/(1-x^(2k-1))).  The derivative
    rides along as a log-derivative: with t(m) = x^m/(1-x^m) = 1/(1-x^m) - 1
    and H_s(j) = sum_{l<=j} m_l*t(m_l), m_l = 2l-1+s, one has
    d log(1/P_s(j))/dx = H_s(j)/x, hence

        x*A_s(k)' = A_s(k) * ((2k+s)/(1-x^(2k+s)) + H_s(k-1)),
        x*B_s(k)' = B_s(k) * ((2k-1+s) + H_s(k)).

    Only alpha is summed: beta telescopes, B_s(k) = 1/P_s(k) - 1/P_s(k-1),
    so after K steps beta = 1 - 1/P_s(K) and x*beta' = -H_s(K)/P_s(K),
    both read off the running product and log-derivative.

    Term count: with q = x^2, L = 1/(1-x) and c = 1/(1-q), the product
    Q = prod_m 1/(1-x^m) is at most 2^G, where

        G = (pi^2/6) * x / ((1-x) * ln 2),

    because 1-x^j >= j*x^(j-1)*(1-x) bounds -ln(1-x^j) = sum_r x^(jr)/r by
    sum_r x/(r^2*(1-x)) for every j.  The same inequality gives
    m*t(m) <= xL, so H_s <= kL after k steps, and H_s <= L*sum_m m*x^m =
    xL^3.  The factors of a term have distinct exponents, so A_s(k) and
    B_s(k) are at most Q*x^(2k-1), and their weights above at most
    (2k+1)c + xL^3.  Past K steps the tails of the two alpha sums and of
    the two beta products are therefore at most

        tau = Q*c*x^(2K+1),

    and those of their x-derivatives (the weights over x) at most

        tau' = Q*c*x^(2K) * ((2K+3)c + 2qc^2 + xL^3) >= (5c/x + L^3) * tau.

    In Num = alpha_1*(1 - beta_x) + alpha_x*beta_1 (subscripts are u),
    |beta_s| <= Q - 1, alpha_s <= xLQqc, |beta_s'| = H_s/(x*P_s) <= L^3*Q
    and |alpha_s'| <= Q*(x^2L^3 + 3x^2L^4 + x^3L^5).  So if the alpha sums
    and beta values move by at most v and their x-derivatives by at most
    d, Num moves by at most (F-1)*v, D = 1 - beta_x - Num by F*v and D' by
    F*d + M*v, with F = (1 + 2xLc)*2^G >= 1 + 2QxLc and M <= (F-1)*(4c/x +
    7L^3).  K is the least count with F*tau' <= tol, so the tails move Num
    and D by at most tol and D' by at most 8*tol.

    Fixed point: the pass runs on Python ints, an int n standing for
    n/2^wp; a product is a*b >> wp and a reciprocal is one*2^wp // (one - p).
    Each operation, and the conversion of x, rounds by at most one unit
    u = 2^-wp.  To first order the powers then carry at most 6uL; the
    reciprocals and the t(m) 7uL^3 (relative 7uL^2, so the k factors of
    1/P_s 8kuL^2); H_s 14K^2*uL^3 (k values of t, each times m_l <= 2l);
    the alpha terms 16KuL^3*2^G, their weights (at most 4KL) 35K^2*uL^3
    and their derivatives 100K^2*uL^4*2^G, so each of the two sums
    100K^3*uL^4*2^G.  beta = 1 - 1/P_s(K) and H_s(K)/P_s(K) err by at
    most 60K^2*uL^3*2^G.  So with

        wp = bits + G + 3*bitlen(K) + 4*log2(L) + 18,

    2^-bits <= x*tol/F and bits >= the precision of dps plus 2*log2(1/x)
    (alpha ~ x^2 keeps its relative precision as x -> 0), every sum and
    product errs by at most eps = 2^-10*x*tol/F.  With v = eps and
    d = eps/x above, that moves Num and D by at most 2^-10*tol and D' by
    at most 12*2^-10*L^3*tol.  alpha, beta, Num, D and D' are assembled
    from the two sums and the two products in the same ints, each product
    and division rounded to nearest, which adds a few units u times at
    most Q*L^3/x.  G, K and bits come from float logs, whose rounding is
    far inside these margins.

    So D and Num come out within 2*tol of their exact values and D' within
    (8 + 0.012*L^3)*tol: inside 5*10^-(dps+5) and 10^-(dps+1) for every x
    up to 0.98, beyond the domain (0, 0.95] of the public calls.
    """
    terms, wp = _plan(n, w, dps)
    one = 1 << wp
    one_squared = one << wp
    xf = n << (wp - w) if wp >= w else n >> (w - wp)
    xf2 = xf * xf >> wp
    power = xf                   # x^(2k-1)
    inv_odd = one_squared // (one - xf)  # 1/(1-x^(2k-1))
    prod0 = prod1 = one          # 1/P_s(k-1)
    logd0 = logd1 = 0            # H_s(k-1)
    sum_a0 = sum_a1 = slope_a0 = slope_a1 = 0
    for k in range(1, terms + 1):
        p_even = power * xf >> wp
        p_next = power * xf2 >> wp
        inv_even = one_squared // (one - p_even)
        inv_next = one_squared // (one - p_next)
        t_even, t_next = inv_even - one, inv_next - one  # t(2k), t(2k+1)
        # alpha: A_0 uses t(2k), A_1 uses t(2k+1); both over P_s(k-1)
        a_0 = t_even * prod0 >> wp
        a_1 = t_next * prod1 >> wp
        slope_a0 += a_0 * (2 * k * inv_even + logd0) >> wp
        slope_a1 += a_1 * ((2 * k + 1) * inv_next + logd1) >> wp
        sum_a0 += a_0
        sum_a1 += a_1
        # P_s(k) = P_s(k-1) * (1 - x^(2k-1+s))
        prod0 = prod0 * inv_odd >> wp
        prod1 = prod1 * inv_even >> wp
        logd0 += (2 * k - 1) * (inv_odd - one)
        logd1 += 2 * k * t_even
        power, inv_odd = p_next, inv_next
    # alpha = x/(1-x) * S, so alpha' = (S/(1-x) + x*S')/(1-x); beta telescopes
    one_minus = one - xf
    alpha = (_div(xf * sum_a0, one_minus), _div(xf * sum_a1, one_minus))
    dalpha = tuple(
        _div((_div(total << wp, one_minus) + slope) << wp, one_minus)
        for total, slope in ((sum_a0, slope_a0), (sum_a1, slope_a1))
    )
    dbeta = (-_div(prod0 * logd0, xf), -_div(prod1 * logd1, xf))
    (a1, az), (db1, dbz), (da1, daz) = alpha, dbeta, dalpha
    b1, bz = one - prod0, one - prod1
    numerator = a1 + _div(az * b1 - a1 * bz, one)
    dnumerator = da1 + _div(daz * b1 + az * db1 - da1 * bz - a1 * dbz, one)
    # D = 1 - alpha(x,1) - beta(x,x) + beta(x,x)*alpha(x,1) - alpha(x,x)*beta(x,1)
    #   = 1 - beta(x,x) - Num
    return KSums(
        x=xf,
        alpha=alpha,
        beta=(b1, bz),
        dalpha=dalpha,
        dbeta=dbeta,
        numerator=numerator,
        denominator=one - bz - numerator,
        derivative=-dbz - dnumerator,
        terms=terms,
        wp=wp,
    )


def _ladder(working: int) -> list[int]:
    """Working precisions from about 20 digits up to `working`, each double the last."""
    rungs = [working]
    while rungs[-1] > 2 * _MIN_RUNG:
        rungs.append((rungs[-1] + 1) // 2)
    return rungs[::-1]


def find_rho(digits: int) -> KSums:
    """The pass at the zero of D in BRACKET that confirmed it, at digits + 15.

    Safeguarded Newton iteration on the analytic D' with precision
    doubling: the sign change is verified on BRACKET at the first rung of
    the ladder (about 20 digits), Newton starts from its midpoint, and each
    rung doubles the precision up to digits + 15 working digits.  Every
    value of D whose size exceeds the rung's error budget shrinks a
    sign-change bracket around the iterates; a Newton step that would
    leave the bracket is replaced by a bisection step, so the root stays
    enclosed.  The iteration stops once a step at full working precision
    is below 10^-(digits+8), and the pass that gave that step is returned:
    its x, the iterate before the step, lies within about 10^-(digits+8)
    of the root, and its values are over its bits wp (see `KSums`).

    BRACKET's ends are rounded to the bits of digits + 15; an end whose |D|
    is within the first rung's error budget cannot vouch for its sign and
    raises PrecisionError, as does a pair of ends without a sign change.
    No pass uses an x above the upper end, and none more digits than the
    top rung, so `_plan` there bounds the terms of every pass: a count past
    _MAX_TERMS raises PrecisionError before the first pass (from digits =
    30951 on).
    """
    if digits < 10:
        raise ValueError(f"digits must be >= 10, got {digits}")
    working = digits + GUARD_DIGITS
    ladder = _ladder(working)
    w = _dps_to_prec(working)
    newton_steps = bisection_steps = 0
    a, b = (_div(num << w, den) for num, den in BRACKET)
    _plan(b, w, working)  # the most terms of any pass: raises past the cap
    fa, fb = ksums(a, w, ladder[0]), ksums(b, w, ladder[0])
    positive = fa.denominator > 0
    if positive == (fb.denominator > 0) or not (
        _exceeds(fa.denominator, fa.wp, ladder[0]) and _exceeds(fb.denominator, fb.wp, ladder[0])
    ):
        raise PrecisionError(
            f"D({nstr(a, w, _SHOWN)}) = {nstr(fa.denominator, fa.wp, _SHOWN)} and "
            f"D({nstr(b, w, _SHOWN)}) = {nstr(fb.denominator, fb.wp, _SHOWN)} "
            f"do not change sign beyond the error budget of {ladder[0]} digits; "
            "evaluators are broken"
        )
    x = (a + b) >> 1
    for dps in ladder:
        for _ in range(_MAX_STEPS_PER_RUNG):
            sums = ksums(x, w, dps)
            f, slope = sums.denominator, sums.derivative
            if _exceeds(f, sums.wp, dps):
                if (f > 0) == positive:
                    a = x
                else:
                    b = x
            # an exact zero gives a zero Newton step and ends the rung;
            # D' = 0 yields the candidate a, which forces a bisection step
            candidate = x - _div(f << w, slope) if slope else a
            if a < candidate < b:
                newton_steps += 1
            else:
                candidate = (a + b) >> 1
                bisection_steps += 1
            dx = abs(candidate - x)
            x = candidate
            # Newton squares the error: after a step below 10^(-dps/2) the
            # rung's precision is used up; the last rung stops below
            # 10^-(digits+8)
            if dps < working:
                if not _exceeds(dx, w, dps):
                    break
            elif dx * 10 ** (digits + 8) < 1 << w:
                break
        else:
            if dps == working:
                raise PrecisionError(
                    f"Newton refinement did not converge to {digits} digits in "
                    f"[{nstr(a, w, _SHOWN)}, {nstr(b, w, _SHOWN)}]"
                )
    # two bracket passes, then one pass per Newton or bisection step
    _debug(
        "find_rho digits=%d ladder=%s passes=%d newton=%d bisection=%d "
        "k_terms=%d |dx|<2^%d",
        digits, ladder, 2 + newton_steps + bisection_steps, newton_steps,
        bisection_steps, sums.terms, dx.bit_length() - w,
    )
    return sums


def amplitudes(sums: KSums, digits: int) -> tuple[tuple[int, ...], int]:
    """((rho, growth, c_even, c_odd, c_total), wp) at the root rho = sums.x of D.

    c_even = -Num(rho)/(rho*D'(rho)); the odd series z/(1-z)*(1+F(z,1)) -
    F(z,z) picks up rho/(1-rho)*c_even - c_fzz, with c_fzz the residue
    constant of F(z,z) = alpha(z,z)/D.  D, Num, alpha(rho,rho) and D' all
    come from `sums`, one pass at digits + 15 (the one `find_rho` returns),
    whose bits wp every value is over.  DomainError if |D(rho)| >
    10^(-digits/2); PrecisionError if |D'(rho)| is numerically zero or a
    constant comes out nonpositive.
    """
    wp, rho, slope = sums.wp, sums.x, sums.derivative
    residual = abs(sums.denominator)
    _debug(
        "amplitudes digits=%d |D(rho)|<2^%d k_terms=%d",
        digits, residual.bit_length() - wp, sums.terms,
    )
    if _exceeds(residual, wp, digits):
        raise DomainError(
            f"rho={nstr(rho, wp, _SHOWN)} is not a root of D "
            f"(|D(rho)| = {nstr(residual, wp, _SHOWN)})"
        )
    if abs(slope) * 10 ** 6 < 1 << wp:
        raise PrecisionError(
            f"|D'(rho)| = {nstr(abs(slope), wp, _SHOWN)} is numerically zero "
            f"at rho={nstr(rho, wp, _SHOWN)}"
        )
    scale = rho * slope  # rho*D' over 2^(2wp)
    c_even = _div(-sums.numerator << 2 * wp, scale)
    c_fzz = _div(-sums.alpha[1] << 2 * wp, scale)
    c_odd = _div(rho * c_even, (1 << wp) - rho) - c_fzz
    if not (c_even > 0 and c_odd > 0):
        raise PrecisionError(
            f"residue constants came out nonpositive: "
            f"{nstr(c_even, wp, _SHOWN)}, {nstr(c_odd, wp, _SHOWN)}"
        )
    growth = _div(1 << 2 * wp, rho)
    return (rho, growth, c_even, c_odd, c_even + c_odd), wp
