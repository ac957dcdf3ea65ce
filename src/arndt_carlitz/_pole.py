"""Integer core of the dominant-pole computation in `asymptotics`.

Everything here runs on Python ints in fixed point, an int n standing for
n/2^w: `ksums` is the fused pass over the k-sums, `find_rho` the
safeguarded Newton iteration for the zero of D, `amplitudes` the residue
constants, and `nstr` prints a value rounded exactly, in mpmath's layout.
The public mpf functions of `asymptotics` convert around this core, and
the `asymptotics` command calls it directly, without mpmath: `amplitudes`
reads the pass that confirmed `find_rho`'s root.  The module is imported
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


def _mag(num: int, den: int) -> int:
    """The least m with num/den < 2^m, for num, den > 0 (mpmath's mag of the exact value)."""
    m = num.bit_length() - den.bit_length()
    return m + 1 if num << max(-m, 0) >= den << max(m, 0) else m


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

# the error of a pass whose stop rule cannot fire
_STUCK = f"tail of the k-sums did not fall below tol within {_MAX_TERMS} terms"


def _never_small(n: int, w: int, value_threshold: tuple[int, int]) -> bool:
    """True if B_0(k) = x^(2k-1)/P_0(k) stays above e*value_threshold for all k <= _MAX_TERMS.

    B_0 is log-concave (see `ksums`), so the two ends of the range decide.
    Both are bounded below in floats: ln B_0(1) = ln(x/(1-x)), and
    ln B_0(_MAX_TERMS) = (2*_MAX_TERMS-1)*ln(x) - sum_j ln(1-x^(2j-1)),
    whose sum is cut as soon as it settles the question (its terms are
    positive and fall with j).  The logs of x = n/2^w and of x/(1-x) are
    taken of the ints themselves (math.log reads an int of any size), so
    no x in (0, 1) overflows or underflows; the factor e absorbs the float
    rounding.
    """
    # value_threshold < 2^mag, so this target errs on the side of the loop
    target = _mag(*value_threshold) * math.log(2) + 1
    ln_x = math.log(n) - w * math.log(2)
    ln_first = math.log(n) - math.log((1 << w) - n)
    low = (2 * _MAX_TERMS - 1) * ln_x
    # the sum is at most (pi^2/6) * x/(1-x) (see `ksums`); beyond e^700
    # that bound cannot fall below the target anyway
    if ln_first < target or low + math.pi ** 2 / 6 * math.exp(min(ln_first, 700)) < target:
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


def ksums(n: int, w: int, dps: int) -> KSums:
    """alpha(x,x^s), beta(x,x^s), s = 0, 1, and their x-derivatives at x = n/2^w.

    One pass; every value of the result is an int over 2^wp (see `KSums`).
    The tail tolerance is tol = 10^-(dps+5).

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

    Stop rule: the value terms eventually decay at least like x^(2k), so the
    tail after a value term below tol*(1-x^2) is below tol.  A derivative
    term is its value term times a weight that grows linearly in k (H_s
    converges), so it decays like k*x^(2k); with q = x^2 the tail after
    the k-th such term is at most that term times q/(1-q) + q/(k*(1-q)^2),
    which is below 1/(1-q)^2 for every k >= 1.  So a derivative term below
    tol*(1-x^2)^2 leaves a tail below tol.  The pass stops after two
    consecutive steps in which all four value terms and all four
    derivative terms beat their thresholds; the second is the defensive
    extra evaluation.  Beta terms are formed only where the alpha terms pass.

    Fixed point: the pass runs on Python ints, an int n standing for
    n/2^wp; a product is a*b >> wp and a reciprocal is one*2^wp // (one - p).
    Every term is nonnegative, so the stop rule compares the ints
    themselves with the thresholds.  Let
    L = 1/(1-x) and K = _MAX_TERMS >= k.  The products 1/P_s never exceed
    prod_m 1/(1-x^m), whose log2 is at most

        G = (pi^2/6) * x / ((1-x) * ln 2),

    because 1-x^j >= j*x^(j-1)*(1-x) bounds -ln(1-x^j) = sum_r x^(jr)/r by
    sum_r x/(r^2*(1-x)) for every j (so m*t(m) <= L and H_s <= KL).  Each
    operation, and the conversion of x, rounds by at most one unit
    u = 2^-wp.  To first order the powers then carry at most 6uL; the
    reciprocals and the t(m) 7uL^3 (relative 7uL^2, so the k factors of
    1/P_s 8kuL^2); H_s 14K^2*uL^3 (k values of t, each times m_l <= 2l);
    the alpha terms 16KuL^3*2^G, their weights (at most 4KL) 35K^2*uL^3
    and their derivatives 100K^2*uL^4*2^G, so each of the two sums
    100K^3*uL^4*2^G.  beta = 1 - 1/P_s(K), H_s(K)/P_s(K) and the beta
    terms of the stop test err by at most 60K^2*uL^3*2^G.  So with

        wp = bits + G + 3*bitlen(K) + 4*log2(L) + 18,

    2^-bits <= the derivative threshold and bits >= the precision of dps
    plus 2*log2(1/x) (alpha ~ x^2 keeps its relative precision as x -> 0),
    every term, sum and product lies within 2^-10 of that threshold of its
    exact value: rounding moves neither the stop nor the digits.  alpha,
    beta, Num, D and D' are assembled from the two sums and the two
    products in the same ints, each product and division rounded to
    nearest.  That adds a few units u, times at most L^2/x, which the
    4*log2(L) and 2*log2(1/x) in wp cover.

    Fail fast: B_0(k) = x^(2k-1)/P_0(k) has the step ratio
    x^2/(1-x^(2k+1)), which falls with k, so B_0 is log-concave and its
    minimum over 1 <= k <= _MAX_TERMS is B_0(1) or B_0(_MAX_TERMS).  If
    a float lower bound puts both a factor e above the value threshold,
    the pass can never stop, and it raises PrecisionError before it sizes
    wp (which grows like 1/(1-x)) or allocates anything at that width.
    """
    tol_den = 10 ** (dps + 5)
    gap = (1 << 2 * w) - n * n  # 1 - x^2 = gap/2^(2w); thresholds are exact (num, den)
    value_threshold = (gap, tol_den << 2 * w)
    if _never_small(n, w, value_threshold):
        raise PrecisionError(_STUCK)
    slope_threshold = (gap * gap * n, tol_den << 5 * w)  # compared with x*term'
    inv_gap = (1 << w) / ((1 << w) - n)
    # G of the docstring, one bit up for the float rounding
    guard = math.ceil(math.pi ** 2 / 6 * (inv_gap - 1) / math.log(2)) + 1
    wp = (
        max(_dps_to_prec(dps) - 2 * (n.bit_length() - w), 3 - _mag(*slope_threshold))
        + guard + 3 * _MAX_TERMS.bit_length() + 4 * math.ceil(math.log2(inv_gap)) + 18
    )
    one = 1 << wp
    one_squared = one << wp
    xf = n << (wp - w) if wp >= w else n >> (w - wp)
    xf2 = xf * xf >> wp
    value_cut = (value_threshold[0] << wp) // value_threshold[1]
    slope_cut = (slope_threshold[0] << wp) // slope_threshold[1]
    power = xf                   # x^(2k-1)
    inv_odd = one_squared // (one - xf)  # 1/(1-x^(2k-1))
    prod0 = prod1 = one          # 1/P_s(k-1)
    logd0 = logd1 = 0            # H_s(k-1)
    sum_a0 = sum_a1 = slope_a0 = slope_a1 = 0
    small_run = 0
    k = 0
    while small_run < 2:
        k += 1
        if k > _MAX_TERMS:
            raise PrecisionError(_STUCK)
        p_even = power * xf >> wp
        p_next = power * xf2 >> wp
        inv_even = one_squared // (one - p_even)
        inv_next = one_squared // (one - p_next)
        t_even, t_next = inv_even - one, inv_next - one  # t(2k), t(2k+1)
        # alpha: A_0 uses t(2k), A_1 uses t(2k+1); both over P_s(k-1)
        a_0 = t_even * prod0 >> wp
        a_1 = t_next * prod1 >> wp
        da_0 = a_0 * (2 * k * inv_even + logd0) >> wp
        da_1 = a_1 * ((2 * k + 1) * inv_next + logd1) >> wp
        # P_s(k) = P_s(k-1) * (1 - x^(2k-1+s))
        prod0 = prod0 * inv_odd >> wp
        prod1 = prod1 * inv_even >> wp
        logd0 += (2 * k - 1) * (inv_odd - one)
        logd1 += 2 * k * t_even
        sum_a0 += a_0
        sum_a1 += a_1
        slope_a0 += da_0
        slope_a1 += da_1
        small = max(a_0, a_1) < value_cut and max(da_0, da_1) < slope_cut
        if small:  # the beta terms enter only the stop test
            b_0 = power * prod0 >> wp
            b_1 = p_even * prod1 >> wp
            small = max(b_0, b_1) < value_cut and max(
                b_0 * ((2 * k - 1) * one + logd0) >> wp, b_1 * (2 * k * one + logd1) >> wp
            ) < slope_cut
        small_run = small_run + 1 if small else 0
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
        terms=k,
        wp=wp,
    )


def _ladder(working: int) -> list[int]:
    """Working precisions from about 20 digits up to `working`, each double the last."""
    rungs = [working]
    while rungs[-1] > 2 * _MIN_RUNG:
        rungs.append((rungs[-1] + 1) // 2)
    return rungs[::-1]


def find_rho(digits: int) -> tuple[int, int, KSums]:
    """(n, w, sums): the zero n/2^w of D in BRACKET and the last pass, at digits + 15.

    Safeguarded Newton iteration on the analytic D' with precision
    doubling: the sign change is verified on BRACKET at the first rung of
    the ladder (about 20 digits), Newton starts from its midpoint, and each
    rung doubles the precision up to digits + 15 working digits.  Every
    value of D whose size exceeds the rung's error budget shrinks a
    sign-change bracket around the iterates; a Newton step that would
    leave the bracket is replaced by a bisection step, so the root stays
    enclosed.  The iteration stops once a step at full working precision
    is below 10^-(digits+8).  BRACKET's ends are rounded to w bits (of
    digits + 15); an end whose |D| is within the first rung's error budget
    cannot vouch for its sign and raises PrecisionError, as does a pair of
    ends without a sign change.  sums is made at the iterate before the
    final step.
    """
    if digits < 10:
        raise ValueError(f"digits must be >= 10, got {digits}")
    working = digits + GUARD_DIGITS
    ladder = _ladder(working)
    w = _dps_to_prec(working)
    newton_steps = bisection_steps = 0
    a, b = (_div(num << w, den) for num, den in BRACKET)
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
    return x, w, sums


def amplitudes(sums: KSums, digits: int) -> tuple[tuple[int, ...], int]:
    """((rho, growth, c_even, c_odd, c_total), wp) at the root rho = sums.x of D.

    c_even = -Num(rho)/(rho*D'(rho)); the odd series z/(1-z)*(1+F(z,1)) -
    F(z,z) picks up rho/(1-rho)*c_even - c_fzz, with c_fzz the residue
    constant of F(z,z) = alpha(z,z)/D.  D, Num, alpha(rho,rho) and D' all
    come from `sums`, one pass at digits + 15 (`find_rho`'s last), whose
    bits wp every value is over.  DomainError if |D(rho)| > 10^(-digits/2);
    PrecisionError if |D'(rho)| is numerically zero or a constant comes out
    nonpositive.
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
