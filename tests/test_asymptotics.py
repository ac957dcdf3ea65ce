import logging
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from arndt_carlitz import _pole, asymptotics, cli
from arndt_carlitz.asymptotics import (
    GUARD_DIGITS,
    DomainError,
    PrecisionError,
    amplitudes,
    asymptotic_count,
    denominator_derivative,
    denominator_derivative_via_series,
    eval_denominator,
    find_rho,
)
from arndt_carlitz.gf import (
    alpha_series,
    beta_series,
    denominator_series,
    numerator_series,
    series_bundle,
    total_series,
)

# Anchors certified by two independent computation paths (tail-controlled
# numeric sums vs exact order-500 integer series), whose values of D and Num
# at RHO agree to 1e-70 while |D(RHO)| < 1e-38
# (test_order_500_series_certify_rho), and by the exact counting
# coefficients at n = 100 (test_coefficient_ratios_approach_growth).
RHO = "0.6279010089184809372910461926110318663363"
GROWTH = "1.592607729238141564047922382371707389941"
C_EVEN = "0.1823679511304888531543593533062429342571"
C_ODD = "0.217010491075237269829558668022107211093"
C_TOTAL = "0.3993784422057261229839180213283501453501"
D_PRIME = "-18.9314955057142358960337063539"
# the first 120 digits of the five constants, as in perfbench/reference.json
# (cross-checked there by a 140-digit run, the slice recurrence and brute force)
RHO_120 = (
    "0.627901008918480937291046192611031866336346219368790732414178087657"
    "447463503363362334429509154800160043601641034547468316"
)
GROWTH_120 = (
    "1.592607729238141564047922382371707389940705450145509172421354622681"
    "23467039630279275195506319263894945412971825121435993"
)
C_EVEN_120 = (
    "0.182367951130488853154359353306242934257062162153941655701843357675"
    "68356936220975034956206548584888188984232061458432178"
)
C_ODD_120 = (
    "0.217010491075237269829558668022107211093017131864087594429801372570"
    "067596811421959523370824653376935348644747492884914438"
)
C_TOTAL_120 = (
    "0.399378442205726122983918021328350145350079294018029250131644730245"
    "751166173631709872932890139225817238487068107469236218"
)

# Values tabulated for these constants elsewhere; they reproduce the k<=20
# truncation of the defining sums and are accurate to ~8 significant digits
# as approximations of the converged constants.
TABULATED_RHO = "0.62790101012637517122"
TABULATED_GROWTH = "1.592607726174439"
TABULATED_C_EVEN = "0.18236796484521070938"
TABULATED_C_ODD = "0.217010508476828474"
TABULATED_C_TOTAL = "0.399378473322039"

# k-terms of one fused pass at dps 1, 5, 20 and 100: the least K with
# F*tau' <= tol in the closed form of the `_pole.ksums` docstring (which
# test_term_count_is_the_least_the_bound_allows restates), pinned so that
# a change of the bound or of its solution shows
KSUM_TERMS = {
    "0.05": (3, 5, 11, 42),
    "0.55": (20, 28, 58, 213),
    "0.6": (26, 35, 69, 251),
    "0.7": (43, 55, 105, 365),
    "0.9": (268, 320, 485, 1364),
    "0.95": (1038, 1015, 1354, 3157),
}


def exact_at(series, x: Fraction) -> mpf:
    """The truncated series at rational x: exact Horner, then one rounding."""
    acc = Fraction(0)
    for c in reversed(series.coeffs):
        acc = acc * x + c
    return mpf(acc.numerator) / acc.denominator


def test_eval_alpha_vanishes_at_origin():
    assert asymptotics._ksums(mpf("0.001"), dps=30).alpha[0] < mpf("1e-8")


@pytest.mark.parametrize("variant", ["one", "z"])
@pytest.mark.parametrize("x_str", ["0.1", "0.2", "0.3"])
def test_evaluators_agree_with_exact_series(variant, x_str):
    # exact rational evaluation of the order-60 truncation; tail < 0.3^61
    s = 0 if variant == "one" else 1
    x = Fraction(x_str)
    with mp.workdps(40):
        xv = mpf(x.numerator) / x.denominator
        sums = asymptotics._ksums(xv, dps=35)
        for maker, got in (
            (alpha_series, sums.alpha[s]),
            (beta_series, sums.beta[s]),
        ):
            expected = exact_at(maker(variant, 60), x)
            assert abs(got - expected) < mpf("1e-20")


def test_denominator_agrees_with_exact_series():
    x = Fraction(1, 4)
    with mp.workdps(40):
        expected = exact_at(denominator_series(60), x)
        got = eval_denominator(mpf("0.25"), dps=35)
        assert abs(got - expected) < mpf("1e-25")


def test_order_500_series_certify_rho():
    # the exact series alone put a root of D within ~1e-39 of RHO (|D'| ~ 19),
    # and the numeric k-sums reproduce both exact series there
    with mp.workdps(80):
        rho = mpf(RHO)

        def at_rho(series):
            return mp.polyval([mpf(c) for c in reversed(series.coeffs)], rho)

        d_500 = at_rho(denominator_series(500))
        assert abs(d_500) < mpf("1e-38")
        assert abs(d_500 - eval_denominator(rho, dps=80)) < mpf("1e-70")
        num_500 = at_rho(numerator_series(500))
        assert abs(num_500 - asymptotics._ksums(rho, dps=80).numerator) < mpf("1e-70")


@pytest.mark.parametrize("x_str", list(KSUM_TERMS))
def test_ksum_kernel_grid(x_str):
    # on the ints, against a pass 60 digits finer: D and Num within the
    # documented 5*10^-(dps+5), D' within 10^-(dps+1), up to x = 0.95; at
    # dps 1 the literal 0.95 rounds to 0.953125, past the public domain
    for dps, terms in zip((1, 5, 20, 100), KSUM_TERMS[x_str]):
        with mp.workdps(dps):
            n, w = asymptotics._dyadic(mpf(x_str))
        sums, fine = _pole.ksums(n, w, dps), _pole.ksums(n, w, dps + 60)
        assert sums.terms == terms
        for name, bound in (
            ("numerator", Fraction(5, 10 ** (dps + 5))),
            ("denominator", Fraction(5, 10 ** (dps + 5))),
            ("derivative", Fraction(1, 10 ** (dps + 1))),
        ):
            got = Fraction(getattr(sums, name), 1 << sums.wp)
            want = Fraction(getattr(fine, name), 1 << fine.wp)
            assert abs(got - want) < bound, (x_str, dps, name)


def _tail_bounds(x, terms):
    """(F, tau, tau') of the `_pole.ksums` docstring at x after `terms` steps."""
    lever, c = 1 / (1 - x), 1 / (1 - x * x)
    q_bound = mp.exp(mp.pi ** 2 / 6 * x * lever)  # 2^G
    f = (1 + 2 * x * lever * c) * q_bound
    tau = q_bound * c * x ** (2 * terms + 1)
    weight = (2 * terms + 3) * c + 2 * x * x * c * c + x * lever ** 3
    return f, tau, q_bound * c * x ** (2 * terms) * weight


@pytest.mark.parametrize("dps", [1, 20, 100])
@pytest.mark.parametrize(
    "n", [1] + [round(Fraction(v) * 2 ** 60) for v in ("0.05", "0.6", "0.95")],
    ids=["2^-60", "0.05", "0.6", "0.95"],
)
def test_term_count_is_the_least_the_bound_allows(monkeypatch, n, dps):
    # x = n/2^60: K is the least count with F*tau' <= tol, and the tails a
    # K-term pass leaves (against a 4K-term pass, both at dps + 60) lie
    # below the docstring's bounds on them
    w = 60
    terms = _pole.ksums(n, w, dps).terms
    with mp.workdps(40):
        x, tol = mpf(n) / 2 ** w, mpf(10) ** -(dps + 5)
        f, _, slope_before = _tail_bounds(x, terms - 1)
        assert f * slope_before > tol
        f, tau, tau_slope = _tail_bounds(x, terms)
        assert f * tau_slope <= tol
    wp = _pole._plan(n, w, dps + 60)[1] + 6  # 6 bits for up to 4x the terms
    passes = []
    for count in (terms, 4 * terms):
        monkeypatch.setattr(_pole, "_plan", lambda *_: (count, wp))
        passes.append(_pole.ksums(n, w, dps + 60))
    short, long = passes

    def tail(name, s=None):
        a, b = getattr(short, name), getattr(long, name)
        return abs(mpf(a[s] - b[s] if s is not None else a - b)) / mpf(2) ** wp

    with mp.workdps(40):
        lever = 1 / (1 - x)
        for s in (0, 1):
            assert tail("beta", s) <= tau
            assert tail("dbeta", s) <= tau_slope
            assert tail("alpha", s) <= x * lever * tau
            assert tail("dalpha", s) <= lever ** 2 * tau + x * lever * tau_slope
        assert tail("numerator") <= (f - 1) * tau
        assert tail("denominator") <= f * tau <= tol
        assert tail("derivative") <= 8 * tol


@pytest.mark.parametrize("x_str", ["0.999", "0.999999", "0.999999999999"])
def test_ksums_fail_fast_where_they_cannot_converge(x_str):
    # a pass this close to 1 would need more than 100000 terms; the point
    # is outside the domain, so the call raises before any pass starts
    for dps in (20, 100):
        start = time.perf_counter()
        with pytest.raises(DomainError):
            asymptotics._ksums(mpf(x_str), dps)
        assert time.perf_counter() - start < 1


def test_ksums_fail_fast_next_to_one():
    # 1 - x = 2^-1100 is below the smallest float; the point is kept
    # exactly at dps 400, and the domain check refuses it at once
    with mp.workprec(1200):
        x = 1 - mpf(2) ** -1100
    start = time.perf_counter()
    with pytest.raises(DomainError):
        eval_denominator(x, dps=400)
    assert time.perf_counter() - start < 1


def test_stuck_pass_is_a_precision_error():
    # at 0.95 and 9000 digits the closed-form count is about 2*10^5 terms,
    # past the cap of 100000, so the pass raises before its loop (100000
    # steps at 9000 digits would take far longer than 1 s); the message
    # prints no value
    start = time.perf_counter()
    with pytest.raises(PrecisionError, match="did not fall below tol within 100000 terms"):
        eval_denominator("0.95", dps=9000)
    assert time.perf_counter() - start < 1


def test_ksums_backstop_stops_a_pass_past_the_term_cap(monkeypatch):
    # the cap is checked once, against the count K fixed before the loop:
    # a cap of K runs all K steps, and a cap of K - 1 raises (x = 0.05
    # needs K = 11 at 20 digits)
    n, w = asymptotics._dyadic(mpf("0.05"))
    terms = _pole.ksums(n, w, 20).terms
    monkeypatch.setattr(_pole, "_MAX_TERMS", terms)
    assert _pole.ksums(n, w, 20).terms == terms
    monkeypatch.setattr(_pole, "_MAX_TERMS", terms - 1)
    with pytest.raises(PrecisionError, match="did not fall below tol"):
        _pole.ksums(n, w, 20)


def test_beta_is_negative():
    for x_str in ("0.1", "0.3", "0.6"):
        beta = asymptotics._ksums(mpf(x_str), dps=25).beta
        assert beta[0] < 0
        assert beta[1] < 0


def test_beta_behaves_like_minus_x_at_origin():
    x = mpf("0.001")
    assert abs(asymptotics._ksums(x, dps=25).beta[0] + x) < mpf("1e-5")


def test_denominator_brackets_the_root():
    with mp.workdps(30):
        assert eval_denominator(mpf("0.5"), dps=30) > 0
        assert eval_denominator(mpf("0.65"), dps=30) < 0


def test_denominator_frozen_values():
    with mp.workdps(35):
        d_half = eval_denominator(mpf("0.5"), dps=35)
        assert abs(d_half - mpf("0.98196167155592685861469427992")) < mpf("1e-28")
        d_65 = eval_denominator(mpf("0.65"), dps=35)
        assert abs(d_65 - mpf("-0.51414445955381044802826995091")) < mpf("1e-28")


def test_domain_errors():
    # past 0.95 a pass no longer keeps its error budget
    for bad in ("1.2", "-0.5", "0", "1", "0.96"):
        with pytest.raises(DomainError):
            asymptotics._ksums(mpf(bad), dps=20)
    with pytest.raises(DomainError):
        eval_denominator(mpf("2"), dps=20)
    # a point just above 0.95, kept exactly at the working precision of
    # its call
    with mp.workprec(200):
        above = mpf("0.95") + mpf(2) ** -100
    with pytest.raises(DomainError):
        eval_denominator(above, 100)
    # 0.95 itself is in, at any precision
    for dps in (20, 30, 100):
        assert eval_denominator("0.95", dps) < 0
    with mp.workdps(1100):
        assert asymptotics._check_domain("0.95") == mpf("0.95")


def test_find_rho_matches_certified_anchor():
    with mp.workdps(50):
        assert abs(find_rho(20) - mpf(RHO)) < mpf("1e-25")
        assert abs(find_rho(30) - mpf(RHO)) < mpf("1e-35")


def test_find_rho_precision_monotone():
    with mp.workdps(40):
        assert abs(find_rho(12) - find_rho(25)) < mpf("1e-12")


def test_find_rho_residual():
    with mp.workdps(50):
        rho = find_rho(20)
        assert abs(eval_denominator(rho, dps=45)) < mpf("1e-25")


def test_find_rho_input_validation():
    with pytest.raises(ValueError):
        find_rho(9)


@pytest.mark.parametrize("digits", [0, -16, -20])
def test_precision_below_one_digit_is_rejected(digits):
    # mp.workdps would still run below one digit: c_even came out 0.5 at
    # digits = -16, D'(0.5) -2.0 at digits = -20, D(0.5) 1.0 at dps = 0,
    # and from an estimate built by hand, 2.0 for n = 3 (not 1.61328...)
    # at precision_digits = -20
    with pytest.raises(ValueError, match=f"digits must be >= 1, got {digits}"):
        amplitudes(find_rho(20), digits)
    est = amplitudes(find_rho(20), 20)._replace(precision_digits=digits)
    with pytest.raises(ValueError, match=f"precision_digits must be >= 1, got {digits}"):
        asymptotic_count(3, est)
    with pytest.raises(ValueError, match=f"digits must be >= 1, got {digits}"):
        denominator_derivative("0.5", digits)
    with pytest.raises(ValueError, match=f"dps must be >= 1, got {digits}"):
        eval_denominator("0.5", dps=digits)
    with pytest.raises(ValueError, match=f"dps must be >= 1, got {digits}"):
        denominator_derivative_via_series("0.5", dps=digits)


@pytest.mark.parametrize(
    "call",
    [
        lambda: find_rho(10.5),
        lambda: amplitudes(find_rho(20), 20.5),
        lambda: eval_denominator("0.5", dps=2.5),
        lambda: denominator_derivative("0.5", 20.5),
        lambda: denominator_derivative_via_series("0.5", dps=30.5),
    ],
    ids=["find_rho", "amplitudes", "eval_denominator", "derivative", "derivative_via_series"],
)
def test_precision_must_be_an_int(call):
    # a float precision used to reach _pole's shifts and fail there with
    # "unsupported operand type(s) for <<"
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        call()


def test_public_find_rho_is_the_int_core_root():
    # both layers round the same BRACKET ends and run the same iteration
    for digits in (10, 20, 100):
        n, w, _ = _pole.find_rho(digits)
        man, exp = asymptotics._dyadic(find_rho(digits))
        assert Fraction(n, 1 << w) == Fraction(man, 1 << exp)


def test_find_rho_rejects_signless_bracket(monkeypatch):
    # D > 0 at both ends of (0.10, 0.20)
    monkeypatch.setattr(_pole, "BRACKET", ((1, 10), (1, 5)))
    with pytest.raises(PrecisionError, match="do not change sign"):
        find_rho(15)


def test_find_rho_rejects_an_end_within_the_error_budget(monkeypatch):
    # an end whose |D| is not above the first rung's error budget (1e-9 at
    # 18 digits for find_rho(20)) cannot vouch for the sign change, even
    # where that sign is right: 0.6279010089184 lies 8e-14 below rho, so
    # |D| there is about 1.5e-12
    monkeypatch.setattr(_pole, "BRACKET", ((6279010089184, 10 ** 13), _pole.BRACKET[1]))
    with pytest.raises(PrecisionError, match="error budget of 18 digits"):
        _pole.find_rho(20)


@pytest.mark.parametrize("end", [0, 1])
def test_find_rho_rejects_an_end_where_d_is_zero(monkeypatch, end):
    # an exact zero lies within every error budget
    w = _pole._dps_to_prec(20 + GUARD_DIGITS)
    num, den = _pole.BRACKET[end]
    x = _pole._div(num << w, den)
    real = _pole.ksums

    def zero_at_the_end(n, bits, dps):
        sums = real(n, bits, dps)
        return sums._replace(denominator=0) if n == x else sums

    monkeypatch.setattr(_pole, "ksums", zero_at_the_end)
    with pytest.raises(PrecisionError, match="evaluators are broken"):
        _pole.find_rho(20)


def test_find_rho_hundred_digits():
    with mp.workdps(130):
        assert mp.nstr(find_rho(100), 100) == mp.nstr(mpf(RHO_120), 100)


@pytest.mark.parametrize(
    "bracket",
    [((11, 20), (7, 10)), ((6279, 10000), (62791, 100000)), ((2, 5), (157, 250))],
    ids=["default", "narrow", "overshoot"],
)
def test_find_rho_stays_in_bracket(bracket, monkeypatch, caplog):
    monkeypatch.setattr(_pole, "BRACKET", bracket)
    passes = []
    real = _pole.ksums

    def counting(*args, **kwargs):
        passes.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(_pole, "ksums", counting)
    with caplog.at_level(logging.DEBUG, logger=asymptotics.__name__):
        rho = find_rho(25)
    with mp.workdps(50):
        (lo_num, lo_den), (hi_num, hi_den) = bracket
        assert mpf(lo_num) / lo_den < rho < mpf(hi_num) / hi_den
        assert abs(rho - mpf(RHO)) < mpf("1e-30")
    (record,) = caplog.records
    fields = dict(f.split("=") for f in record.getMessage().split() if f.count("=") == 1)
    # the logged passes = 2 + newton + bisection are the calls of ksums made
    assert int(fields["passes"]) == len(passes)
    assert len(passes) == 2 + int(fields["newton"]) + int(fields["bisection"])
    if bracket[0] == (2, 5):
        # D is concave here: the Newton step from the midpoint 0.514 lands
        # beyond 0.628, so the safeguard must bisect
        assert fields["bisection"] != "0"


def test_find_rho_pass_budget(monkeypatch):
    # deterministic work guard: each fused k-sum pass is one evaluation of D
    passes = []
    real = _pole.ksums

    def counting(*args, **kwargs):
        passes.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(_pole, "ksums", counting)
    with mp.workdps(110):
        assert abs(find_rho(85) - mpf(RHO_120)) < mpf("1e-100")
    assert 0 < len(passes) <= 12


def test_find_rho_gives_up_when_the_last_rung_cannot_converge(monkeypatch):
    # one Newton step per rung cannot reach 10^-(digits+8) on the last one
    monkeypatch.setattr(_pole, "_MAX_STEPS_PER_RUNG", 1)
    with pytest.raises(PrecisionError, match="did not converge to 20 digits"):
        _pole.find_rho(20)


def test_amplitudes_reject_a_pass_with_bad_slope():
    _, _, sums = _pole.find_rho(20)
    assert _pole.amplitudes(sums, 20)[0][0] == sums.x
    # D' = 0: no simple pole
    with pytest.raises(PrecisionError, match="numerically zero"):
        _pole.amplitudes(sums._replace(derivative=0), 20)
    # D' of the wrong sign makes c_even = -Num/(rho*D') negative
    with pytest.raises(PrecisionError, match="nonpositive"):
        _pole.amplitudes(sums._replace(derivative=-sums.derivative), 20)


def test_amplitudes_reject_a_zero_even_constant():
    # Num = 0 makes c_even exactly 0, while alpha(x,x) < 0 and D' < 0 make
    # c_odd = -c_fzz = 1/x > 0: a zero constant is not positive either
    wp = 64
    one = 1 << wp
    sums = _pole.KSums(
        x=5 * one // 8, alpha=(0, -one), beta=(0, 0), dalpha=(0, 0), dbeta=(0, 0),
        numerator=0, denominator=0, derivative=-one, terms=1, wp=wp,
    )
    with pytest.raises(PrecisionError, match="nonpositive: 0.0, 1.6$"):
        _pole.amplitudes(sums, 20)


def test_diagnostics_are_debug_records(caplog):
    with caplog.at_level(logging.DEBUG, logger=asymptotics.__name__):
        amplitudes(find_rho(20), 20)
    assert [r.levelno for r in caplog.records] == [logging.DEBUG, logging.DEBUG]
    rho_msg, amp_msg = (r.getMessage() for r in caplog.records)
    for field in ("ladder=[18, 35]", "passes=", "newton=", "bisection=", "k_terms=", "|dx|<2^-"):
        assert field in rho_msg
    for field in ("|D(rho)|<2^-", "k_terms="):
        assert field in amp_msg


def test_amplitudes_past_1040_digits(caplog):
    # |dx| and |D(rho)| fall below 2^-3501: the records carry binary
    # exponents of the ints, so they print at any size
    with caplog.at_level(logging.DEBUG, logger=asymptotics.__name__):
        est = amplitudes(find_rho(1100), 1100)
    with mp.workdps(130):
        assert abs(est.rho - mpf(RHO_120)) < mpf("1e-118")
        assert abs(est.c_even - mpf(C_EVEN_120)) < mpf("1e-118")
    assert [r.levelno for r in caplog.records] == [logging.DEBUG, logging.DEBUG]
    rho_msg, amp_msg = (r.getMessage() for r in caplog.records)
    assert "find_rho digits=1100 " in rho_msg and "|dx|<2^-" in rho_msg
    assert "amplitudes digits=1100 " in amp_msg and "|D(rho)|<2^-" in amp_msg


def test_tabulated_rho_is_only_an_eight_digit_root():
    # the 20-digit tabulated value leaves a residual ~2e-8, the converged
    # root leaves ~0: the tabulated digits are truncation-limited
    with mp.workdps(35):
        residual = abs(eval_denominator(mpf(TABULATED_RHO), dps=35))
        assert mpf("1e-9") < residual < mpf("1e-7")
        assert abs(mpf(TABULATED_RHO) - mpf(RHO)) < mpf("2e-9")
        # the other tabulated constants sit 3e-9 to 3e-8 off, the same
        # truncation signature
        for tabulated, anchor in (
            (TABULATED_GROWTH, GROWTH),
            (TABULATED_C_EVEN, C_EVEN),
            (TABULATED_C_ODD, C_ODD),
            (TABULATED_C_TOTAL, C_TOTAL),
        ):
            gap = abs(mpf(tabulated) - mpf(anchor))
            assert mpf("1e-9") < gap < mpf("1e-7"), (tabulated, anchor, gap)


def test_derivative_two_paths_agree():
    with mp.workdps(45):
        rho = find_rho(20)
        analytic = denominator_derivative(rho, digits=20)
        via_series = denominator_derivative_via_series(rho, order=250, dps=45)
        assert abs(analytic - via_series) < mpf("1e-30")
        assert abs(analytic - mpf(D_PRIME)) < mpf("1e-15")


@pytest.mark.parametrize("variant", ["one", "z"])
def test_k_sum_derivatives_agree_with_exact_series(variant):
    # each derivative stream of the fused pass against the derivative of
    # the exact order-60 series at x = 1/4
    s = 0 if variant == "one" else 1
    x = Fraction(1, 4)
    sums = asymptotics._ksums(mpf("0.25"), dps=35)
    with mp.workdps(40):
        for maker, got in (
            (alpha_series, sums.dalpha[s]),
            (beta_series, sums.dbeta[s]),
        ):
            assert abs(got - exact_at(maker(variant, 60).derivative(), x)) < mpf("1e-25")


def test_amplitudes_match_certified_anchors():
    with mp.workdps(50):
        rho = find_rho(30)
        est = amplitudes(rho, 30)
        assert abs(est.rho - mpf(RHO)) < mpf("1e-30")
        assert abs(est.growth - mpf(GROWTH)) < mpf("1e-25")
        assert abs(est.c_even - mpf(C_EVEN)) < mpf("1e-25")
        assert abs(est.c_odd - mpf(C_ODD)) < mpf("1e-25")
        assert abs(est.c_total - mpf(C_TOTAL)) < mpf("1e-25")


def test_estimate_invariants():
    rho = find_rho(digits=20)
    est = amplitudes(rho, digits=20)
    # the documented defaults: 20 digits, and dps 30 for eval_denominator
    assert find_rho() == rho
    assert amplitudes(rho) == est
    assert est.precision_digits == 20
    # at 0.6, since D'(0.5) at 20 and at 21 digits is the same mpf
    assert denominator_derivative("0.6") == denominator_derivative("0.6", digits=20)
    assert eval_denominator("0.6") == eval_denominator("0.6", dps=30)
    with mp.workdps(40):
        assert 0 < est.rho < 1
        assert abs(est.growth * est.rho - 1) < mpf("1e-30")
        assert abs(est.c_total - (est.c_even + est.c_odd)) < mpf("1e-30")
        assert est.c_even > 0 and est.c_odd > 0
        assert mpf("1.59") < est.growth < mpf("1.60")
        assert 1 < est.growth < mpf("1.750243") < 2


def test_amplitudes_rejects_non_root():
    with pytest.raises(DomainError):
        amplitudes(mpf("0.5"), 20)


def test_numeric_error_message_is_short_at_1000_digits():
    # values in a message print at 20 significant digits, whatever `digits` is
    with pytest.raises(DomainError, match="is not a root of D") as exc:
        amplitudes("0.6", 1000)
    assert len(str(exc.value)) < 200
    # so does a point outside the domain, made at 1000 digits
    with mp.workdps(1000):
        x = mpf(4) / 3
    for call in (lambda: amplitudes(x, 1000), lambda: eval_denominator(x, 1000)):
        with pytest.raises(DomainError, match=r"got 1\.3333333333333333333$") as exc:
            call()
        assert len(str(exc.value)) < 200


def test_asymptotic_count_basics():
    est = amplitudes(find_rho(20), 20)
    with mp.workdps(30):
        assert abs(asymptotic_count(0, est, "total") - est.c_total) == 0
        one_step = asymptotic_count(1, est, "even")
        assert abs(one_step - est.c_even * est.growth) < mpf("1e-25")
    with pytest.raises(ValueError):
        asymptotic_count(5, est, "both")
    with pytest.raises(ValueError):
        asymptotic_count(-1, est)
    # n is an integer: True counts as 1, a float or a str is refused
    assert asymptotic_count(True, est, "even") == asymptotic_count(1, est, "even")
    for bad in (2.5, 3.0, "3"):
        with pytest.raises(TypeError):
            asymptotic_count(bad, est)


def test_asymptotic_relative_error_shrinks():
    est = amplitudes(find_rho(20), 20)
    totals = total_series(64)
    with mp.workdps(35):
        errs = {}
        for n in (20, 30, 60):
            exact = mpf(int(totals.coefficient(n)))
            errs[n] = abs(asymptotic_count(n, est, "total") / exact - 1)
        assert errs[60] < errs[30] < errs[20]
        # frozen observed magnitudes (~2.5e-4, ~3.1e-11), generous headroom
        assert errs[20] < mpf("1e-3")
        assert errs[60] < mpf("1e-9")


def test_coefficient_ratios_approach_growth():
    # The exact coefficients share no k-sum truncation with the numeric
    # path; at n = 100 their ratio and scaled values sit within ~1e-17 of
    # the anchors (pole-transfer error decays like (rho/|next pole|)^n).
    est = amplitudes(find_rho(20), 20)
    bundle = series_bundle(101)
    totals = bundle.total

    def exact(series, n):
        return mpf(int(series.coefficient(n)))

    with mp.workdps(40):
        gaps = []
        for n in (20, 40, 60):
            ratio = exact(totals, n + 1) / exact(totals, n)
            gaps.append(abs(ratio - est.growth))
        assert gaps[0] > gaps[1] > gaps[2]

        ratio = exact(totals, 101) / exact(totals, 100)
        assert abs(ratio - mpf(GROWTH)) < mpf("1e-16")
        assert abs(ratio - mpf(TABULATED_GROWTH)) > mpf("1e-9")
        scale = mpf(GROWTH) ** 100
        for series, anchor, tabulated in (
            (bundle.even, C_EVEN, TABULATED_C_EVEN),
            (bundle.odd, C_ODD, TABULATED_C_ODD),
            (totals, C_TOTAL, TABULATED_C_TOTAL),
        ):
            scaled = exact(series, 100) / scale
            assert abs(scaled - mpf(anchor)) < mpf("1e-17"), (anchor, scaled)
            assert abs(scaled - mpf(tabulated)) > mpf("1e-9"), (tabulated, scaled)


def test_exact_coefficients_pin_the_pole_constants(capsys):
    # The counts at n and n + 1 share no k-sum with the numeric path.  Their
    # pole-transfer error falls like (rho/0.92452)^n, 0.168 digits per n
    # (|r(n)|^(1/n) settles near 1.078): at n = 1000 it is ~1e-168 relative
    # for the growth and ~1e-165 for the constants, at n = 1840 ~1e-309 and
    # ~1e-306.  So each case confirms find_rho and amplitudes, and every
    # digit that `asymptotics --digits 150` and `--digits 300` print, with a
    # margin of at least 5 digits.
    for n, printed_digits, est_digits, agree in ((1000, 150, 110, 105), (1840, 300, 310, 305)):
        bundle = series_bundle(n + 1)
        est = amplitudes(find_rho(est_digits), est_digits)
        assert cli.main(["asymptotics", "--digits", str(printed_digits)]) == 0
        printed = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())

        def exact(series, k):
            return mpf(int(series.coefficient(k)))

        with mp.workdps(printed_digits + 50):
            growth = exact(bundle.total, n + 1) / exact(bundle.total, n)
            scale = growth ** n
            for name, value, constant in (
                ("rho", 1 / growth, est.rho),
                ("growth", growth, est.growth),
                ("c_even", exact(bundle.even, n) / scale, est.c_even),
                ("c_odd", exact(bundle.odd, n) / scale, est.c_odd),
                ("c_total", exact(bundle.total, n) / scale, est.c_total),
            ):
                assert abs(value / constant - 1) < mpf(10) ** -agree, (n, name)
                assert mp.nstr(value, printed_digits) == printed[name], (n, name)


def rounded_half_up(value, digits):
    # value (a nonzero Fraction) to `digits` significant digits, halves away from 0
    size, exponent = abs(value), 0
    while size >= 10 ** exponent:
        exponent += 1
    while size < 10 ** (exponent - 1):
        exponent -= 1
    unit = Fraction(10) ** (exponent - digits)
    return (1 if value > 0 else -1) * math.floor(size / unit + Fraction(1, 2)) * unit


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=-(2 ** 400), max_value=2 ** 400),
    st.integers(min_value=-300, max_value=700),
    st.integers(min_value=1, max_value=60),
)
def test_nstr_rounds_the_exact_value_half_up(n, wp, digits):
    text = _pole.nstr(n, wp, digits)
    value = Fraction(n) / Fraction(2) ** wp
    assert Fraction(text) == (rounded_half_up(value, digits) if n else 0)
    mantissa = text.lstrip("-").split("e")[0].replace(".", "").strip("0")
    assert len(mantissa) <= digits


def test_nstr_layout():
    def shown(value, digits, wp=200):
        return _pole.nstr(round(Fraction(value) * 2 ** wp), wp, digits)

    assert shown("0", 5) == "0.0"
    assert (shown("1", 1), shown("0.6279", 1), shown("0.6279", 3)) == ("1.0", "0.6", "0.628")
    assert (shown("-0.6279", 3), shown("-1e40", 2)) == ("-0.628", "-1.0e+40")
    # e-notation on both sides of the fixed-point window
    # min(-(digits // 3), -5) < exponent < digits, and its edges
    assert (shown("1e-40", 10), shown("3.5e-6", 5), shown("9.87e30", 20)) == (
        "1.0e-40", "3.5e-6", "9.87e+30")
    assert (shown("0.0001234", 3), shown("0.00001234", 3)) == ("0.000123", "1.23e-5")
    assert (shown("1.5e-9", 30), shown("1.5e-10", 30)) == ("0.0000000015", "1.5e-10")
    assert (shown("123456", 6), shown("123456", 3)) == ("123456.0", "1.23e+5")
    assert (shown("12345678", 8), shown("123456789", 8)) == ("12345678.0", "1.2345679e+8")
    # 99...9 carries into the next decade, and out of the window
    assert (shown("9.9996", 4), shown("0.099996", 4)) == ("10.0", "0.1")
    assert (shown("99.5", 2), shown("999.96", 3)) == ("1.0e+2", "1.0e+3")


def test_nstr_rounds_a_near_tie_up():
    # 2^-34 above the tie 9.9995: a printer that cuts the value to fewer
    # bits, or floors it to a few more decimals, before it rounds gets 9.999
    assert _pole.nstr((99995 << 34) // 10 ** 4 + 1, 34, 4) == "10.0"


def test_nstr_has_no_range_limit():
    # 2^-3700 and 2^3700: ints alone, so no size of the value is out of range
    assert _pole.nstr(1, 3700, 5) == "1.5453e-1114"
    assert _pole.nstr(-1, -3700, 5) == "-6.4712e+1113"


@pytest.mark.parametrize("digits", [1, 5, *range(10, 111)])
def test_printed_digits_match_the_anchors(capsys, digits):
    assert cli.main(["asymptotics", "--digits", str(digits)]) == 0
    lines = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
    with mp.workdps(130):
        for name, anchor in (("rho", RHO_120), ("growth", GROWTH_120), ("c_even", C_EVEN_120),
                             ("c_odd", C_ODD_120), ("c_total", C_TOTAL_120)):
            assert lines[name] == mp.nstr(mpf(anchor), digits), name
