"""The checks of `arndt-carlitz verify`, loaded only by that command.

This module must not import `cli`: run as `python -m arndt_carlitz.cli`,
the CLI is `__main__`, and importing it here would compile it a second
time, with a second UsageError that main does not catch.
"""

from __future__ import annotations

from . import asymptotics, compositions, gf

# low-order reference coefficients (independently certified by enumeration)
_GOLDEN_EVEN = (0, 0, 0, 1, 1, 2, 3, 5, 7, 12, 20, 30)
_GOLDEN_ODD = (0, 1, 1, 1, 1, 2, 4, 5, 9, 15, 22, 36)
_GOLDEN_LISTINGS = {
    (7, "even"): {(6, 1), (5, 2), (4, 3), (3, 1, 2, 1), (2, 1, 3, 1)},
    (8, "even"): {(7, 1), (6, 2), (5, 3), (3, 1, 3, 1), (2, 1, 4, 1),
                  (2, 1, 3, 2), (4, 1, 2, 1)},
    (8, "odd"): {(8,), (2, 1, 5), (3, 1, 4), (3, 2, 3), (4, 1, 3),
                 (5, 1, 2), (5, 2, 1), (4, 3, 1), (2, 1, 2, 1, 2)},
}
LISTING_MAX_N = max(n for n, _parity in _GOLDEN_LISTINGS)


def run_checks(max_n: int, order: int | None, cap: int) -> int:
    """Print one line per check and a verdict; return the number of failures."""
    if order is None:
        order = gf.DEFAULT_ORDER
    failures = 0

    def report(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        if ok:
            print(f"ok: {name}")
        else:
            failures += 1
            print(f"FAIL: {name}{': ' + detail if detail else ''}")

    closed = gf.series_bundle(max(11, max_n))
    for parity, expected in (("even", _GOLDEN_EVEN), ("odd", _GOLDEN_ODD)):
        got = getattr(closed, parity).coeffs[:12]
        report(f"golden {parity} series z^0..z^11", got == expected, f"got {list(got)}")
    for (n, parity), expected in _GOLDEN_LISTINGS.items():
        got = set(compositions.list_arndt_carlitz(n, parity, cap))
        report(f"golden listing n={n} parity={parity}", got == expected, f"got {sorted(got)}")

    sliced = gf.slice_bundle(max_n)
    all_match = True
    mismatch_detail = ""
    for n in range(1, max_n + 1):
        brute = compositions.count_brute_force(n, cap)
        for name, bundle in (("gf", closed), ("slice", sliced)):
            even, odd = bundle.even.coefficient(n), bundle.odd.coefficient(n)
            got = (even, odd, even + odd)
            if got != brute:
                all_match = False
                mismatch_detail = f"n={n} {name}={got} brute={tuple(brute)}"
    report(f"counts n=1..{max_n} (brute vs gf vs slice)", all_match, mismatch_detail)

    if order >= 24:
        from mpmath import mp, mpf

        # the errors fall like (rho/0.92452)^n but oscillate, the nearest subdominant
        # poles being a complex pair: bound the last one, with rho to ~order/7 digits
        digits = max(20, order // 7)
        total = gf.total_series(order)
        samples = (order // 4, order // 2, 3 * order // 4)
        with mp.workdps(digits + asymptotics.GUARD_DIGITS):
            growth = 1 / asymptotics.find_rho(digits)
            errs = [abs(mpf(total.coefficient(n + 1)) / total.coefficient(n) - growth)
                    for n in samples]
        report(
            f"growth-ratio convergence at n={samples}",
            errs[2] < mpf(10) ** (-samples[2] / 10),
            f"errors {[mp.nstr(e, 4) for e in errs]}",
        )
    else:
        print(f"skipped: growth-ratio convergence (needs --order >= 24, got {order})")

    if failures:
        print(f"verify: FAIL ({failures} check(s) failed)")
    else:
        print("verify: PASS")
    return failures
