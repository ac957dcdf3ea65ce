"""Seeded op decks for the benchmark workloads.

A deck is a list of CLI argv lists, one fresh process each.  Sizes are
stratified: each size range is cut into as many equal strata as the deck
has ops of that kind, and each op takes a seeded size near the centre of
its own stratum.  Every seed therefore changes the inputs but costs about
the same, which keeps runs on different seeds comparable.  Brute-force
cost doubles with each unit of n, so the brute-force sizes (`count
--method brute --n` and `verify --max-n`) sit exactly at their stratum
centres, and the verify calls pair max-n and order in the same rank.
The seed also picks parities, formats and the order of the deck.  The
runner repeats a deck whole, so every run times the same mix.
"""

from __future__ import annotations

import random

# inclusive size ranges the generators draw from
EXPORT_ORDER = (96, 224)
POLE_DIGITS = (20, 80)
VERIFY_MAX_N = (12, 16)
VERIFY_ORDER = (24, 96)
SLICE_N = (24, 44)
BRUTE_N = (12, 17)

EXPORT_OPS = 5
POLE_OPS = 5
CROSS_OPS_PER_KIND = 3

PARITIES = ("all", "even", "odd")
FORMATS = ("bfile", "json", "plain")


def stratified(rng: random.Random, lo: int, hi: int, k: int,
               jitter: float = 0.125) -> list[int]:
    """k integers in [lo, hi], one per stratum, within jitter * width of its centre."""
    width = (hi + 1 - lo) / k
    return [lo + int((j + 0.5 + rng.uniform(-jitter, jitter)) * width) for j in range(k)]


def exact_export(rng: random.Random) -> list[list[str]]:
    return [
        ["series", "--order", str(n), "--parity", rng.choice(PARITIES),
         "--format", rng.choice(FORMATS)]
        for n in stratified(rng, *EXPORT_ORDER, EXPORT_OPS)
    ]


def pole_digits(rng: random.Random) -> list[list[str]]:
    return [
        ["asymptotics", "--digits", str(d)]
        for d in stratified(rng, *POLE_DIGITS, POLE_OPS)
    ]


def cross_check(rng: random.Random) -> list[list[str]]:
    k = CROSS_OPS_PER_KIND
    # the larger max-n takes the larger order, so each seed's verify calls
    # rank the same by cost and a percentile over them lands on the same call
    orders = stratified(rng, *VERIFY_ORDER, k)
    verify = [
        ["verify", "--max-n", str(m), "--order", str(o)]
        for m, o in zip(stratified(rng, *VERIFY_MAX_N, k, jitter=0), orders)
    ]
    sliced = [["count", "--method", "slice", "--n", str(n)]
              for n in stratified(rng, *SLICE_N, k)]
    brute = [["count", "--method", "brute", "--n", str(n)]
             for n in stratified(rng, *BRUTE_N, k, jitter=0)]
    return verify + sliced + brute


WORKLOADS = {
    "exact-export": exact_export,
    "pole-digits": pole_digits,
    "cross-check": cross_check,
}


def deck(workload: str, seed: int) -> list[list[str]]:
    """The op deck of one workload; the same seed gives the same deck."""
    rng = random.Random(f"{workload}/{seed}")
    ops = WORKLOADS[workload](rng)
    rng.shuffle(ops)
    return ops
