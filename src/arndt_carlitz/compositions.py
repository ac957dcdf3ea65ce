"""Compositions of integers and the Arndt / Carlitz restrictions.

A composition of n is an ordered tuple of positive integers summing to n.
It is *Arndt* if every odd-indexed part exceeds its successor
(s1 > s2, s3 > s4, ...), *Carlitz* if adjacent parts differ, and
*Arndt-Carlitz* if both hold, i.e. s1 > s2 != s3 > s4 != s5 ...

Everything here is exhaustive enumeration: it is the ground-truth oracle
that the generating-function machinery is checked against.  Each
condition links two neighbouring parts, so every prefix of an
Arndt-Carlitz composition is one too: the oracle walks the tree of valid
prefixes instead of all 2^(n-1) compositions, and its cost grows like the
counts (about 1.6^n), not like 2^(n-1).  Each composition it yields is
still checked against the definition before it is counted or listed.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

Composition = tuple[int, ...]

DEFAULT_CAP = 30

PARITIES = ("even", "odd", "all")


class CapExceededError(ValueError):
    """n is past the brute-force cap (enumeration is exponential in n)."""


class ParityCounts(NamedTuple):
    even: int
    odd: int
    total: int


def is_arndt(parts: Composition) -> bool:
    """True iff parts[2i] > parts[2i+1] for every complete pair (0-based)."""
    return all(parts[i] > parts[i + 1] for i in range(0, len(parts) - 1, 2))


def is_carlitz(parts: Composition) -> bool:
    """True iff no two adjacent parts are equal."""
    return all(parts[i] != parts[i + 1] for i in range(len(parts) - 1))


def is_arndt_carlitz(parts: Composition) -> bool:
    return is_arndt(parts) and is_carlitz(parts)


def _check_size(n: int, cap: int) -> None:
    """ValueError for n < 0, CapExceededError for n > cap."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n > cap:
        raise CapExceededError(
            f"n={n} exceeds brute-force cap {cap}; enumerating 2^(n-1) "
            f"compositions is not desk-scale (raise the cap explicitly if you mean it)"
        )


def _compositions(n: int) -> Iterator[Composition]:
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def enumerate_compositions(n: int, cap: int = DEFAULT_CAP) -> Iterator[Composition]:
    """All 2^(n-1) compositions of n, in lexicographic order of the parts.

    n=0 yields exactly the empty composition.  Raises CapExceededError for
    n > cap; the cap exists because the output is exponential.  The oracle
    below does not use it: it is the independent reference the prefix walk
    is tested against.
    """
    _check_size(n, cap)
    return _compositions(n)


def _valid_prefixes(prefix: Composition, remaining: int) -> Iterator[Composition]:
    """Completions of an Arndt-Carlitz prefix by parts summing to remaining, lex order.

    The next part may be anything after the empty prefix, must be below the
    last part when it closes a pair (odd length), and must differ from it
    when it opens one (even length >= 2).
    """
    if not remaining:
        yield prefix
        return
    if not prefix:
        parts = range(1, remaining + 1)
    elif len(prefix) % 2:
        parts = range(1, min(prefix[-1], remaining + 1))
    else:
        last = prefix[-1]
        parts = [p for p in range(1, remaining + 1) if p != last]
    for p in parts:
        yield from _valid_prefixes(prefix + (p,), remaining - p)


def _arndt_carlitz(n: int, cap: int) -> Iterator[Composition]:
    """Arndt-Carlitz compositions of n with at least one part, lex order.

    The size checks run at the call, before anything is enumerated.
    """
    _check_size(n, cap)
    return (c for c in _valid_prefixes((), n) if c and is_arndt_carlitz(c))


def _parity_match(length: int, parity: str) -> bool:
    if parity == "all":
        return True
    return length % 2 == (0 if parity == "even" else 1)


def list_arndt_carlitz(n: int, parity: str = "all", cap: int = DEFAULT_CAP) -> list[Composition]:
    """Arndt-Carlitz compositions of n with the given part-count parity, lex order.

    The empty composition (n=0) belongs to neither parity class: the
    counted objects always have at least one part.
    """
    if parity not in PARITIES:
        raise ValueError(f"parity must be one of {PARITIES}, got {parity!r}")
    return [c for c in _arndt_carlitz(n, cap) if _parity_match(len(c), parity)]


def count_brute_force(n: int, cap: int = DEFAULT_CAP) -> ParityCounts:
    """Counts of Arndt-Carlitz compositions of n, split by part-count parity.

    Deliberately plain: walk the valid prefixes, check each composition
    against the definition, tally.  This is the oracle; keep it independent
    of the series machinery.
    """
    even = odd = 0
    for c in _arndt_carlitz(n, cap):
        if len(c) % 2 == 0:
            even += 1
        else:
            odd += 1
    return ParityCounts(even, odd, even + odd)
