import pytest
from hypothesis import given, settings, strategies as st

from arndt_carlitz.compositions import (
    CapExceededError,
    _valid_prefixes,
    count_brute_force,
    enumerate_compositions,
    is_arndt,
    is_arndt_carlitz,
    is_carlitz,
    list_arndt_carlitz,
)

EVEN_7 = {(6, 1), (5, 2), (4, 3), (3, 1, 2, 1), (2, 1, 3, 1)}
EVEN_8 = {(7, 1), (6, 2), (5, 3), (3, 1, 3, 1), (2, 1, 4, 1), (2, 1, 3, 2), (4, 1, 2, 1)}
ODD_8 = {(8,), (2, 1, 5), (3, 1, 4), (3, 2, 3), (4, 1, 3), (5, 1, 2), (5, 2, 1),
         (4, 3, 1), (2, 1, 2, 1, 2)}


@pytest.mark.parametrize(
    "parts, expected",
    [
        ((2, 1), True),
        ((1, 1), False),
        ((2, 1, 3, 1), True),
        ((1,), True),
        ((3, 1, 2), True),      # trailing unpaired part is unconstrained
        ((3, 4), False),
        ((), True),
    ],
)
def test_is_arndt(parts, expected):
    assert is_arndt(parts) is expected


@pytest.mark.parametrize(
    "parts, expected",
    [
        ((1, 2, 1), True),
        ((2, 2), False),
        ((3, 1, 3, 1), True),
        ((2, 1, 1, 3), False),
        ((5,), True),
        ((), True),
    ],
)
def test_is_carlitz(parts, expected):
    assert is_carlitz(parts) is expected


@pytest.mark.parametrize(
    "parts, expected",
    [
        ((6, 1), True),
        ((2, 1, 2, 1, 2), True),
        ((3, 1, 1, 2), False),   # equal neighbours
        ((2, 1, 3, 3), False),
        ((4, 3), True),
        ((3, 4), False),
    ],
)
def test_is_arndt_carlitz(parts, expected):
    assert is_arndt_carlitz(parts) is expected


@given(st.lists(st.integers(min_value=1, max_value=6), max_size=8).map(tuple))
def test_arndt_carlitz_equals_interleaved_chain(parts):
    # independent formulation: strict drop at even 0-based positions,
    # inequality everywhere
    chain = all(
        parts[i] > parts[i + 1] if i % 2 == 0 else parts[i] != parts[i + 1]
        for i in range(len(parts) - 1)
    )
    assert is_arndt_carlitz(parts) is chain
    if is_arndt_carlitz(parts):
        assert is_arndt(parts) and is_carlitz(parts)


def test_enumerate_small_cases():
    assert list(enumerate_compositions(0)) == [()]
    assert list(enumerate_compositions(1)) == [(1,)]
    assert list(enumerate_compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]


@pytest.mark.parametrize("n", range(1, 13))
def test_enumerate_invariants(n):
    comps = list(enumerate_compositions(n))
    assert len(comps) == 2 ** (n - 1)
    assert len(set(comps)) == len(comps)
    assert comps == sorted(comps)
    for c in comps:
        assert sum(c) == n
        assert all(p >= 1 for p in c)


def test_enumerate_rejects_negative():
    with pytest.raises(ValueError):
        enumerate_compositions(-1)


def test_cap_guard():
    with pytest.raises(CapExceededError):
        enumerate_compositions(31)
    with pytest.raises(CapExceededError):
        count_brute_force(31)
    with pytest.raises(CapExceededError):
        list_arndt_carlitz(31)
    # a custom cap is honored in both directions
    with pytest.raises(CapExceededError):
        enumerate_compositions(11, cap=10)
    assert count_brute_force(11, cap=11).total == 66


def test_listings_match_known_sets():
    assert set(list_arndt_carlitz(7, "even")) == EVEN_7
    assert set(list_arndt_carlitz(8, "even")) == EVEN_8
    assert set(list_arndt_carlitz(8, "odd")) == ODD_8
    assert list_arndt_carlitz(1, "even") == []
    assert list_arndt_carlitz(2, "even") == []


def test_listing_is_lexicographic():
    lst = list_arndt_carlitz(8, "all")
    assert lst == sorted(lst)
    assert set(lst) == EVEN_8 | ODD_8


def test_listing_parity_is_exact():
    for n in range(1, 11):
        assert all(len(c) % 2 == 0 for c in list_arndt_carlitz(n, "even"))
        assert all(len(c) % 2 == 1 for c in list_arndt_carlitz(n, "odd"))
        both = list_arndt_carlitz(n, "even") + list_arndt_carlitz(n, "odd")
        assert sorted(both) == list_arndt_carlitz(n, "all")


def test_listing_rejects_bad_parity():
    with pytest.raises(ValueError):
        list_arndt_carlitz(5, "weird")


@pytest.mark.parametrize(
    "n, expected",
    [
        (0, (0, 0, 0)),
        (1, (0, 1, 1)),
        (7, (5, 5, 10)),
        (8, (7, 9, 16)),
    ],
)
def test_count_known_values(n, expected):
    assert tuple(count_brute_force(n)) == expected


def test_count_matches_listing_lengths():
    for n in range(1, 13):
        counts = count_brute_force(n)
        assert counts.even == len(list_arndt_carlitz(n, "even"))
        assert counts.odd == len(list_arndt_carlitz(n, "odd"))
        assert counts.total == counts.even + counts.odd


def test_count_sandwiched_by_carlitz_and_unrestricted():
    for n in range(1, 15):
        carlitz = sum(
            1 for c in enumerate_compositions(n) if c and is_carlitz(c)
        )
        assert count_brute_force(n).total <= carlitz <= 2 ** (n - 1)


@pytest.mark.parametrize("n", range(19))
def test_prefix_walk_lists_what_the_full_filter_lists(n):
    # the old oracle: every composition of n, filtered by the definition
    every = [c for c in enumerate_compositions(n) if c and is_arndt_carlitz(c)]
    expected = {
        "all": every,
        "even": [c for c in every if len(c) % 2 == 0],
        "odd": [c for c in every if len(c) % 2 == 1],
    }
    for parity, listing in expected.items():
        assert list_arndt_carlitz(n, parity) == listing, parity


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=22))
def test_prefix_walk_yields_only_arndt_carlitz_compositions(n):
    # the raw walk, before the definitional filter: its pruning is exact
    for c in _valid_prefixes((), n):
        assert sum(c) == n
        assert is_arndt_carlitz(c)
