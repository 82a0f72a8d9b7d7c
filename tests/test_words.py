import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okamoto import words
from okamoto.errors import BudgetError, DepthCapError, ParameterError
from okamoto.words import (
    alphabet_size,
    common_prefix,
    count_twos,
    enumerate_words,
    ratio_product,
    stopping_cover,
    subsystem_alphabet,
    word_from_str,
    word_to_str,
    x_cylinder,
)

words_st = st.lists(st.sampled_from([1, 2, 3]), max_size=12).map(tuple)


def test_common_prefix_prefix_relation():
    assert common_prefix((1, 2, 3), (1, 2)) == ((1, 2), 2)


def test_common_prefix_first_symbols_differ():
    assert common_prefix((1, 1, 1), (3, 1, 1)) == ((), 0)


def test_common_prefix_direct():
    assert common_prefix((2, 2, 1, 3), (2, 2, 3, 1)) == ((2, 2), 2)


@given(words_st, words_st)
def test_common_prefix_is_maximal_shared_prefix(i, j):
    prefix, n = common_prefix(i, j)
    assert len(prefix) == n
    assert i[:n] == prefix and j[:n] == prefix
    if n < min(len(i), len(j)):
        assert i[n] != j[n]


def test_enumerate_words_small():
    assert list(enumerate_words(0)) == [()]
    assert list(enumerate_words(1)) == [(1,), (2,), (3,)]
    level2 = list(enumerate_words(2))
    assert len(level2) == 9
    assert level2[0] == (1, 1) and level2[-1] == (3, 3)
    assert level2 == sorted(level2)


@pytest.mark.parametrize("n", range(7))
def test_enumerate_words_count_and_uniqueness(n):
    ws = list(enumerate_words(n))
    assert len(ws) == 3**n
    assert len(set(ws)) == 3**n


def test_enumerate_words_depth_cap():
    with pytest.raises(DepthCapError):
        list(enumerate_words(17))
    with pytest.raises(DepthCapError):
        subsystem_alphabet(0.75, 17)


def test_word_string_round_trip():
    assert word_from_str("123") == (1, 2, 3)
    assert word_to_str((3, 1, 2)) == "312"
    assert word_from_str("") == ()
    with pytest.raises(ValueError):
        word_from_str("140")


# --- stopping covers -------------------------------------------------------


def test_stopping_cover_single_letters():
    cover = stopping_cover(0.75, 0.8)
    assert cover.words == ((1,), (2,), (3,))


def test_stopping_cover_r_at_least_a():
    for r in (0.75, 0.9, 0.99):
        assert stopping_cover(0.75, r).words == ((1,), (2,), (3,))


def test_stopping_cover_a075_r06():
    # lambda = (0.75, 0.5, 0.75): '2' stops at depth 1, every other
    # two-letter extension of '1' and '3' has product <= 0.6 < first letter.
    cover = stopping_cover(0.75, 0.6)
    expected = {(2,), (1, 1), (1, 2), (1, 3), (3, 1), (3, 2), (3, 3)}
    assert set(cover.words) == expected


def test_stopping_cover_domain_errors():
    with pytest.raises(ParameterError):
        stopping_cover(0.5, 0.5)
    with pytest.raises(ParameterError):
        stopping_cover(0.75, 1.0)
    with pytest.raises(ParameterError):
        stopping_cover(0.75, 0.0)


def _assert_prefix_free_and_complete(cover):
    ws = sorted(cover.words)
    for prev, cur in zip(ws, ws[1:]):
        assert cur[: len(prev)] != prev, f"{prev} is a prefix of {cur}"
    total = sum(Fraction(1, 3 ** len(w)) for w in ws)
    assert total == 1


@pytest.mark.parametrize("a,r", [(0.75, 0.6), (0.75, 0.31), (0.6, 0.2), (0.9, 0.5), (0.55, 0.05)])
def test_stopping_cover_invariants(a, r):
    cover = stopping_cover(a, r)
    _assert_prefix_free_and_complete(cover)
    b = 2 * a - 1
    for w in cover.words:
        prod = ratio_product(a, w)
        assert prod <= r
        assert prod > r * b  # one-step refinement window
    assert cover.min_length() >= math.log(r) / math.log(b) - 1e-12


def test_stopping_cover_exact_rational_window():
    cover = stopping_cover(Fraction(3, 4), Fraction(3, 5))
    _assert_prefix_free_and_complete(cover)
    for w in cover.words:
        prod = ratio_product(Fraction(3, 4), w)
        assert prod <= Fraction(3, 5) < prod / (Fraction(3, 4) if w[-1] != 2 else Fraction(1, 2))


# --- subsystem alphabets ---------------------------------------------------


def test_subsystem_alphabet_m1():
    assert subsystem_alphabet(0.75, 1) == ((1,), (3,))
    assert alphabet_size(0.75, 1) == 2


def test_subsystem_alphabet_m4():
    words = subsystem_alphabet(0.75, 4)
    assert len(words) == 32 == alphabet_size(0.75, 4)
    assert all(count_twos(w) == 1 for w in words)


@pytest.mark.parametrize("m", range(1, 13))
def test_alphabet_size_matches_enumeration(m):
    a = Fraction(3, 4)
    j = math.floor(Fraction(2 * a - 1, 4 * a - 1) * m)
    brute = sum(1 for w in enumerate_words(m) if count_twos(w) == j)
    assert alphabet_size(a, m) == brute
    if m <= 9:
        assert len(subsystem_alphabet(a, m)) == brute


def test_subsystem_alphabet_shared_ratio_magnitude():
    a = Fraction(3, 4)
    for m in (1, 2, 3, 4, 5, 6):
        words = subsystem_alphabet(a, m)
        j = count_twos(words[0])
        expected = a ** (m - j) * (2 * a - 1) ** j
        for w in words:
            assert ratio_product(a, w) == expected


def test_enumeration_budgets(monkeypatch):
    monkeypatch.setattr(words, "STOPPING_COVER_BUDGET", 50)
    with pytest.raises(BudgetError):
        stopping_cover(0.75, 0.01)


def test_x_cylinder_convention():
    assert x_cylinder(()) == (0, 1)
    assert x_cylinder((1,)) == (0, Fraction(1, 3))
    assert x_cylinder((2,)) == (Fraction(1, 3), Fraction(2, 3))
    assert x_cylinder((3, 1)) == (Fraction(2, 3), Fraction(2, 3) + Fraction(1, 9))


@settings(max_examples=50)
@given(st.integers(0, 5))
def test_level_cylinders_tile_unit_interval(n):
    intervals = [x_cylinder(w) for w in enumerate_words(n)]
    assert intervals[0][0] == 0 and intervals[-1][1] == 1
    for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
        assert hi == lo
