import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okamoto import words
from okamoto.errors import BudgetError, DepthCapError, ParameterError
from okamoto.systems import build_system, compose_word, fold_word
from okamoto.words import check_word, index_to_word, stopping_cover, subsystem_alphabet, word_to_str


def _ratio_product(a, word):
    """Unsigned contraction of a word: the magnitude of its composed projection-system ratio."""
    return abs(compose_word(build_system("projection", a), word).ratio)


def _enumerate_words(n):
    """All length-n words in the lexicographic enumeration that index_to_word indexes."""
    return [index_to_word(i, n) for i in range(3**n)]


def test_enumerate_words_small():
    assert _enumerate_words(0) == [()]
    assert _enumerate_words(1) == [(1,), (2,), (3,)]
    level2 = _enumerate_words(2)
    assert len(level2) == 9
    assert level2[0] == (1, 1) and level2[-1] == (3, 3)
    assert level2 == sorted(level2)


@pytest.mark.parametrize("n", range(7))
def test_enumerate_words_count_and_uniqueness(n):
    ws = _enumerate_words(n)
    assert ws == list(product((1, 2, 3), repeat=n))
    assert len(set(ws)) == 3**n


def test_enumerate_words_depth_cap():
    # the subsystem alphabet is the one word enumeration left, capped at DEPTH_CAP = 16
    with pytest.raises(DepthCapError):
        subsystem_alphabet(0.75, 17)


def test_word_string_round_trip():
    for w in ((1, 2, 3), (3, 1, 2), ()):
        assert check_word(int(c) for c in word_to_str(w)) == w
    assert word_to_str((3, 1, 2)) == "312"
    with pytest.raises(ValueError):
        check_word((1, 4, 0))


# --- stopping covers -------------------------------------------------------


def test_stopping_cover_single_letters():
    assert stopping_cover(0.75, 0.8) == ((1,), (2,), (3,))


def test_stopping_cover_r_at_least_a():
    for r in (0.75, 0.9, 0.99):
        assert stopping_cover(0.75, r) == ((1,), (2,), (3,))


def test_stopping_cover_a075_r06():
    # lambda = (0.75, 0.5, 0.75): '2' stops at depth 1, every other
    # two-letter extension of '1' and '3' has product <= 0.6 < first letter.
    cover = stopping_cover(0.75, 0.6)
    expected = {(2,), (1, 1), (1, 2), (1, 3), (3, 1), (3, 2), (3, 3)}
    assert set(cover) == expected


def test_stopping_cover_domain_errors():
    with pytest.raises(ParameterError):
        stopping_cover(0.5, 0.5)
    with pytest.raises(ParameterError):
        stopping_cover(0.75, 1.0)
    with pytest.raises(ParameterError):
        stopping_cover(0.75, 0.0)


def _assert_prefix_free_and_complete(cover):
    ws = sorted(cover)
    for prev, cur in zip(ws, ws[1:]):
        assert cur[: len(prev)] != prev, f"{prev} is a prefix of {cur}"
    total = sum(Fraction(1, 3 ** len(w)) for w in ws)
    assert total == 1


@pytest.mark.parametrize("a,r", [(0.75, 0.6), (0.75, 0.31), (0.6, 0.2), (0.9, 0.5), (0.55, 0.05)])
def test_stopping_cover_invariants(a, r):
    cover = stopping_cover(a, r)
    _assert_prefix_free_and_complete(cover)
    b = 2 * a - 1
    for w in cover:
        prod = _ratio_product(a, w)
        assert prod <= r
        assert prod > r * b  # one-step refinement window
    assert min(len(w) for w in cover) >= math.log(r) / math.log(b) - 1e-12


def test_stopping_cover_exact_rational_window():
    cover = stopping_cover(Fraction(3, 4), Fraction(3, 5))
    _assert_prefix_free_and_complete(cover)
    for w in cover:
        prod = _ratio_product(Fraction(3, 4), w)
        assert prod <= Fraction(3, 5) < prod / (Fraction(3, 4) if w[-1] != 2 else Fraction(1, 2))


# --- subsystem alphabets ---------------------------------------------------


def test_subsystem_alphabet_m1():
    assert subsystem_alphabet(0.75, 1) == ((1,), (3,))


def test_subsystem_alphabet_m4():
    words = subsystem_alphabet(0.75, 4)
    assert len(words) == 32
    assert all(w.count(2) == 1 for w in words)


@pytest.mark.parametrize("m", range(1, 13))
def test_alphabet_size_matches_enumeration(m):
    # the alphabet is exactly the length-m words with floor(pm) symbols 2, in
    # lexicographic order, and has the closed-form size 2^(m-j) * C(m, j)
    a = Fraction(3, 4)
    j = math.floor(Fraction(2 * a - 1, 4 * a - 1) * m)
    alphabet = subsystem_alphabet(a, m)
    assert len(alphabet) == 2 ** (m - j) * math.comb(m, j)
    if m <= 9:
        assert alphabet == tuple(w for w in product((1, 2, 3), repeat=m) if w.count(2) == j)


def test_subsystem_alphabet_shared_ratio_magnitude():
    a = Fraction(3, 4)
    for m in (1, 2, 3, 4, 5, 6):
        words = subsystem_alphabet(a, m)
        j = words[0].count(2)
        expected = a ** (m - j) * (2 * a - 1) ** j
        for w in words:
            assert _ratio_product(a, w) == expected


def test_enumeration_budgets(monkeypatch):
    monkeypatch.setattr(words, "STOPPING_COVER_BUDGET", 50)
    with pytest.raises(BudgetError):
        stopping_cover(0.75, 0.01)


def _x_cylinder(word):
    """Closed x-interval coded by a word: symbol s is ternary digit s-1."""
    third = Fraction(1, 3)
    lo, width = fold_word((0, third, 2 * third), (third,) * 3, word)
    return lo, lo + width


def test_x_cylinder_convention():
    assert _x_cylinder(()) == (0, 1)
    assert _x_cylinder((1,)) == (0, Fraction(1, 3))
    assert _x_cylinder((2,)) == (Fraction(1, 3), Fraction(2, 3))
    assert _x_cylinder((3, 1)) == (Fraction(2, 3), Fraction(2, 3) + Fraction(1, 9))


@settings(max_examples=50)
@given(st.integers(0, 5))
def test_level_cylinders_tile_unit_interval(n):
    intervals = [_x_cylinder(w) for w in _enumerate_words(n)]
    assert intervals[0][0] == 0 and intervals[-1][1] == 1
    for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
        assert hi == lo
