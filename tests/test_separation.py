from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okamoto.errors import DepthCapError, ParameterError
from okamoto.separation import delta_n_detail, verify_sesc
from okamoto.systems import build_system, fold_word
from separation_oracle import delta_exhaustive


def _project(system, word):
    return fold_word(*system.parts(), word)[0]


# --- minimal gaps ---------------------------------------------------------------


def test_delta_1_is_one_for_any_b():
    for b in (Fraction(1, 5), Fraction(1, 2), Fraction(7, 9)):
        assert delta_n_detail(b, 1)[0] == 1
        assert delta_exhaustive(b, 1)[0] == 1


def test_delta_2_half_oracle():
    # nine exact depth-2 values at b=1/2: {-7/4,-1,-1/4,1/2,0,-1/2,1/4,1,7/4};
    # sorted adjacent differences bottom out at 1/4
    assert delta_n_detail(Fraction(1, 2), 2)[0] == Fraction(1, 4)
    assert delta_exhaustive(Fraction(1, 2), 2)[0] == Fraction(1, 4)


@pytest.mark.parametrize("b", [Fraction(1, 3), Fraction(1, 2), Fraction(3, 5)])
def test_pruned_equals_exhaustive_small(b):
    for n in range(1, 7):
        assert delta_n_detail(b, n)[0] == delta_exhaustive(b, n)[0]


def test_gaps_non_increasing():
    report = verify_sesc(Fraction(1, 2), n_max=8)
    for g1, g2 in zip(report.gaps, report.gaps[1:]):
        assert g2 <= g1


def test_delta_rejects_float_and_bad_depth():
    with pytest.raises(ParameterError):
        delta_n_detail(0.5, 3)
    with pytest.raises(ParameterError):
        delta_n_detail(Fraction(1, 2), 0)
    with pytest.raises(DepthCapError):
        delta_n_detail(Fraction(1, 2), 13)


def test_appended_two_invariance_of_gap():
    # projecting w.2 equals projecting w, so the depth-(n+1) value multiset
    # restricted to appended-2 words reproduces the depth-n gaps exactly
    b = Fraction(2, 5)
    sys_b = build_system("conjugate", b)
    for n in (2, 3, 4):
        direct = sorted(_project(sys_b, w) for w in product((1, 2, 3), repeat=n))
        appended = sorted(_project(sys_b, w + (2,)) for w in product((1, 2, 3), repeat=n))
        assert direct == appended


def test_a3_prefix_bound_chain():
    # |Pi(i|n) - Pi(j|n)| >= b^m |Pi(s^m i') - Pi(s^m j')| for A3 pairs with
    # common prefix length m, where i' = i|n . 2
    b = Fraction(1, 2)
    sys_b = build_system("conjugate", b)
    pairs = [
        ((2, 1, 3, 3), (2, 3, 1, 1)),
        ((1, 1, 2, 3), (1, 3, 2, 3)),
        ((3, 2, 1, 1, 2), (3, 2, 3, 1, 2)),
    ]
    for i, j in pairs:
        m = next(k for k, (x, y) in enumerate(zip(i, j)) if x != y)  # common prefix length
        tail_i, tail_j = (i + (2,))[m:], (j + (2,))[m:]
        assert {tail_i[0], tail_j[0]} == {1, 3}  # an A3 pair: the tails start 1 and 3
        lhs = abs(_project(sys_b, i) - _project(sys_b, j))
        rhs = b**m * abs(_project(sys_b, tail_i) - _project(sys_b, tail_j))
        assert lhs >= rhs


# --- certificates ----------------------------------------------------------------


def test_verify_sesc_passes_at_two_fifths():
    report = verify_sesc(Fraction(2, 5), n_max=8)
    assert report.passed
    assert report.epsilon > 0
    assert report.witness is None
    assert len(report.gaps) == len(report.floors) == 8
    for n, g in zip(report.depths, report.gaps):
        assert float(g) ** (1.0 / n) >= report.epsilon - 1e-12
    rows = report.rows()
    assert rows[0]["n"] == 1 and rows[0]["gap"] == 1


def test_verify_sesc_floor_column_below_gaps():
    report = verify_sesc(Fraction(2, 5), n_max=8)
    for g, f in zip(report.gaps, report.floors):
        assert float(g) > f


def test_verify_sesc_detects_coincidence_at_half():
    # the words 132 and 221 project identically exactly at b = 1/2: their
    # projection difference is the polynomial b^2 + b/2 - 1/2 = (2b-1)(b+1)/2
    report = verify_sesc(Fraction(1, 2), n_max=4)
    assert not report.passed
    assert report.epsilon == 0.0
    assert report.witness is not None
    wi, wj = report.witness
    assert wi != wj
    half = build_system("conjugate", Fraction(1, 2))
    assert _project(half, wi) == _project(half, wj)
    for b in (Fraction(1, 3), Fraction(2, 5)):  # distinct projections away from the root
        sys_b = build_system("conjugate", b)
        assert _project(sys_b, wi) != _project(sys_b, wj)


def test_delta_witness_words_realize_gap():
    b = Fraction(3, 5)
    sys_b = build_system("conjugate", b)
    for gap, (wi, wj) in (delta_n_detail(b, 4), delta_exhaustive(b, 4)):
        assert abs(_project(sys_b, wi) - _project(sys_b, wj)) == gap


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 12), st.integers(1, 11))
def test_pruned_matches_exhaustive_random_b(q, p):
    b = Fraction(p % (q - 1) + 1, q)
    for n in (2, 3):
        assert delta_n_detail(b, n)[0] == delta_exhaustive(b, n)[0]
