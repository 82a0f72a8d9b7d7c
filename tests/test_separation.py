from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okamoto.errors import DepthCapError, ParameterError
from okamoto.separation import (
    classify_pair,
    delta_n,
    delta_n_detail,
    f_function,
    f_value,
    verify_sesc,
)
from okamoto.systems import build_system, project_word
from okamoto.words import common_prefix, enumerate_words, shift
from separation_oracle import delta_exhaustive


def test_classify_pair_all_head_combinations():
    def tags(i1, j1):
        return classify_pair((i1, 2), (j1, 2))

    assert tags(1, 3) == frozenset({"A2", "A3"})
    assert tags(3, 1) == frozenset({"A1", "A3"})
    assert tags(2, 2) == frozenset({"A1", "A2"})
    for i1 in (1, 2, 3):
        for j1 in (1, 2, 3):
            t = tags(i1, j1)
            assert ("A3" in t) == ((i1, j1) in ((1, 3), (3, 1)))
            assert ("A1" in t) == ((i1, j1) != (1, 3))
            assert ("A2" in t) == ((i1, j1) != (3, 1))


def test_classify_pair_rejects_empty():
    with pytest.raises(ValueError):
        classify_pair((), (1,))


def test_f3_antisymmetric_and_single_letters():
    b = Fraction(2, 5)
    assert f_function(3, (3,), (1,), b) == 2
    for i, j in [((1, 2), (3, 1)), ((2,), (2, 3))]:
        assert f_function(3, i, j, b) == -f_function(3, j, i, b)


def test_f2_example():
    assert f_function(2, (1,), (1,), Fraction(1, 2)) == Fraction(-1, 4)


def test_f1_overlap_identity_at_periodic_limits():
    # Pi(1^inf) and Pi(3^inf) are the extreme fixed points; F^1 vanishes there.
    for b in (Fraction(1, 3), Fraction(1, 2), Fraction(5, 7)):
        sys_b = build_system("conjugate", b)
        pi_1 = sys_b.maps[0].fixed_point()
        pi_3 = sys_b.maps[2].fixed_point()
        assert pi_3 == 2 / (1 - b) == -pi_1
        assert f_value(1, pi_1, pi_3, b) == 0


def test_f1_tends_to_zero_along_finite_truncations():
    # |F^1(1^n, 3^n)| works out to ((1+b)/2)^n exactly
    b = Fraction(1, 2)
    vals = [abs(f_function(1, (1,) * n, (3,) * n, b)) for n in (2, 4, 8, 16)]
    assert all(u > v for u, v in zip(vals, vals[1:]))
    assert vals[-1] == Fraction(3, 4) ** 16


def test_f_function_invalid_k():
    with pytest.raises(ValueError):
        f_function(4, (1,), (2,), Fraction(1, 2))


# --- minimal gaps ---------------------------------------------------------------


def test_delta_1_is_one_for_any_b():
    for b in (Fraction(1, 5), Fraction(1, 2), Fraction(7, 9)):
        assert delta_n(b, 1) == 1
        assert delta_exhaustive(b, 1)[0] == 1


def test_delta_2_half_oracle():
    # nine exact depth-2 values at b=1/2: {-7/4,-1,-1/4,1/2,0,-1/2,1/4,1,7/4};
    # sorted adjacent differences bottom out at 1/4
    assert delta_n(Fraction(1, 2), 2) == Fraction(1, 4)
    assert delta_exhaustive(Fraction(1, 2), 2)[0] == Fraction(1, 4)


@pytest.mark.parametrize("b", [Fraction(1, 3), Fraction(1, 2), Fraction(3, 5)])
def test_pruned_equals_exhaustive_small(b):
    for n in range(1, 7):
        assert delta_n(b, n) == delta_exhaustive(b, n)[0]


def test_gaps_non_increasing():
    report = verify_sesc(Fraction(1, 2), n_max=8)
    for g1, g2 in zip(report.gaps, report.gaps[1:]):
        assert g2 <= g1


def test_delta_rejects_float_and_bad_depth():
    with pytest.raises(ParameterError):
        delta_n(0.5, 3)
    with pytest.raises(ParameterError):
        delta_n(Fraction(1, 2), 0)
    with pytest.raises(DepthCapError):
        delta_n(Fraction(1, 2), 13)


def test_appended_two_invariance_of_gap():
    # projecting w.2 equals projecting w, so the depth-(n+1) value multiset
    # restricted to appended-2 words reproduces the depth-n gaps exactly
    b = Fraction(2, 5)
    sys_b = build_system("conjugate", b)
    for n in (2, 3, 4):
        direct = sorted(project_word(sys_b, w) for w in enumerate_words(n))
        appended = sorted(project_word(sys_b, w + (2,)) for w in enumerate_words(n))
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
        _, m = common_prefix(i, j)
        tail_i, tail_j = shift(i + (2,), m), shift(j + (2,), m)
        assert classify_pair(tail_i, tail_j) >= {"A3"}
        lhs = abs(project_word(sys_b, i) - project_word(sys_b, j))
        rhs = b**m * abs(project_word(sys_b, tail_i) - project_word(sys_b, tail_j))
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
    from okamoto.systems import pi_polynomial

    report = verify_sesc(Fraction(1, 2), n_max=4)
    assert not report.passed
    assert report.epsilon == 0.0
    assert report.witness is not None
    wi, wj = report.witness
    diff = [
        x - y
        for x, y in zip(
            list(pi_polynomial(wi).coefficients) + [Fraction(0)] * 4,
            list(pi_polynomial(wj).coefficients) + [Fraction(0)] * 4,
        )
    ]
    value = sum(c * Fraction(1, 2) ** k for k, c in enumerate(diff))
    assert value == 0
    assert any(c != 0 for c in diff)  # distinct words, genuinely coincident only at roots


def test_delta_witness_words_realize_gap():
    b = Fraction(3, 5)
    sys_b = build_system("conjugate", b)
    for gap, (wi, wj) in (delta_n_detail(b, 4), delta_exhaustive(b, 4)):
        assert abs(project_word(sys_b, wi) - project_word(sys_b, wj)) == gap


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 12), st.integers(1, 11))
def test_pruned_matches_exhaustive_random_b(q, p):
    b = Fraction(p % (q - 1) + 1, q)
    for n in (2, 3):
        assert delta_n(b, n) == delta_exhaustive(b, n)[0]
