import math
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okamoto import separation
from okamoto.errors import DepthCapError, ParameterError
from okamoto.separation import delta_n_detail, verify_sesc
from okamoto.systems import expand_level, projection_parts
from okamoto.words import digit_rows
from separation_oracle import conjugate_parts, delta_exhaustive
from word_oracle import project, word_tuples


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
    phi = conjugate_parts(b)
    for n in (2, 3, 4):
        direct = sorted(project(*phi, w) for w in product((1, 2, 3), repeat=n))
        appended = sorted(project(*phi, w + (2,)) for w in product((1, 2, 3), repeat=n))
        assert direct == appended


def test_a3_prefix_bound_chain():
    # |Pi(i|n) - Pi(j|n)| >= b^m |Pi(s^m i') - Pi(s^m j')| for A3 pairs with
    # common prefix length m, where i' = i|n . 2
    b = Fraction(1, 2)
    phi = conjugate_parts(b)
    pairs = [
        ((2, 1, 3, 3), (2, 3, 1, 1)),
        ((1, 1, 2, 3), (1, 3, 2, 3)),
        ((3, 2, 1, 1, 2), (3, 2, 3, 1, 2)),
    ]
    for i, j in pairs:
        m = next(k for k, (x, y) in enumerate(zip(i, j)) if x != y)  # common prefix length
        tail_i, tail_j = (i + (2,))[m:], (j + (2,))[m:]
        assert {tail_i[0], tail_j[0]} == {1, 3}  # an A3 pair: the tails start 1 and 3
        lhs = abs(project(*phi, i) - project(*phi, j))
        rhs = b**m * abs(project(*phi, tail_i) - project(*phi, tail_j))
        assert lhs >= rhs


# --- certificates ----------------------------------------------------------------


def test_verify_sesc_passes_at_two_fifths():
    report = verify_sesc(Fraction(2, 5), n_max=8)
    assert report.passed
    assert report.epsilon > 0
    assert report.witness is None
    assert len(report.gaps) == len(report.floors) == 8
    # normal float gaps take their roots as float(g) ** (1/n), bit for bit
    assert report.roots == tuple(float(g) ** (1.0 / n) for n, g in zip(report.depths, report.gaps))
    assert report.epsilon == min(report.roots)


@pytest.mark.parametrize("b", [Fraction(1, 3), Fraction(2, 5), Fraction(7, 11), Fraction(999, 1000)])
def test_gaps_lie_within_the_printing_bound(b):
    # the bound verify_sesc checks against the int-to-text limit before any gap
    report = verify_sesc(b, 9)
    for n, gap in zip(report.depths, report.gaps):
        assert 0 <= gap <= 1
        assert max(gap.numerator, gap.denominator) <= (2 * b.denominator) ** (n - 1)


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
    wi, wj = word_tuples(report.witness)
    assert wi != wj
    half = conjugate_parts(Fraction(1, 2))
    assert project(*half, wi) == project(*half, wj)
    for b in (Fraction(1, 3), Fraction(2, 5)):  # distinct projections away from the root
        phi = conjugate_parts(b)
        assert project(*phi, wi) != project(*phi, wj)


def test_delta_witness_words_realize_gap():
    b = Fraction(3, 5)
    phi = conjugate_parts(b)
    gap, pair = delta_n_detail(b, 4)
    assert pair.shape == (2, 4) and pair.dtype == np.uint8
    for gap, (wi, wj) in ((gap, word_tuples(pair)), delta_exhaustive(b, 4)):
        assert abs(project(*phi, wi) - project(*phi, wj)) == gap


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 12), st.integers(1, 11))
def test_pruned_matches_exhaustive_random_b(q, p):
    b = Fraction(p % (q - 1) + 1, q)
    for n in (2, 3):
        assert delta_n_detail(b, n)[0] == delta_exhaustive(b, n)[0]


def test_delta_on_object_integers_matches_exhaustive():
    # b = 999/1000 gives a = 1999/2000: depth 6 passes the int64 bound and runs on Python ints
    b = Fraction(999, 1000)
    assert expand_level(*projection_parts((1 + b) / 2), 6).t.dtype == object
    (gap, pair), (oracle_gap, oracle_pair) = delta_n_detail(b, 6), delta_exhaustive(b, 6)
    assert gap == oracle_gap and set(word_tuples(pair)) == set(oracle_pair)  # the oracle orders the pair lexicographically


def _stable_sort_detail(b, n):
    """The gap and witness as a stable argsort of the projections gives them: the rule delta_n_detail keeps."""
    level = expand_level(*projection_parts((1 + b) / 2), n)
    values = 2 * level.t + level.r
    order = np.argsort(values, kind="stable")
    diffs = np.diff(values[order])
    i = int(np.argmin(diffs))
    return Fraction(2 * int(diffs[i]), level.unit * (1 - b)), digit_rows(order[i : i + 2], n) + 1


# every p/q with q <= 13 to depth 9 (53 zero gaps among them), and b = 999/1000 to depth 6 on Python ints
_TIE_BREAK_CASES = [(Fraction(p, q), 9) for q in range(2, 14) for p in range(1, q) if math.gcd(p, q) == 1]
_TIE_BREAK_CASES.append((Fraction(999, 1000), 6))


def _one_pass_details(b, n_max, monkeypatch):
    """verify_sesc's report and the (gap, pair) of each of its delta_n_detail calls, in depth order."""
    details = []
    detail = separation.delta_n_detail

    def spy(b, n, **kwargs):
        details.append(detail(b, n, **kwargs))
        return details[-1]

    with monkeypatch.context() as patch:
        patch.setattr(separation, "delta_n_detail", spy)
        report = verify_sesc(b, n_max)
    return report, details


@pytest.mark.parametrize("b, n_max", _TIE_BREAK_CASES, ids=str)
def test_witness_is_the_stably_sorted_pair(b, n_max, monkeypatch):
    # the plain sort's word-order scans pick the pair a stable sort places at the first minimal gap,
    # and verify_sesc's one kernel pass gives every depth what a call alone gives
    report, details = _one_pass_details(b, n_max, monkeypatch)
    assert report.gaps == tuple(gap for gap, _ in details) and len(details) == n_max
    for n, (gap, pair) in enumerate(details, start=1):
        alone_gap, alone_pair = delta_n_detail(b, n)
        expected_gap, expected_pair = _stable_sort_detail(b, n)
        assert gap == alone_gap == expected_gap
        assert np.array_equal(pair, alone_pair) and np.array_equal(pair, expected_pair)
    first_zero = next((pair for gap, pair in details if gap == 0), None)
    assert (report.witness is None) == (first_zero is None)
    assert first_zero is None or np.array_equal(report.witness, first_zero)


def test_shallow_int64_depths_run_on_the_deepest_kind(monkeypatch):
    # depths 1 and 2 alone run on int64, but depth 3's integers pass 2^63: the one pass
    # must take the kind of depth 3 for every depth, though its kernel stops at depth 2
    b = Fraction(12345678, 100000001)
    parts = projection_parts((1 + b) / 2)
    assert [expand_level(*parts, n).t.dtype for n in (1, 2, 3)] == [np.int64, np.int64, object]
    deepest = expand_level(*parts, 3)
    assert max(abs(2 * t + r) for t, r in zip(deepest.t.tolist(), deepest.r.tolist())) >= 2**63
    report, details = _one_pass_details(b, 3, monkeypatch)
    for n, (gap, pair) in enumerate(details, start=1):
        expected_gap, expected_pair = _stable_sort_detail(b, n)
        assert gap == report.gaps[n - 1] == delta_exhaustive(b, n)[0] == delta_n_detail(b, n)[0] == expected_gap
        assert np.array_equal(pair, expected_pair)


def test_one_kernel_pass_of_depth_n_max_minus_one(monkeypatch):
    calls = []
    levels = separation._levels

    def spy(d, tau, rho, n, *args):
        calls.append(n)
        return levels(d, tau, rho, n, *args)

    monkeypatch.setattr(separation, "_levels", spy)
    report = verify_sesc(Fraction(2, 5), 11)
    assert calls == [10] and report.passed


@pytest.mark.parametrize("b, n_max", [
    (Fraction(2, 5), 8), (Fraction(12345678, 100000001), 3), (Fraction(999, 1000), 6),
], ids=["int64", "int64-then-object", "object"])
def test_each_depth_integers_are_two_t_plus_r_of_its_level(b, n_max):
    # the children pass of the depth-(n-1) maps on the points 2 tau_s + rho_s gives depth n's 2t + r, over d^n,
    # and a lone delta_n_detail, which runs the pass to depth n, finds the gap and pair the pass's depth gives
    parts = projection_parts((1 + b) / 2)
    for n, (values, unit) in enumerate(separation._projections(b, n_max), start=1):
        level = expand_level(*parts, n)
        expected = [2 * t + r for t, r in zip(level.t.tolist(), level.r.tolist())]
        assert unit == level.unit and values.tolist() == expected
        (gap, pair), (alone_gap, alone_pair) = delta_n_detail(b, n, projections=(values, unit)), delta_n_detail(b, n)
        assert gap == alone_gap and np.array_equal(pair, alone_pair)


def test_one_pass_never_builds_the_deepest_maps():
    # expanding depth 11 holds its t and r (3^11 int64 each) beside the sort, 6.93 MiB traced;
    # the one pass forms the depth-11 integers from the depth-10 maps, 5.13 MiB; 5.28 MiB while the
    # kernel still held depth 9's d t through the last sort, and 5.73 MiB while it held the 2d t of depth 10
    size = 3**11 * 8
    verify_sesc(Fraction(2, 5), 11)  # first-call allocations (imports, caches) stay out of the peak
    tracemalloc.start()
    try:
        verify_sesc(Fraction(2, 5), 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.85 * size


def test_witness_of_a_threefold_tie_is_its_first_two_words(monkeypatch):
    # no p/q above ties three words at a first zero gap; crafted projections pin the rule there
    t = np.array([3, 0, 3, 3, 7])
    # depth 1's values first: a lone call takes the last item the pass yields
    monkeypatch.setattr(separation, "_projections", lambda b, n: iter([(np.array([0, 2, 4]), 1), (2 * t, 1)]))
    gap, pair = delta_n_detail(Fraction(1, 3), 2)
    assert np.argsort(2 * t, kind="stable")[1:3].tolist() == [0, 2]
    assert gap == 0 and np.array_equal(pair, digit_rows([0, 2], 2) + 1)
