import io
import json
import math
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from okamoto import estimators
from okamoto.cli import run
from okamoto.dimensions import natural_weights, okamoto_s0
from okamoto.errors import BudgetError, DepthCapError, OkamotoError, ParameterError
from okamoto.estimators import (
    COVER_BYTE_BUDGET,
    GRID_CHUNK_BYTES,
    LEVEL_SWEEP_DEPTH,
    SAMPLE_BLOCK,
    SAMPLE_CHUNK,
    LevelSetCover,
    MeasureSample,
    _alias_draw,
    _alias_table,
    _ball_counts,
    _block_table,
    _level_counts,
    _split_counts,
    _suffix_depth,
    box_count_graph,
    box_count_series,
    fit_dimension,
    fourier_decay_fit,
    fourier_estimate,
    ks_statistic,
    level_set_cover,
    level_set_scan,
    level_statistics,
    local_dimension_slopes,
    sample_measure,
)
from okamoto.subsystem import build_subsystem, sample_subsystem_measure
from okamoto.systems import Level, expand_level, fold_word, projection_parts
from graph_oracle import box_count_grid_sorted
from measure_oracle import sample_per_symbol
from word_oracle import exhaustive_level_filter, prefix_level_filter, word_tuples


def test_box_count_column_depth1():
    # beta values (0.75, 0.5, 0.75) against delta=1/3: ceil(2.25)+ceil(1.5)+ceil(2.25)
    assert box_count_graph(0.75, 1, "column") == 8
    # (2a - 1) * 3 at a = 0.8333333333333334 is 2 + 2^-52 exactly but 2.0 in floats,
    # so the middle column needs three boxes, as the outer two do
    assert box_count_graph(0.8333333333333334, 1, "column") == 9


def _column_closed_form(a, n):
    """sum over the number j of 2s of C(n, j) 2^(n-j) max(1, ceil(a^(n-j) (2a-1)^j 3^n)), for a Fraction a."""
    return sum(
        math.comb(n, j) * 2 ** (n - j) * max(1, math.ceil(a ** (n - j) * (2 * a - 1) ** j * 3**n)) for j in range(n + 1)
    )


@pytest.mark.parametrize("af", [0.8333333333333334, 0.75, 0.6, 0.9, 2 / 3, 0.55, 0.7071067811865476])
def test_column_count_is_exact_at_the_float_input(af):
    # a float a stands for the rational Fraction(af); its count is the exact count there
    for n in range(1, 21):
        exact = Fraction(af)
        assert box_count_graph(af, n, "column") == box_count_graph(exact, n, "column") == _column_closed_form(exact, n)


def test_box_count_depth0():
    assert box_count_graph(0.75, 0, "column") == 1
    assert box_count_graph(0.75, 0, "grid") == 1


def test_box_count_errors():
    with pytest.raises(ParameterError):
        box_count_graph(0.4, 3)
    with pytest.raises(DepthCapError):
        box_count_graph(0.75, 21, "column")
    with pytest.raises(DepthCapError):
        box_count_graph(0.75, 15, "grid")
    with pytest.raises(ParameterError):
        box_count_graph(0.75, 3, "voxel")


@pytest.mark.parametrize("a", [0.6, 0.75, 0.9])
def test_grid_never_exceeds_column(a):
    for n in range(1, 8):
        assert box_count_graph(a, n, "grid") <= box_count_graph(a, n, "column")


@pytest.mark.parametrize("a", [0.51, 0.55, 0.6, 2 / 3, 0.75, 0.9, 0.99])
def test_grid_count_equals_sorted_oracle(a):
    for n in range(1, 11):
        assert box_count_graph(a, n, "grid") == box_count_grid_sorted(a, n)


def test_grid_count_equals_sorted_oracle_over_many_row_chunks():
    assert 3**12 > 4 * GRID_CHUNK_BYTES // 8
    assert box_count_graph(0.75, 12, "grid") == box_count_grid_sorted(0.75, 12)


def test_grid_counts_of_the_cover_workload():
    assert [box_count_graph(0.6, n, "grid") for n in (7, 8, 9)] == [21611, 92929, 376675]


@pytest.mark.parametrize("method", ["column", "grid"])
def test_box_counts_strictly_increasing(method):
    counts = [box_count_graph(0.75, n, method) for n in range(0, 8)]
    assert all(u < v for u, v in zip(counts, counts[1:]))


def test_column_slope_tracks_s0():
    for a in (0.6, 0.75):
        series = box_count_series(a, range(6, 13), "column")
        assert abs(series.fitted_slope - okamoto_s0(a)) < 0.05
        assert 1.0 <= series.fitted_slope <= 2.0


def test_fit_dimension_exact_power_laws():
    slope, residual = fit_dimension([(n, 9**n) for n in range(1, 6)])
    assert abs(slope - 2.0) < 1e-12 and residual < 1e-12
    slope, _ = fit_dimension([(n, 3**n) for n in range(1, 6)])
    assert abs(slope - 1.0) < 1e-12


def test_fit_dimension_needs_three_rows():
    with pytest.raises(ParameterError):
        fit_dimension([(1, 3), (2, 9)])


# --- level sets ------------------------------------------------------------------


def test_level_set_zero_and_one():
    for n in (1, 2, 4, 8, 12):
        assert word_tuples(level_set_cover(Fraction(3, 4), Fraction(0), n).level.symbols()) == ((1,) * n,)
        assert word_tuples(level_set_cover(Fraction(3, 4), Fraction(1), n).level.symbols()) == ((3,) * n,)


def test_level_set_half_frozen_counts():
    # hand enumeration at a=3/4: all three depth-1 intervals contain 1/2, and
    # every depth-2 interval still touches it (1/2 is the fixed point of S_2)
    assert level_set_cover(Fraction(3, 4), Fraction(1, 2), 1).count == 3
    assert level_set_cover(Fraction(3, 4), Fraction(1, 2), 2).count == 9
    assert level_set_cover(0.75, 0.5, 1).count == 3
    assert level_set_cover(0.75, 0.5, 2).count == 9


# 0, 1, 1/4 and 3/4 are interval ends at a = 3/4 (S_1(1) = S_3(0) = 3/4, S_2(1) = 1/4),
# where floor and ceil of the level in kernel units coincide
@pytest.mark.parametrize(
    "y", [Fraction(1, 3), Fraction(1, 2), Fraction(7, 10), Fraction(0), Fraction(1), Fraction(1, 4), Fraction(3, 4)]
)
def test_level_set_cover_matches_exhaustive_filter(y):
    a = Fraction(3, 4)
    for n in range(1, 7):
        assert word_tuples(level_set_cover(a, y, n).level.symbols()) == exhaustive_level_filter(a, y, n)


def test_level_set_float_count_matches_exact():
    a = Fraction(3, 4)
    for y in (Fraction(1, 3), Fraction(2, 7), Fraction(7, 10)):
        for n in (3, 6, 9):
            cover = level_set_cover(0.75, float(y), n)
            assert cover.count == level_set_cover(a, y, n).count == len(cover.level.symbols())


@settings(max_examples=60, deadline=None)
@given(st.floats(0.5, 1, exclude_min=True, exclude_max=True), st.floats(0, 1), st.integers(1, 7))
@example(0.75, 1 / 3, 7)
@example(0.5000000000000001, 0.5, 7)
@example(0.9999999999999999, 0.5, 7)
def test_float_cover_is_the_prefix_filter(a, y, n):
    # the float kernel's min/max predicate keeps the words whose every prefix's
    # fl(t + r) interval holds y, word for word, also at the ends 0, 1, 1 - a and a
    for level in (y, 0.0, 1.0, 1 - a, a):
        assert word_tuples(level_set_cover(a, level, n).level.symbols()) == prefix_level_filter(a, level, n)


@pytest.mark.parametrize("a", [Fraction(943, 944), Fraction(944, 945)])  # int64 and Python ints, see test_int64_bound_sides
@settings(max_examples=15, deadline=None)
@given(y=st.fractions(0, 1, max_denominator=10**6))
def test_integer_cover_is_the_prefix_filter(a, y):
    for level in (y, Fraction(0), Fraction(1), 1 - a, a):
        assert word_tuples(level_set_cover(a, level, 6).level.symbols()) == prefix_level_filter(a, level, 6)


def test_float_cover_totals_of_the_cover_workload():
    # word totals of the cover workload's three float batches (the depth-14 one
    # split, the depth-12 ones swept), pinned so a kernel rewrite cannot move
    # them unnoticed; they equal the per-level float covers, which are not yet
    # the exact cover at the float input, and the ROADMAP item that makes it so
    # will change these totals on purpose
    for seed, a, count, n, total in ((5, 0.75, 250, 14, 4157492), (6, 0.9, 40, 12, 4239142), (7, 0.75, 100, 12, 422984)):
        stats = level_statistics(a, np.random.default_rng(seed).random(count), n)
        assert int(np.rint(3.0 ** (n * stats.estimates)).sum()) == total


def test_level_set_dim_estimate_capped():
    for y in (0.0, 0.31, 0.5, 0.77):
        cover = level_set_cover(0.75, y, 8)
        assert 0.0 <= cover.dim_estimate <= 1.0


def test_level_set_weighted_sum_stays_bounded():
    # N_n * (3^-n)^t stays bounded in n for t above the level-set bound s0 - 1
    a = 0.75
    t = okamoto_s0(a) - 1.0 + 0.05
    for y in (0.3, 0.52, 0.71):
        sums = [level_set_cover(a, y, n).count * (3.0**-n) ** t for n in range(4, 13)]
        assert max(sums) <= 2.0 * sums[0]


def test_level_set_domain_errors():
    with pytest.raises(ParameterError):
        level_set_cover(0.75, 1.5, 4)
    with pytest.raises(DepthCapError):
        level_set_cover(0.75, 0.5, 25)
    with pytest.raises(ParameterError):
        level_set_cover(0.3, 0.5, 4)


def test_level_set_scan_forced_levels_and_reproducibility():
    # given levels go through level_statistics, the estimator the scan draws its levels for
    forced = level_statistics(0.75, [0.0, 0.5, 0.25], 10)
    assert forced.estimates[0] == 0.0  # y=0 is the singleton level set
    s1 = level_set_scan(0.75, 50, 10, seed=11)
    s2 = level_set_scan(0.75, 50, 10, seed=11)
    assert np.array_equal(s1.ys, s2.ys) and np.array_equal(s1.estimates, s2.estimates)
    assert np.array_equal(s1.estimates, level_statistics(0.75, s1.ys, 10).estimates)
    with pytest.raises(TypeError):
        level_set_scan(0.75, 50, 10)  # the seed is required
    with pytest.raises(ParameterError):
        level_set_scan(0.75, 50, 10, None)  # and may not be None


def test_level_statistics_reject_levels_outside_the_unit_interval():
    with pytest.raises(ParameterError):
        level_statistics(0.75, [1.5], 10)
    with pytest.raises(ParameterError):
        level_statistics(0.75, [0.5, -0.25], 10)


def test_level_statistics_reject_an_empty_level_list():
    with pytest.raises(ParameterError):
        level_statistics(0.75, [], 10)
    with pytest.raises(ParameterError):
        level_set_scan(0.75, 0, 10, seed=1)


def test_empty_cover_is_an_error_not_an_estimate():
    # every level in [0, 1] is hit, so no level kernel output is empty; build one by hand
    empty = LevelSetCover(a=0.75, y=0.5, depth=3, level=Level(np.zeros(0), np.zeros(0), None))
    assert empty.count == 0
    with pytest.raises(OkamotoError, match="empty"):
        empty.dim_estimate


def test_level_statistics_match_the_covers():
    ys = [0.0, 0.2, 0.5, 0.81, 1.0]
    stats = level_statistics(Fraction(3, 4), ys, 9)  # rational a still runs on float64
    expected = [level_set_cover(0.75, y, 9).dim_estimate for y in ys]
    assert stats.estimates.tolist() == expected
    assert stats.median == float(np.median(expected))
    assert stats.quantiles["q50"] == stats.median


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([Fraction(3, 4), Fraction(2, 3), Fraction(7, 9)]), st.integers(1, 10), st.data())
def test_sweep_counts_equal_the_rational_covers(a, n, data):
    # on exact integers a word's own interval holds y exactly when every prefix's does;
    # a sweep depth of 1-4 splits every depth above it into a prefix cover and the sorted suffix level
    special = st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 3), Fraction(1, 2), 1 - a, a])
    ys = data.draw(st.lists(special | st.integers(0, 97).map(lambda k: Fraction(k, 97)), min_size=1, max_size=6))
    q = data.draw(st.integers(1, 4) | st.just(LEVEL_SWEEP_DEPTH))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "LEVEL_SWEEP_DEPTH", q)
        assert _level_counts(a, ys, n) == [level_set_cover(a, y, n).count for y in ys]


@pytest.mark.parametrize("a", [Fraction(943, 944), Fraction(944, 945)])  # int64 and Python-int kernels
@settings(max_examples=15, deadline=None)
@given(y=st.fractions(0, 1, max_denominator=10**6), q=st.integers(1, 5))
def test_split_counts_of_large_products_equal_the_rational_covers(a, y, q):
    # z_u * d^q overflows int64 here, whichever kernel the prefixes ran on
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "LEVEL_SWEEP_DEPTH", q)
        ys = [y, Fraction(0), Fraction(1), 1 - a, a]
        assert _level_counts(a, ys, 6) == [level_set_cover(a, level, 6).count for level in ys]


@settings(max_examples=40, deadline=None)
@given(st.floats(0.5, 1, exclude_min=True, exclude_max=True), st.integers(1, 9), st.data())
def test_sweep_counts_hold_the_float_covers(a, n, data):
    # levels at the rounded interval ends of depths 1..n, where rounding decides, and uniform levels
    m = data.draw(st.integers(1, n))
    level = expand_level(*projection_parts(a), m)
    i = data.draw(st.integers(0, 3**m - 1))
    ends = (level.t[i], level.t[i] + level.r[i])
    ys = [float(e) for e in ends if 0 <= e <= 1] + [data.draw(st.floats(0, 1))]
    counts = _level_counts(a, ys, n)
    assert all(c >= level_set_cover(a, y, n).count for c, y in zip(counts, ys))
    if n <= 6:  # the sweep keeps exactly the words whose own rounded interval holds y
        assert counts == [len(exhaustive_level_filter(a, y, n)) for y in ys]


def test_float_sweep_can_count_more_than_the_float_cover():
    # a rounded depth-3 interval end at a = 0.9: six words' own intervals hold it,
    # and branch and bound drops one of them at a prefix whose rounded interval misses it
    y = 0.9000000000000001
    assert _level_counts(0.9, [y], 3) == [6]
    assert level_set_cover(0.9, y, 3).count == 5
    assert len(exhaustive_level_filter(0.9, y, 3)) == 6


@pytest.mark.parametrize("a, count", [(0.9, 40), (0.75, 100)])  # the cover workload's depth-12 batches
def test_level_statistics_of_the_swept_depths_are_the_covers(a, count):
    assert LEVEL_SWEEP_DEPTH == 12
    for seed in range(1, 6):
        ys = np.random.default_rng(seed).random(count)
        expected = np.array([level_set_cover(a, y, 12).dim_estimate for y in ys])
        assert np.array_equal(level_statistics(a, ys, 12).estimates, expected)


@pytest.mark.parametrize("batch", ["scan", "slices"])  # the cover workload's depth-14 batches
def test_level_statistics_of_the_split_depths_are_the_covers(batch):
    for seed in range(1, 6):
        if batch == "scan":
            ys = np.random.default_rng(seed).random(250)
        else:
            ys = sample_subsystem_measure(0.75, 8, 100, seed)
            ys = ys[(ys > 0.0) & (ys < 1.0)]  # as slice_lower_bound_report keeps them
        expected = np.array([level_set_cover(0.75, y, 14).dim_estimate for y in ys])
        assert np.array_equal(level_statistics(0.75, ys, 14).estimates, expected)


def test_float_split_can_count_fewer_or_more_than_the_float_cover(monkeypatch):
    # rounded depth-3 interval ends at a = 0.55, split after a depth-2 prefix: the
    # split is neither a subset nor a superset of the float cover, here equal to the
    # exact count at the float inputs each time, while the unsplit sweep is a superset
    cases = ((0.27225, 3, 5), (0.2475, 3, 2))  # (y, split, float cover)
    for y, split, cover in cases:
        assert level_set_cover(0.55, y, 3).count == cover
        assert level_set_cover(Fraction(0.55), Fraction(y), 3).count == split
        assert _level_counts(0.55, [y], 3)[0] >= cover
    monkeypatch.setattr(estimators, "LEVEL_SWEEP_DEPTH", 1)
    assert _level_counts(0.55, [y for y, _, _ in cases], 3) == [split for _, split, _ in cases]


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_float_split_clamps_z_to_the_unit_interval(monkeypatch, q):
    # y = 0.4 = 1 - a exactly, an end of the depth-1 interval of symbol 3: a prefix's
    # rounded z lands just outside [0, 1] and, unclamped, misses the suffix ends 0 and 1
    monkeypatch.setattr(estimators, "LEVEL_SWEEP_DEPTH", q)
    assert 1 - 0.6 == 0.4
    assert _level_counts(0.6, [0.4], 6) == [level_set_cover(0.6, 0.4, 6).count]
    assert level_set_cover(Fraction(0.6), Fraction(0.4), 6).count == 7


@pytest.mark.parametrize("n", [5, 12, 13, 14, 16, 24])
def test_split_builds_one_suffix_level_and_shallow_prefixes(monkeypatch, n):
    # one unpruned suffix level at the rule's depth q (3 levels at a = 0.75: the smallest q
    # with 3^q >= 3 * 2^(n-q) past depth 12), then one batched prefix expansion of all levels,
    # of depth 0 up to depth 12, where each level keeps its identity root and the split is the sweep
    q = {5: 5, 12: 12, 13: 6, 14: 7, 16: 7, 24: 10}[n]
    calls = []

    def spy(tau, rho, depth, keep=None, roots=1):
        calls.append((depth, keep is None, roots))
        return expand_level(tau, rho, depth, keep, roots)

    monkeypatch.setattr(estimators, "expand_level", spy)
    monkeypatch.setattr(estimators, "SPLIT_FRONTIER_CAP", 3**20)  # one chunk
    ys = np.random.default_rng(n).random(3)
    level_statistics(0.75, ys, n)
    assert _suffix_depth(0.75, len(ys), n) == q
    assert calls == [(q, True, 1), (n - q, False, len(ys))]


@pytest.mark.parametrize("a, levels, n, q", [
    (0.75, 250, 14, 9), (0.75, 250, 24, 12), (0.75, 10**4, 13, 11), (0.95, 25000, 13, 12), (0.55, 3, 20, 4),
    (Fraction(3, 4), 3, 13, 6), (0.9, 10**5, 12, 12), (0.9, 1, 3, 3),
    (Fraction(5, 8), 192, 13, 7),  # 3^7 = 192 (3/2)^6 exactly: equality is enough
])
def test_suffix_depth_balances_the_sorted_level_against_the_prefix_covers(a, levels, n, q):
    # past depth 12: the smallest q >= 1 with 3^q >= levels * (4a-1)^(n-q), at most 12; else n itself
    assert _suffix_depth(a, levels, n) == q
    if n > LEVEL_SWEEP_DEPTH and q < LEVEL_SWEEP_DEPTH:
        assert 3**q >= levels * (4 * a - 1) ** (n - q) and (q == 1 or 3 ** (q - 1) < levels * (4 * a - 1) ** (n - q + 1))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([Fraction(3, 4), Fraction(2, 3), Fraction(7, 9)]), st.integers(1, 8), st.data())
def test_split_counts_equal_the_rational_covers_at_every_suffix_depth(a, n, data):
    special = st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 3), Fraction(1, 2), 1 - a, a])
    ys = data.draw(st.lists(special | st.integers(0, 97).map(lambda k: Fraction(k, 97)), min_size=1, max_size=6))
    covers = [level_set_cover(a, y, n).count for y in ys]
    for q in range(1, n + 1):
        assert _split_counts(a, ys, n, q) == covers


@pytest.mark.parametrize("a", [Fraction(3, 4), Fraction(944, 945)])  # int64 and Python-int bounds
@pytest.mark.parametrize("q", [1, 3, 6])
def test_split_counts_do_not_depend_on_the_order_of_the_levels(a, q):
    # the searches run on sorted keys and scatter back: a shuffled list counts like the sorted one
    ys = sorted([Fraction(k, 97) for k in range(98)] + [1 - a, a])
    shuffled = [ys[i] for i in np.random.default_rng(q).permutation(len(ys))]
    covers = {y: level_set_cover(a, y, 6).count for y in ys}
    assert _split_counts(a, ys, 6, q) == [covers[y] for y in ys]
    assert _split_counts(a, shuffled, 6, q) == [covers[y] for y in shuffled]


def test_float_level_counts_do_not_depend_on_the_order_of_the_levels():
    ys = np.random.default_rng(11).random(500)
    order = np.argsort(ys)
    for n in (12, 14):  # the sweep, then a split
        assert np.array_equal(np.array(_level_counts(0.75, ys, n))[order], _level_counts(0.75, ys[order], n))


def test_split_counts_equal_the_rational_covers_past_the_sweep_depth():
    a = Fraction(3, 4)
    ys = [Fraction(1, 3), Fraction(38, 81), Fraction(1, 2), Fraction(0), Fraction(1)]
    covers = [level_set_cover(a, y, 13).count for y in ys]
    assert _level_counts(a, ys, 13) == covers
    for q in range(1, LEVEL_SWEEP_DEPTH + 1):
        assert _split_counts(a, ys, 13, q) == covers


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6])
def test_split_counts_past_int64_at_a_pinned_suffix_depth(q):
    # den(y) * d^6 passes 2^63 for the first level, so its z_u * d^q are taken on Python ints;
    # at y = 1/3 they stay on int64; q = 6 takes the identity prefix's bounds y * d^6 alone
    a = Fraction(943, 944)
    assert 999983 * a.denominator**6 > 2**63 > 4 * a.denominator**6
    for ys in ([Fraction(1, 999983), Fraction(1), a], [Fraction(1, 3)]):
        assert _split_counts(a, ys, 6, q) == [level_set_cover(a, y, 6).count for y in ys]


@settings(max_examples=40, deadline=None)
@given(st.floats(0.5, 1, exclude_min=True, exclude_max=True), st.integers(2, 9), st.data())
def test_float_split_counts_of_a_batch_are_those_of_each_level_alone(a, n, data):
    # the batched prefix cover runs the same operations on the same parents as one level alone,
    # at rounded interval ends too, where rounding decides
    q = data.draw(st.integers(1, n - 1))
    m = data.draw(st.integers(1, n))
    level = expand_level(*projection_parts(a), m)
    ends = [float(e) for e in np.concatenate([level.t[:20], level.t[:20] + level.r[:20]]) if 0 <= e <= 1]
    ys = ends + data.draw(st.lists(st.floats(0, 1), max_size=5))
    assert _split_counts(a, ys, n, q) == [_split_counts(a, [y], n, q)[0] for y in ys]


@pytest.mark.parametrize("a", [0.75, 0.9, Fraction(3, 4)])
def test_split_counts_do_not_depend_on_the_chunks(monkeypatch, a):
    # a chunk budget of a few children splits the levels into many chunks, most of one level
    ys = [Fraction(k, 61) for k in range(61)] if isinstance(a, Fraction) else np.random.default_rng(5).random(200)
    whole = _split_counts(a, ys, 11, 4)
    calls = []

    def spy(tau, rho, depth, keep=None, roots=1):
        level = expand_level(tau, rho, depth, keep, roots)
        calls.append(roots)
        # a chunk of several levels never builds more than the budget's children at a depth
        assert roots == 1 or all(len(mask) <= 60 for mask in level.kept)
        return level

    monkeypatch.setattr(estimators, "expand_level", spy)
    monkeypatch.setattr(estimators, "SPLIT_FRONTIER_CAP", 60)
    assert _split_counts(a, ys, 11, 4) == whole
    prefixes = calls[1:]
    assert sum(prefixes) == len(ys) and len(prefixes) > 10


def test_level_set_cover_refuses_kept_words_past_the_byte_budget(monkeypatch):
    # 16 bytes of t and r per kept word on int64; the count never falls with depth, so the
    # deepest level is the largest and a budget of its bytes is the least that passes
    cover = level_set_cover(Fraction(3, 4), Fraction(1, 3), 14)
    assert cover.count == 22869 and 16 * cover.count <= COVER_BYTE_BUDGET
    monkeypatch.setattr(estimators, "COVER_BYTE_BUDGET", 16 * cover.count)
    assert level_set_cover(Fraction(3, 4), Fraction(1, 3), 14).count == cover.count
    monkeypatch.setattr(estimators, "COVER_BYTE_BUDGET", 16 * cover.count - 1)
    with pytest.raises(BudgetError, match=f"exceeds {16 * cover.count - 1} bytes"):
        level_set_cover(Fraction(3, 4), Fraction(1, 3), 14)


def test_oversized_level_set_cover_is_a_json_budget_error(monkeypatch):
    # (4a-1)^24 is about 2e11 at a = 0.99: the cover is refused while it is still small
    monkeypatch.setattr(estimators, "COVER_BYTE_BUDGET", 1 << 16)
    buf = io.StringIO()
    assert run(["levelset", "--a", "0.99", "--y", "0.5", "--depth", "24"], stdout=buf) == 1
    error = json.loads(buf.getvalue())["error"]
    assert error["type"] == "BudgetError"
    assert "depth-24 cover of level y = 0.5 at a = 0.99 exceeds 65536 bytes" in error["message"]


@pytest.mark.parametrize("n", [12, 14])  # one sorted level, alone and under depth-2 prefixes
def test_level_statistics_check_every_level_before_any_count(monkeypatch, n):
    def refuse(*args, **kwargs):
        pytest.fail("a level was counted before every level was checked")

    monkeypatch.setattr(estimators, "expand_level", refuse)
    with pytest.raises(ParameterError, match=r"level y must lie in \[0, 1\], got 1.5"):
        level_statistics(0.75, [0.2, 0.5, 1.5], n)
    # a, then the levels, then the depth
    with pytest.raises(ParameterError, match="parameter a"):
        level_statistics(0.3, [1.5], 99)
    with pytest.raises(ParameterError, match="level y"):
        level_statistics(0.75, [0.5, 1.5], 99)
    with pytest.raises(DepthCapError):
        level_statistics(0.75, [0.5], 99)


def test_level_set_scan_summary_fields():
    scan = level_set_scan(0.75, 60, 12, seed=3)
    assert set(scan.quantiles) == {"q10", "q25", "q50", "q75", "q90"}
    assert 0.0 <= scan.frac_above <= 1.0
    buf = io.StringIO()
    assert run(["levelset-scan", "--a", "0.75", "--samples", "60", "--depth", "12", "--seed", "3"], stdout=buf) == 0
    d = json.loads(buf.getvalue())
    assert set(d) == {
        "a", "depth", "seed", "tolerance", "s0_minus_1", "sample_count", "quantiles", "frac_above",
        "median_gap", "schema_version",
    }
    assert d["sample_count"] == 60
    assert d["quantiles"] == scan.quantiles


# --- measure sampling ---------------------------------------------------------------


def test_sample_measure_fields():
    # the fields a sample is keyed by outside the package: its system, weights and draw
    sample = sample_measure(0.75, 2000, 40, seed=9)
    assert sample.system_kind == "projection"
    assert sample.parameter == 0.75
    assert sample.weights == natural_weights(0.75) == (0.375, 0.25, 0.375)
    assert (sample.seed, sample.depth, sample.count) == (9, 40, 2000)
    assert sample.points.shape == (2000,)
    assert sample_measure(Fraction(3, 4), 10, 5, seed=1).parameter == 0.75


def test_sample_measure_reproducible():
    s1 = sample_measure(0.75, 2000, 40, seed=9)
    s2 = sample_measure(0.75, 2000, 40, seed=9)
    assert np.array_equal(s1.points, s2.points)
    s3 = sample_measure(0.75, 2000, 40, seed=10)
    assert not np.array_equal(s1.points, s3.points)


def test_sample_measure_symmetric_mean():
    sample = sample_measure(0.75, 200_000, 40, seed=5)
    sigma = sample.points.std() / math.sqrt(sample.count)
    assert abs(sample.points.mean() - 0.5) < 3 * sigma + 1e-4


def test_sample_measure_caps():
    with pytest.raises(BudgetError):
        sample_measure(0.75, 10**9, 10, seed=0)
    with pytest.raises(BudgetError):
        sample_measure(0.75, 10, 61, seed=0)
    for count, depth in ((0, 10), (-5, 10), (10, -1)):  # empty or negative draws
        with pytest.raises(ParameterError):
            sample_measure(0.75, count, depth, seed=0)
    with pytest.raises(ParameterError):
        sample_measure(0.4, 10, 10, seed=0)


def _block_system(a):
    """(tau, rho, weights) of S_a with its natural weights, or for "m=2" of the four maps of the
    m = 2 subsystem at a = 0.75, which share one ratio, with the uniform weight."""
    if a != "m=2":
        return (*projection_parts(a), natural_weights(a))
    sub = build_subsystem(0.75, 2)
    return sub.translations, np.full(len(sub.translations), float(sub.ratio)), (0.25,) * 4


@pytest.mark.parametrize("a", [0.6, 0.75, "m=2"])
@pytest.mark.parametrize("k", [SAMPLE_BLOCK, 3])
def test_block_maps_are_the_word_folds(a, k):
    # the block of SAMPLE_BLOCK symbols and a remainder block, entry i being the word at position i
    *parts, weights = _block_system(a)
    n = len(weights)
    t, r, prob, alias = _block_table(*parts, k)
    assert len(t) == len(r) == len(prob) == len(alias) == n**k
    for i, word in enumerate(product(range(1, n + 1), repeat=k)):
        assert (t[i], r[i]) == fold_word(*parts, word)


@pytest.mark.parametrize("a", [0.6, 0.75, 0.9, "m=2"])
@pytest.mark.parametrize("k", [SAMPLE_BLOCK, 1, 5])
def test_alias_mass_is_the_block_weight(a, k):
    # entry i is drawn from its own column with prob[i] and from every column aliased to it with the rest
    *parts, weights = _block_system(a)
    n = len(weights)
    _, _, prob, alias = _block_table(*parts, k)
    expected = np.array([math.prod(weights[s - 1] for s in word) for word in product(range(1, n + 1), repeat=k)])
    other = alias != np.arange(n**k)
    mass = prob.copy()
    np.add.at(mass, alias[other], 1.0 - prob[other])
    assert np.all((0.0 <= prob) & (prob <= 1.0))
    assert np.max(np.abs(mass - n**k * expected)) <= 1e-12


@pytest.mark.parametrize("a", [0.6, 0.75, 0.9])
def test_block_table_weights_are_the_weight_level(a):
    # oracle: the table on the ratios of the system with zero translations and ratios natural_weights(a)
    for k in range(1, SAMPLE_BLOCK + 1):
        _, _, prob, alias = _block_table(*projection_parts(a), k)
        oracle_prob, oracle_alias = _alias_table(expand_level((0.0, 0.0, 0.0), natural_weights(a), k).r)
        assert np.array_equal(alias, oracle_alias)
        if a == 0.9:  # the two float products round apart, so a rounded integer unit can differ by one
            assert np.max(np.abs(prob - oracle_prob)) <= 1e-12
        else:
            assert np.array_equal(prob, oracle_prob)


@pytest.mark.parametrize("a", [0.55, 0.6, 0.75, 0.9, 0.99])
def test_block_folds_are_the_level_kernel(a):
    # the folded symbol matrix and the level kernel run the same float operations per word
    for k in range(1, SAMPLE_BLOCK + 1):
        t, r, _, _ = _block_table(*projection_parts(a), k)
        level = expand_level(*projection_parts(a), k)
        assert np.array_equal(t, level.t) and np.array_equal(r, level.r)


def test_alias_table_of_uniform_weights_is_trivial():
    # the construction runs on integers, so equal weights fill every column with itself exactly
    prob, _ = _alias_table(np.full(7, 1 / 7))
    assert np.all(prob == 1.0)


def test_alias_table_of_equal_magnitudes_holds_no_per_entry_arrays():
    # every subsystem table has equal |r|: its draw is the uniform column, so the table needs
    # no prob and alias of its own length; signed ratios of one magnitude count as equal
    weights = np.full(2**20, 0.25)
    tracemalloc.start()
    prob, alias = _alias_table(weights)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 1 << 20
    assert prob.strides == alias.strides == (0,) and np.all(prob == 1.0)
    prob, alias = _alias_table(np.array([0.5, -0.5, 0.5]))
    assert prob.strides == (0,) and len(prob) == len(alias) == 3
    rng, rng_copy = np.random.default_rng(3), np.random.default_rng(3)
    assert np.array_equal(_alias_draw(prob, alias, 1000, rng), (3 * rng_copy.random(1000)).astype(np.intp))


@pytest.mark.parametrize("n, kind", [(16_384, "random"), (30_000, "random"), (30_000, "equal")])
def test_alias_mass_identity_past_2_to_the_14_entries(n, kind):
    # n * 2^49 no longer fits in int64 here, so the units shrink with the table; subsystem
    # alphabets reach 28 160 words at m = 11 and millions at m = 16
    weights = np.random.default_rng(n).random(n) if kind == "random" else np.full(n, 0.5)
    prob, alias = _alias_table(weights)
    other = alias != np.arange(n)
    mass = prob.copy()
    np.add.at(mass, alias[other], 1.0 - prob[other])
    assert np.all((0.0 <= prob) & (prob <= 1.0))
    assert np.max(np.abs(mass - n * weights / weights.sum())) <= 1e-12


@pytest.mark.parametrize("depth", [0, 1, 7, SAMPLE_BLOCK, 41])
def test_sample_measure_honours_the_depth(depth):
    count = SAMPLE_CHUNK + 5  # a full chunk and a short one
    sample = sample_measure(0.75, count, depth, seed=4)
    assert (sample.count, sample.depth) == (count, depth)
    assert np.all((0.0 <= sample.points) & (sample.points <= 1.0))
    if depth == 0:
        assert not sample.points.any()
    if depth == 1:
        assert set(np.unique(sample.points)) == {0.0, 0.25, 0.75}
    if depth == 41:  # a point stays 0 only on the all-1s word, probability (3/8)^41 each
        assert np.all(sample.points > 0.0)


def test_blocked_sampler_matches_the_per_symbol_law():
    # two-sample KS against the per-symbol reference, below the 5% critical value 1.36 sqrt(2/N)
    n = 10**6
    critical = 1.36 * math.sqrt(2.0 / n)
    for seed in range(1, 6):
        blocked = sample_measure(0.75, n, 20, seed=seed).points
        reference = sample_per_symbol(0.75, n, 20, seed=1000 + seed)
        assert ks_statistic(blocked, reference) < critical


def test_sample_measure_second_moment():
    # X = rho X' + tau gives E X^2 = (E tau^2 + E[rho tau]) / (1 - E rho^2), using E X = 1/2
    a = 0.75
    tau, rho = (np.array(v) for v in projection_parts(a))
    p = np.array(natural_weights(a))
    second = (p @ tau**2 + p @ (rho * tau)) / (1.0 - p @ rho**2)
    assert round(math.sqrt(second - 0.25), 5) == 0.15076
    n = 10**6
    for seed in range(1, 6):
        squares = sample_measure(a, n, 41, seed=seed).points ** 2
        assert abs(squares.mean() - second) < 5.0 * squares.std() / math.sqrt(n)


def test_sample_measure_depth_convergence():
    # truncating the coding one level earlier moves mass by at most a^40
    s40 = sample_measure(0.75, 10**7, 40, seed=21)
    s41 = sample_measure(0.75, 10**7, 41, seed=22)
    assert ks_statistic(s40.points, s41.points) < 1e-3


# --- local dimension ------------------------------------------------------------------


def _uniform_sample(count=200_000, seed=0):
    rng = np.random.default_rng(seed)
    return MeasureSample("uniform", None, (1.0,), rng.random(count), seed, 0)


def test_local_dimension_uniform_reference():
    # mu(B(x,r)) = 2r for the uniform measure, so the ratio log mu(B(x,r)) / log r
    # of the ball masses is 1 + log(2)/log(r) up to sampling noise
    sample = _uniform_sample()
    radii = [1e-3, 1e-2]
    masses = _ball_counts(sample.points, [0.5], radii)[0] / sample.count
    for r, got in zip(radii, masses):
        assert abs(math.log(got) / math.log(r) - (1.0 + math.log(2) / math.log(r))) < 0.02


def test_local_dimension_point_mass():
    sample = MeasureSample("point", None, (1.0,), np.zeros(10_000), 0, 0)
    assert _ball_counts(sample.points, [0.0], [1e-4, 1e-2]).tolist() == [[10_000, 10_000]]


def test_local_dimension_empty_ball_is_nan():
    sample = _uniform_sample(1000, 3)
    assert math.isnan(local_dimension_slopes(sample, [5.0], r_lo=1e-4, r_hi=1e-2)[0])
    with pytest.raises(ParameterError):
        _ball_counts(sample.points, [0.5], [0.0])


def test_local_dimension_counts_closed_balls():
    sample = _uniform_sample(20_000, 4)
    pts = sample.points
    for x in (0.3, float(pts[17])):  # a sample point sits on its own ball's centre
        radii = [1e-3, 1e-2, abs(float(pts[5]) - x)]  # the last ball has a point on its boundary
        expected = [np.sum(np.abs(pts - x) <= r) for r in radii]
        assert _ball_counts(pts, [x], radii)[0].tolist() == expected


def test_local_dimension_slopes_uniform():
    sample = _uniform_sample(500_000, 8)
    slopes = local_dimension_slopes(sample, [0.2, 0.5, 0.8], r_lo=1e-3, r_hi=1e-1)
    assert np.all(np.abs(slopes - 1.0) < 0.1)


# --- Fourier probe ------------------------------------------------------------------------


def test_fourier_at_zero_is_one():
    sample = sample_measure(0.75, 10_000, 40, seed=6)
    mags = fourier_estimate(sample, [0.0, 5.0, 50.0])
    assert mags[0] == 1.0
    assert np.all(mags <= 1.0 + 3.0 / math.sqrt(sample.count))


def test_fourier_decay_fit_negative_slope():
    sample = sample_measure(0.75, 400_000, 50, seed=13)
    slope, _, used = fourier_decay_fit(sample, np.geomspace(10, 1e4, 30))
    assert used >= 2
    assert slope < 0


# --- KS harness -----------------------------------------------------------------------------


def test_ks_statistic_basics():
    x = np.arange(1000) / 1000
    assert ks_statistic(x, x) == 0.0
    assert ks_statistic(x, x + 10.0) == 1.0
    rng = np.random.default_rng(0)
    same = ks_statistic(rng.random(100_000), rng.random(100_000))
    assert same < 0.01
