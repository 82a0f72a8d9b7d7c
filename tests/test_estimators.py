import io
import json
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from okamoto.cli import run
from okamoto.dimensions import okamoto_s0
from okamoto.errors import BudgetError, DepthCapError, OkamotoError, ParameterError
from okamoto.estimators import (
    LevelSetCover,
    MeasureSample,
    _ball_counts,
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
    natural_measure_sample,
    sample_measure,
)
from okamoto.systems import Level, build_system, compose_word


def test_box_count_column_depth1():
    # beta values (0.75, 0.5, 0.75) against delta=1/3: ceil(2.25)+ceil(1.5)+ceil(2.25)
    assert box_count_graph(0.75, 1, "column") == 8


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
        assert level_set_cover(Fraction(3, 4), Fraction(0), n).words == ((1,) * n,)
        assert level_set_cover(Fraction(3, 4), Fraction(1), n).words == ((3,) * n,)


def test_level_set_half_frozen_counts():
    # hand enumeration at a=3/4: all three depth-1 intervals contain 1/2, and
    # every depth-2 interval still touches it (1/2 is the fixed point of S_2)
    assert level_set_cover(Fraction(3, 4), Fraction(1, 2), 1).count == 3
    assert level_set_cover(Fraction(3, 4), Fraction(1, 2), 2).count == 9
    assert level_set_cover(0.75, 0.5, 1).count == 3
    assert level_set_cover(0.75, 0.5, 2).count == 9


def _exhaustive_filter(a, y, n):
    system = build_system("projection", a)
    out = []
    for w in product((1, 2, 3), repeat=n):
        f = compose_word(system, w)
        if min(f(0), f(1)) <= y <= max(f(0), f(1)):
            out.append(w)
    return tuple(out)


@pytest.mark.parametrize("y", [Fraction(1, 3), Fraction(1, 2), Fraction(7, 10)])
def test_level_set_cover_matches_exhaustive_filter(y):
    a = Fraction(3, 4)
    for n in range(1, 7):
        assert level_set_cover(a, y, n).words == _exhaustive_filter(a, y, n)


def test_level_set_float_count_matches_exact():
    a = Fraction(3, 4)
    for y in (Fraction(1, 3), Fraction(2, 7), Fraction(7, 10)):
        for n in (3, 6, 9):
            cover = level_set_cover(0.75, float(y), n)
            assert cover.count == level_set_cover(a, y, n).count == len(cover.words)


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
    assert s1.ys == s2.ys and s1.estimates == s2.estimates
    assert s1.estimates == tuple(level_statistics(0.75, s1.ys, 10).estimates.tolist())
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


def test_sample_measure_degenerate_weights():
    system = build_system("projection", 0.75)
    sample = sample_measure(system, (1.0, 0.0, 0.0), 500, 30, seed=1)
    assert np.all(sample.points == 0.0)  # fixed point of the first map


def test_sample_measure_reproducible():
    system = build_system("projection", 0.75)
    s1 = sample_measure(system, (0.375, 0.25, 0.375), 2000, 40, seed=9)
    s2 = sample_measure(system, (0.375, 0.25, 0.375), 2000, 40, seed=9)
    assert np.array_equal(s1.points, s2.points)
    s3 = sample_measure(system, (0.375, 0.25, 0.375), 2000, 40, seed=10)
    assert not np.array_equal(s1.points, s3.points)


def test_sample_measure_symmetric_mean():
    sample = natural_measure_sample(0.75, 200_000, 40, seed=5)
    sigma = sample.points.std() / math.sqrt(sample.count)
    assert abs(sample.points.mean() - 0.5) < 3 * sigma + 1e-4


def test_sample_measure_caps():
    system = build_system("projection", 0.75)
    with pytest.raises(BudgetError):
        sample_measure(system, (0.375, 0.25, 0.375), 10**9, 10, seed=0)
    with pytest.raises(BudgetError):
        sample_measure(system, (0.375, 0.25, 0.375), 10, 61, seed=0)
    with pytest.raises(ParameterError):
        sample_measure(system, (0.5, 0.5), 10, 10, seed=0)
    for count, depth in ((0, 10), (-5, 10), (10, -1)):  # empty or negative draws
        with pytest.raises(ParameterError):
            sample_measure(system, (0.375, 0.25, 0.375), count, depth, seed=0)


def test_sample_measure_depth_convergence():
    # truncating the coding one level earlier moves mass by at most a^40
    s40 = natural_measure_sample(0.75, 10**7, 40, seed=21)
    s41 = natural_measure_sample(0.75, 10**7, 41, seed=22)
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
    sample = natural_measure_sample(0.75, 10_000, 40, seed=6)
    mags = fourier_estimate(sample, [0.0, 5.0, 50.0])
    assert mags[0] == 1.0
    assert np.all(mags <= 1.0 + 3.0 / math.sqrt(sample.count))


def test_fourier_decay_fit_negative_slope():
    sample = natural_measure_sample(0.75, 400_000, 50, seed=13)
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
