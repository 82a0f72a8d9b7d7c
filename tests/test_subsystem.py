import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from okamoto.dimensions import okamoto_s0
from okamoto.errors import ParameterError
from okamoto.estimators import ks_statistic
from okamoto.subsystem import (
    build_subsystem,
    convolution_check,
    entropy_ratio,
    gamma_conjugate,
    sample_subsystem_measure,
    slice_lower_bound_report,
    subsystem_ratio,
)
from okamoto.systems import build_system, compose_word


def test_build_subsystem_m1():
    sub = build_subsystem(0.75, 1)
    assert sub.alphabet == ((1,), (3,))
    assert sub.ratio == 0.75
    assert [(f.ratio, f.translation) for f in sub.maps] == [(0.75, 0.0), (0.75, 0.25)]


def test_build_subsystem_m4_exact():
    sub = build_subsystem(Fraction(3, 4), 4)
    assert len(sub.maps) == 32
    assert sub.ratio == Fraction(3, 4) ** 3 * Fraction(-1, 2)
    for f in sub.maps:
        assert f.ratio == sub.ratio


@pytest.mark.parametrize("m", range(1, 9))
def test_ratio_uniform_exact(m):
    a = Fraction(3, 4)
    sub = build_subsystem(a, m)
    system = build_system("projection", a)
    for w in sub.alphabet[:: max(1, len(sub.alphabet) // 8)]:
        assert compose_word(system, w).ratio == sub.ratio
    assert sub.ratio == subsystem_ratio(a, m)


# --- gamma conjugation ---------------------------------------------------------


@pytest.mark.parametrize("m,k", [(1, 2), (2, 2), (2, 3)])
def test_gamma_identity_exact(m, k):
    offset, conjugated, report = gamma_conjugate(Fraction(3, 4), m, k)
    assert report.exact
    assert report.checked > 0
    lam_k = subsystem_ratio(Fraction(3, 4), m) ** k
    assert all(f.ratio == lam_k for f in conjugated)


def test_gamma_exponent_disambiguation():
    # m=4 at a=3/4 contains one 2-symbol, so the correction term is nonzero and
    # only the lambda^(k-1) offset satisfies the identity
    for m, k in ((4, 2), (4, 3)):
        offset, _, report = gamma_conjugate(Fraction(3, 4), m, k)
        assert offset != 0
        assert report.exponent == k - 1
        assert report.candidates == {k - 1: True, k: False}


def _off_position_translations(a, m, k):
    """[(block tuple, t_g)] in lexicographic order, t_g from compose_word of the concatenated blocks."""
    system = build_system("projection", a)
    return [
        (combo, compose_word(system, tuple(s for w in combo for s in w)).translation)
        for combo in product(build_subsystem(a, m).alphabet, repeat=k - 1)
    ]


def test_split_translation_rule():
    # t_g = sum_l lambda^(l-1) tau_l over the k-1 blocks, and gamma's maps are x -> lambda^k x + t_g + c(1 - lambda^k)
    a = Fraction(3, 4)
    system = build_system("projection", a)
    for m, k in ((1, 3), (2, 3), (4, 2)):
        offset, conjugated, _ = gamma_conjugate(a, m, k)
        lam = subsystem_ratio(a, m)
        reference = _off_position_translations(a, m, k)
        assert len(conjugated) == len(reference)
        for f_conj, (combo, t_g) in zip(conjugated, reference):
            taus = [compose_word(system, w).translation for w in combo]
            assert t_g == sum(lam**l * tau for l, tau in enumerate(taus))
            assert f_conj.ratio == lam**k
            assert f_conj.translation == t_g + offset * (1 - lam**k)


def test_gamma_fixed_point_maps_to_fixed_point():
    a = Fraction(3, 4)
    offset, conjugated, report = gamma_conjugate(a, 4, 2)
    lam_k = subsystem_ratio(a, 4) ** 2
    reference = _off_position_translations(a, 4, 2)
    assert report.checked == len(conjugated) == len(reference) == 32
    for f_conj, (_, t_g) in zip(conjugated, reference):
        g_fix = t_g / (1 - lam_k)
        assert f_conj(g_fix + offset) == g_fix + offset


def test_gamma_requires_k_at_least_two():
    with pytest.raises(ParameterError):
        gamma_conjugate(Fraction(3, 4), 2, 1)


# --- convolution ------------------------------------------------------------------


def test_convolution_ks_small():
    report = convolution_check(0.75, 2, 3, 200_000, seed=123)
    assert report.ks < 0.02
    assert report.scale_exponent == 2
    assert report.depth % 3 == 0


def test_convolution_ks_small_over_five_seeds():
    ks = [convolution_check(0.75, 1, 2, 100_000, seed=seed).ks for seed in range(1, 6)]
    print(f"convolution m=1 k=2: worst KS {max(ks):.4f}, margin {0.02 - max(ks):.4f} under 0.02 over 5 seeds")
    assert all(d < 0.02 for d in ks)


def test_convolution_requires_k_at_least_two():
    with pytest.raises(ParameterError):
        convolution_check(0.75, 2, 1, 100, seed=0)


def test_subsystem_sampling_reproducible_and_supported():
    ys1 = sample_subsystem_measure(0.75, 4, 5000, seed=9)
    ys2 = sample_subsystem_measure(0.75, 4, 5000, seed=9)
    assert np.array_equal(ys1, ys2)
    assert np.all((ys1 >= 0.0) & (ys1 <= 1.0))


def test_block_coding_matches_direct_split_sum():
    # X restricted to one superblock reproduces the split translation rule
    a = 0.75
    from okamoto.subsystem import _sample_block_coding

    sub = build_subsystem(a, 1)
    lam = float(sub.ratio)
    rng = np.random.default_rng(0)
    xs = _sample_block_coding(sub.translations(), lam, 50_000, 40, rng)
    ys = sample_subsystem_measure(a, 1, 50_000, seed=1)
    assert ks_statistic(xs, ys) < 0.02


# --- entropy ratio -------------------------------------------------------------------


def test_entropy_ratio_k1_is_zero():
    assert entropy_ratio(0.75, 10, 1).ratio == 0.0


def test_entropy_ratio_limit_exceeds_one():
    report = entropy_ratio(0.75, 5, 5)
    assert report.limit > 1.0
    assert report.limit_exceeds_one
    for a in np.linspace(0.551, 0.949, 21):
        assert entropy_ratio(float(a), 3, 3).limit_exceeds_one


def test_entropy_ratio_converges_to_limit():
    report_small = entropy_ratio(0.75, 20, 20)
    report_big = entropy_ratio(0.75, 400, 400)
    limit = report_big.limit
    assert abs(report_big.ratio - limit) < abs(report_small.ratio - limit)
    assert abs(report_big.ratio - limit) < 0.03


def test_entropy_ratio_domain():
    with pytest.raises(ParameterError):
        entropy_ratio(0.75, 0, 3)
    with pytest.raises(ParameterError):
        entropy_ratio(0.3, 3, 3)


# --- slice lower bound -----------------------------------------------------------------


def test_slice_lower_bound_report_fields():
    report = slice_lower_bound_report(0.75, 4, 40, 10, seed=2)
    assert report.excluded >= 0
    assert set(report.quantiles) == {"q10", "q25", "q50", "q75", "q90"}
    for eps, frac in report.frac_above.items():
        assert 0.0 <= frac <= 1.0
    d = report.to_json()
    assert d["sample_count"] == 40


def test_slice_estimates_refine_toward_bound_with_depth():
    # the cover count grows like C * 2^n with C > 1, so finite-depth estimates
    # sit above s0-1 and deepening the cover moves the median toward the bound
    shallow = slice_lower_bound_report(0.75, 8, 60, 10, seed=8)
    deep = slice_lower_bound_report(0.75, 8, 60, 14, seed=8)
    bound = okamoto_s0(0.75) - 1.0
    assert abs(deep.median_estimate - bound) < abs(shallow.median_estimate - bound)
