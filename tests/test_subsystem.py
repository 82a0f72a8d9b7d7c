import io
import json
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from okamoto.cli import run
from okamoto.dimensions import okamoto_s0
from okamoto.errors import ParameterError
from okamoto.estimators import _block_steps, _sample_words, ks_statistic
from okamoto.subsystem import (
    GAMMA_TUPLE_BUDGET,
    SPLIT_CAP,
    _sampling_depth,
    build_subsystem,
    convolution_check,
    entropy_ratio,
    gamma_conjugate,
    sample_subsystem_measure,
    slice_lower_bound_report,
    subsystem_ratio,
)
from okamoto.systems import fold_rows, fold_word, projection_parts
from okamoto.words import two_count
from measure_oracle import sample_per_position
from word_oracle import word_tuples


def _exact(sub):
    """The translations of a rational subsystem as Fractions, in row order."""
    return [Fraction(t, sub.unit) for t in sub.translations.tolist()]


def test_build_subsystem_m1():
    sub = build_subsystem(0.75, 1)
    assert sub.alphabet.dtype == np.uint8 and word_tuples(sub.alphabet) == ((1,), (3,))
    assert sub.ratio == 0.75
    assert sub.translations.dtype == np.float64 and sub.translations.tolist() == [0.0, 0.25] and sub.unit == 1.0


def test_build_subsystem_m4_exact():
    a = Fraction(3, 4)
    sub = build_subsystem(a, 4)
    assert len(sub.translations) == 32 and sub.translations.dtype == np.int64 and sub.unit == 4**4
    assert sub.ratio == Fraction(3, 4) ** 3 * Fraction(-1, 2)
    for w, t in zip(word_tuples(sub.alphabet), _exact(sub)):
        assert fold_word(*projection_parts(a), w) == (t, sub.ratio)
    prefix = build_subsystem(a, 4, 5)  # the row limit keeps the first words and their translations
    assert np.array_equal(prefix.alphabet, sub.alphabet[:5])
    assert np.array_equal(prefix.translations, sub.translations[:5])


@pytest.mark.parametrize("m", range(1, 9))
def test_ratio_uniform_exact(m):
    a = Fraction(3, 4)
    sub = build_subsystem(a, m)
    parts = projection_parts(a)
    for w in word_tuples(sub.alphabet[:: max(1, len(sub.alphabet) // 8)]):
        assert fold_word(*parts, w)[1] == sub.ratio
    assert sub.ratio == subsystem_ratio(a, m)


# --- gamma conjugation ---------------------------------------------------------


@pytest.mark.parametrize("m,k", [(1, 2), (2, 2), (2, 3)])
def test_gamma_identity_exact(m, k):
    offset, conjugated, report = gamma_conjugate(Fraction(3, 4), m, k)
    assert report.exact
    assert report.checked == len(conjugated.translations) == len(conjugated.alphabet) > 0
    assert conjugated.ratio == subsystem_ratio(Fraction(3, 4), m) ** k and isinstance(conjugated.unit, int)


def test_gamma_exponent_disambiguation():
    # m=4 at a=3/4 contains one 2-symbol, so the correction term is nonzero and
    # only the lambda^(k-1) offset satisfies the identity
    for m, k in ((4, 2), (4, 3)):
        offset, _, report = gamma_conjugate(Fraction(3, 4), m, k)
        assert offset != 0
        assert report.exponent == k - 1
        assert report.candidates == {k - 1: True, k: False}


def _off_position_translations(a, m, k):
    """[(block tuple, t_g)] in lexicographic order, t_g from fold_word of the concatenated blocks."""
    parts = projection_parts(a)
    return [
        (combo, fold_word(*parts, tuple(s for w in combo for s in w))[0])
        for combo in product(word_tuples(build_subsystem(a, m).alphabet), repeat=k - 1)
    ]


def test_split_translation_rule():
    # t_g = sum_l lambda^(l-1) tau_l over the k-1 blocks, and gamma's maps are x -> lambda^k x + t_g + c(1 - lambda^k),
    # the compositions of the flat words: the tuple's blocks, then the all-1s-then-2s block
    a = Fraction(3, 4)
    parts = projection_parts(a)
    for m, k in ((1, 3), (2, 3), (4, 2)):
        offset, conjugated, _ = gamma_conjugate(a, m, k)
        lam = subsystem_ratio(a, m)
        tilde = (1,) * (m - two_count(a, m)) + (2,) * two_count(a, m)
        reference = _off_position_translations(a, m, k)
        assert word_tuples(conjugated.alphabet) == tuple(sum(combo, ()) + tilde for combo, _ in reference)
        assert len(_exact(conjugated)) == len(reference)
        for t_conj, (combo, t_g) in zip(_exact(conjugated), reference):
            taus = [fold_word(*parts, w)[0] for w in combo]
            assert t_g == sum(lam**l * tau for l, tau in enumerate(taus))
            assert t_conj == t_g + offset * (1 - lam**k)


def test_gamma_on_python_ints_matches_off_position_translations():
    # at a = 999/1000 the flat words of m = 4, k = 2 (8 symbols over 1000^8)
    # are past the int64 bound, so the identity is checked on Python ints
    a, m, k = Fraction(999, 1000), 4, 2
    parts = projection_parts(a)
    assert fold_rows(*parts, np.ones((1, k * m), dtype=np.uint8))[0].dtype == object
    offset, conjugated, report = gamma_conjugate(a, m, k)
    lam = subsystem_ratio(a, m)
    j = two_count(a, m)
    tilde = (1,) * (m - j) + (2,) * j
    assert offset == fold_word(*parts, tilde)[0] * lam ** (k - 1) / (1 - lam**k)
    assert (report.exact, report.exponent, report.candidates) == (True, k - 1, {k - 1: True, k: False})
    reference = _off_position_translations(a, m, k)
    assert report.checked == len(conjugated.translations) == len(reference) == 32
    assert _exact(conjugated) == [t_g + offset * (1 - lam**k) for _, t_g in reference]


def test_gamma_fixed_point_maps_to_fixed_point():
    a = Fraction(3, 4)
    offset, conjugated, report = gamma_conjugate(a, 4, 2)
    lam_k = subsystem_ratio(a, 4) ** 2
    reference = _off_position_translations(a, 4, 2)
    assert report.checked == len(conjugated.translations) == len(reference) == 32
    for t_conj, (_, t_g) in zip(_exact(conjugated), reference):
        g_fix = t_g / (1 - lam_k)
        assert lam_k * (g_fix + offset) + t_conj == g_fix + offset


def test_gamma_reads_only_the_checked_alphabet_prefix():
    # m = 10 has 11 520 alphabet words, more than the GAMMA_TUPLE_BUDGET tuples
    # checked at k = 2, which index the first 4096 words of the full build
    a, m, k = Fraction(3, 4), 10, 2
    sub = build_subsystem(a, m)
    assert len(sub.alphabet) > GAMMA_TUPLE_BUDGET
    offset, conjugated, report = gamma_conjugate(a, m, k)
    lam = sub.ratio
    tilde = (1,) * (m - two_count(a, m)) + (2,) * two_count(a, m)
    expected_offset = fold_word(*projection_parts(a), tilde)[0] * lam ** (k - 1) / (1 - lam**k)
    assert offset == report.offset == expected_offset
    assert (report.m, report.k, report.exponent, report.exact) == (m, k, k - 1, True)
    assert report.candidates == {k - 1: True, k: False}
    assert report.checked == len(conjugated.translations) == GAMMA_TUPLE_BUDGET
    assert _exact(conjugated) == [t + offset * (1 - lam**k) for t in _exact(sub)[:GAMMA_TUPLE_BUDGET]]


def test_gamma_requires_k_at_least_two():
    with pytest.raises(ParameterError):
        gamma_conjugate(Fraction(3, 4), 2, 1)
    with pytest.raises(ParameterError, match=f"k <= {SPLIT_CAP}"):
        gamma_conjugate(Fraction(3, 4), 2, SPLIT_CAP + 1)


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


@pytest.mark.parametrize("m, k", [(1, 3), (10, 2)])  # blocks of 12 symbols of 2 maps; one symbol of 11 520
def test_convolution_builds_the_tables_of_eta_once(monkeypatch, m, k):
    # the direct draw's tables, then one set for all k copies of eta
    from okamoto import subsystem

    built = []

    def spy(tau, rho, depth):
        built.append((float(rho[0]), depth))
        return _block_steps(tau, rho, depth)

    monkeypatch.setattr(subsystem, "_block_steps", spy)
    report = convolution_check(0.75, m, k, 1000, seed=4)
    lam = float(subsystem_ratio(0.75, m))
    assert built == [(lam, report.depth), (lam**k, report.depth // k)]


def _coding(sub, lam: float, count: int, depth: int, rng) -> np.ndarray:
    """The blocked core's draw from the subsystem's maps with the shared ratio lam, as the package makes it."""
    return _sample_words(_block_steps(sub.translations, np.full(len(sub.translations), lam), depth), count, rng)


def _split_ks(m: int, k: int, count: int, seed: int, last_exponent: int) -> float:
    """convolution_check's KS, the combination built term by term with lambda^last_exponent on the last copy."""
    sub = build_subsystem(0.75, m)
    lam = float(sub.ratio)
    depth = _sampling_depth(lam)
    depth += (-depth) % k
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(k + 1)]
    direct = _coding(sub, lam, count, depth, rngs[0])
    copies = [_coding(sub, lam**k, count, depth // k, rng) for rng in rngs[1:]]
    exponents = [*range(k - 1), last_exponent]
    return ks_statistic(direct, sum(lam**e * eta for e, eta in zip(exponents, copies)))


@pytest.mark.parametrize("m, k", [(1, 2), (2, 3), (4, 2)])
def test_convolution_check_detects_the_wrong_scale(m, k):
    # criterion 8b has power: lambda^k in place of lambda^(k-1) on the last copy is far off
    right = [_split_ks(m, k, 100_000, seed, k - 1) for seed in range(1, 6)]
    wrong = [_split_ks(m, k, 100_000, seed, k) for seed in range(1, 6)]
    print(f"m={m} k={k}: KS at lambda^(k-1) at most {max(right):.4f}, at lambda^k at least {min(wrong):.4f}")
    assert max(right) < 0.02
    assert min(wrong) >= 0.05


def test_convolution_requires_k_at_least_two():
    with pytest.raises(ParameterError):
        convolution_check(0.75, 2, 1, 100, seed=0)
    with pytest.raises(ParameterError, match=f"k <= {SPLIT_CAP}"):
        convolution_check(0.75, 2, SPLIT_CAP + 1, 100, seed=0)


def test_subsystem_sampling_reproducible_and_supported():
    ys1 = sample_subsystem_measure(0.75, 4, 5000, seed=9)
    ys2 = sample_subsystem_measure(0.75, 4, 5000, seed=9)
    assert np.array_equal(ys1, ys2)
    assert np.all((ys1 >= 0.0) & (ys1 <= 1.0))


def test_block_coding_matches_direct_split_sum():
    # X restricted to one superblock reproduces the split translation rule
    a = 0.75
    sub = build_subsystem(a, 1)
    lam = float(sub.ratio)
    rng = np.random.default_rng(0)
    xs = _coding(sub, lam, 50_000, 40, rng)
    ys = sample_subsystem_measure(a, 1, 50_000, seed=1)
    assert ks_statistic(xs, ys) < 0.02


@pytest.mark.parametrize("m", [1, 2, 4, 8])
def test_blocked_coding_matches_the_per_position_law(m):
    # two-sample KS against the per-position reference at the 5% critical value 1.36 sqrt(2/N);
    # every map has |rho| = |lambda|, so the |rho|-weighted blocks draw the uniform coding measure.
    # Under equal laws each seed exceeds that value with probability 5%, so the median over the
    # five seeds is held below it: it exceeds it with probability about 0.1% per m
    n = 100_000
    critical = 1.36 * math.sqrt(2.0 / n)
    sub = build_subsystem(0.75, m)
    lam = float(sub.ratio)
    depth = _sampling_depth(lam)
    ks = []
    for seed in range(1, 6):
        blocked = _coding(sub, lam, n, depth, np.random.default_rng(seed))
        reference = sample_per_position(sub.translations, lam, n, depth, np.random.default_rng(1000 + seed))
        ks.append(ks_statistic(blocked, reference))
    print(f"m={m}: KS {np.round(ks, 4).tolist()} against the critical value {critical:.4f}")
    assert np.median(ks) < critical


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
    argv = ["subsystem", "--a", "0.75", "--m", "4", "--check", "slices", "--samples", "40", "--depth", "10",
            "--seed", "2"]
    buf = io.StringIO()
    assert run(argv, stdout=buf) == 0
    d = json.loads(buf.getvalue())
    assert set(d) == {
        "a", "m", "depth", "seed", "sample_count", "excluded", "s0_minus_1", "quantiles", "frac_above",
        "median_estimate", "check", "schema_version",
    }
    assert d["sample_count"] == 40
    assert set(d["frac_above"]) == {str(eps) for eps in report.frac_above}


def test_slice_estimates_refine_toward_bound_with_depth():
    # the cover count grows like C * 2^n with C > 1, so finite-depth estimates
    # sit above s0-1 and deepening the cover moves the median toward the bound
    shallow = slice_lower_bound_report(0.75, 8, 60, 10, seed=8)
    deep = slice_lower_bound_report(0.75, 8, 60, 14, seed=8)
    bound = okamoto_s0(0.75) - 1.0
    assert abs(deep.median_estimate - bound) < abs(shallow.median_estimate - bound)
