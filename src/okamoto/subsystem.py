"""Homogeneous subsystems of higher iterates and their absolute-continuity probes.

For block length m, the alphabet keeps the length-m words with exactly
floor(m*p) symbols 2, p = (2a-1)/(4a-1).  Every composed map then shares the
signed ratio lambda = a^(m-floor(pm)) * (1-2a)^floor(pm), which makes the
subsystem homogeneous and its uniform coding measure a convolution:

    grouping block positions by their residue mod k,
    mu_m  =  law(sum_{j<k} lambda^j eta_j)  =  law(rho) * (lambda^(k-1) . law(eta)),

with i.i.d. copies eta_j of eta (translations S_j(0), ratio lambda^k); rho,
the first k-1 terms, codes the k-1 off positions per superblock.  The
lambda^(k-1) scale of the last copy is forced by the block algebra; the
Kolmogorov-Smirnov check below exercises it.  Every |ratio| is |lambda|, so
estimators' one blocked sampler, which weighs map s by |rho_s|, draws the
uniform coding measure from the translations and lambda (or lambda^k).

The gamma conjugation carries rho's system into a subsystem of the k-fold
iterate.  Composing k-1 blocks and then the all-1s-then-2s block yields the
correction term S_i(0) * lambda^(k-1); because a plausible alternate reading
puts lambda^k there, gamma_conjugate tests both exponents exactly and records the
one that satisfies the identity.  An alphabet is the (N, m) uint8 matrix of
its words, and the gamma check indexes it with block-tuple rows; both fold
whole symbol matrices at once (systems.fold_rows), in the level kernel's
number kind: integers over a common denominator, int64 under its proven bound
and Python ints beyond it, or float64 for float a; a subsystem's translations
stay fold_rows' numerators over its unit, one array entry per word.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetError, ParameterError
from .estimators import (
    SAMPLE_COUNT_CAP, SAMPLE_DEPTH_CAP, _block_steps, _check_count, _check_levels, _sample_words, ks_statistic,
    level_statistics,
)
from .dimensions import okamoto_s0
from .systems import fold_rows, fold_word, projection_parts
from .words import (
    Number, check_a, check_block_length, check_printable, digit_rows, float_a, subsystem_alphabet, two_count,
)

SAMPLING_TAIL = 1e-9  # the sampling depth keeps the dropped tail sum_{l >= depth} |lambda|^l below this
SAMPLING_DEPTH_CAP = 10**4  # deepest sampled word: refuses |lambda| above about 0.997
GAMMA_TUPLE_BUDGET = 4096  # block tuples checked by the gamma conjugation
SPLIT_CAP = 16  # largest block split k of the gamma conjugation and the convolution check
SLICE_EPSILONS = (0.05, 0.1)  # slice report: share of estimates >= s0 - 1 - epsilon


def subsystem_ratio(a: Number, m: int) -> Number:
    """Signed shared contraction ratio a^(m-j) (1-2a)^j with j = floor(pm), for m in [1, DEPTH_CAP]."""
    check_a(a)
    check_block_length(m)
    j = two_count(a, m)
    return a ** (m - j) * (1 - 2 * a) ** j


@dataclass(frozen=True)
class HomogeneousSystem:
    """Word i, row i of alphabet, maps x -> ratio*x + translations[i]/unit (fold_rows' t and unit)."""

    alphabet: np.ndarray
    ratio: Number
    translations: np.ndarray
    unit: Number


def build_subsystem(a: Number, m: int, limit: int | None = None) -> HomogeneousSystem:
    """Compositions S_w over the alphabet, or its first `limit` words; ratios checked exactly for rational a."""
    alphabet = subsystem_alphabet(a, m, limit)
    t, r, unit = fold_rows(*projection_parts(a), alphabet)
    lam = subsystem_ratio(a, m)
    if isinstance(a, (Fraction, int)):
        bad = _first_mismatch(r, unit, lam)
        if bad is not None:
            raise AssertionError(f"ratio mismatch for word {alphabet[bad]}: {Fraction(int(r[bad]), unit)} != {lam}")
    return HomogeneousSystem(alphabet=alphabet, ratio=lam, translations=t, unit=unit)


def _first_mismatch(values: np.ndarray, unit: int, target: Fraction) -> int | None:
    """Position of the first values[i] / unit that differs from target, compared on integers, or None."""
    scaled = target * unit
    if scaled.denominator != 1:
        return 0 if len(values) else None
    bad = np.flatnonzero(values != scaled.numerator)
    return int(bad[0]) if len(bad) else None


def _check_split(k: int, what: str) -> None:
    """The block split k lies in [2, SPLIT_CAP]; the work of both checks grows with k."""
    if k < 2:
        raise ParameterError(f"{what} needs k >= 2, got {k}")
    if k > SPLIT_CAP:
        raise ParameterError(f"{what} needs k <= {SPLIT_CAP}, got {k}")


# --- sampling and the convolution identity -----------------------------------------


def _sampling_depth(lam: float) -> int:
    return max(4, math.ceil(math.log(SAMPLING_TAIL * (1.0 - abs(lam))) / math.log(abs(lam))))


def _coding_law(a: float, m: int, count: int, k: int = 1, passes: int = 1) -> tuple:
    """(lambda, depth, steps) of passes * count draws from the uniform coding measure, refused before the build.

    lambda is subsystem_ratio's closed form and the depth _sampling_depth's,
    rounded up to whole superblocks of k blocks.  A depth past
    SAMPLING_DEPTH_CAP, or more symbol draws than sample_measure takes
    (passes * count * depth past SAMPLE_COUNT_CAP * SAMPLE_DEPTH_CAP), is a
    BudgetError before the subsystem is built.  steps(ratio, depth) gives the
    selection steps of a depth-`depth` word of the maps x -> ratio*x +
    translations; the alphabet matrix is released before any table is built.
    """
    lam = subsystem_ratio(a, m)
    depth = _sampling_depth(lam)
    depth += (-depth) % k
    if depth > SAMPLING_DEPTH_CAP:
        raise BudgetError(f"sampling depth {depth} for |lambda| = {abs(lam)} exceeds cap {SAMPLING_DEPTH_CAP}")
    cap = SAMPLE_COUNT_CAP * SAMPLE_DEPTH_CAP
    if passes * count * depth > cap:
        times = f"{passes} x " if passes > 1 else ""
        raise BudgetError(f"{times}{count} draws of depth {depth} exceed the cap of {cap} symbol draws")
    tau = build_subsystem(a, m).translations
    return lam, depth, lambda ratio, n: _block_steps(tau, np.broadcast_to(ratio, tau.shape), n)


def sample_subsystem_measure(a: float, m: int, count: int, seed: int) -> np.ndarray:
    """Draw from the uniform-coding measure of the subsystem, every input checked before it is built."""
    a = float_a(a)
    _check_count(count)
    lam, depth, steps = _coding_law(a, m, count)
    return _sample_words(steps(lam, depth), count, np.random.default_rng(seed))


@dataclass(frozen=True)
class ConvolutionReport:
    a: float
    m: int
    k: int
    count: int
    depth: int
    scale_exponent: int  # the last copy of eta enters scaled by lambda^(k-1)
    ks: float


def convolution_check(a: float, m: int, k: int, count: int, seed: int) -> ConvolutionReport:
    """KS distance between a direct draw from mu_m and sum_{j<k} lambda^j eta_j over k copies of eta."""
    a = float_a(a)
    _check_split(k, "convolution split")
    _check_count(count)
    lam, depth, steps = _coding_law(a, m, count, k, passes=2)  # the direct draw, then k copies of depth/k
    rng_direct, *rng_copies = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(k + 1))
    direct = _sample_words(steps(lam, depth), count, rng_direct)
    eta = steps(lam**k, depth // k)  # one set of tables for all k copies
    # sum_{j<k} lambda^j eta_j by Horner's rule, from the last copy down
    combined = np.zeros(count)
    for rng in reversed(rng_copies):
        combined *= lam
        combined += _sample_words(eta, count, rng)
    return ConvolutionReport(
        a=a,
        m=m,
        k=k,
        count=count,
        depth=depth,
        scale_exponent=k - 1,
        ks=ks_statistic(direct, combined),
    )


# --- gamma conjugation ----------------------------------------------------------------


@dataclass(frozen=True)
class GammaReport:
    a: Fraction
    m: int
    k: int
    offset: Fraction
    exponent: int  # e with gamma(x) = x + S_i(0) lambda^e / (1 - lambda^k)
    exact: bool
    checked: int
    candidates: dict  # exponent -> identity held over all checked tuples


def gamma_conjugate(a: Number, m: int, k: int) -> tuple:
    """(gamma offset, conjugated system, report): exact verification of the conjugation identity.

    gamma(x) = x + c turns every off-positions map g into lambda^k x + t_g +
    c(1 - lambda^k); the claim is that this equals the composition
    S_{j_1} o ... o S_{j_{k-1}} o S_i with the all-1s-then-2s block i.  The
    off-positions translation t_g = sum_l lambda^(l-1) tau_{j_l} is the fold
    of the block translations with ratio lambda.  The first GAMMA_TUPLE_BUDGET
    block tuples, in lexicographic order, are checked.  Both candidate offsets
    are tried and the verified exponent is recorded.  Once the identity
    holds, the conjugated maps are the compositions of the flat words, so the
    conjugated system is their HomogeneousSystem (ratio lambda^k), in tuple
    order; it is None when no exponent holds.  The tuples index only the
    first GAMMA_TUPLE_BUDGET words, so only those are composed.

    Each side runs on whole arrays in the level kernel's integer kind: the
    alphabet prefix, the block tuples folded over the prefix's numerators,
    and the flat words (the tuple's blocks, then the block i) composed symbol
    by symbol from S_a, never from the composed blocks.  The identity
    c(1 - lambda^k) = S_i(0) lambda^e is compared by integer
    cross-multiplication over one common unit.
    """
    _check_split(k, "gamma conjugation")
    a = Fraction(check_a(a))
    check_block_length(m)
    j = two_count(a, m)
    tilde = np.repeat(np.array([1, 2], dtype=np.uint8), (m - j, j))
    parts = projection_parts(a)
    lam = subsystem_ratio(a, m)
    lam_k = lam**k
    tau_tilde = fold_word(*parts, tilde)[0]
    offsets = {e: tau_tilde * lam**e / (1 - lam_k) for e in (k - 1, k)}
    # the block algebra gives e = k - 1, the offset the report prints: refuse it before the build if too long
    check_printable(offsets[k - 1], "the gamma offset")
    sub = build_subsystem(a, m, GAMMA_TUPLE_BUDGET)
    size = len(sub.alphabet)

    # the first block tuples in lexicographic order: the base-size digit rows of 0, 1, 2, ...
    combos = digit_rows(np.arange(min(size ** (k - 1), GAMMA_TUPLE_BUDGET)), k - 1, base=size)
    # over the prefix's integer numerators, so g_t is over g_unit * sub.unit
    g_t, _, g_unit = fold_rows(sub.translations.tolist(), (lam,) * size, combos + 1)
    g_unit *= sub.unit
    blocks = sub.alphabet[combos].reshape(len(combos), -1)
    flat = np.hstack([blocks, np.tile(tilde, (len(combos), 1))])
    flat_t, flat_r, flat_unit = fold_rows(*parts, flat)
    # flat_t / flat_unit - g_t / g_unit, over the common unit flat_unit * g_unit
    diff = flat_t.astype(object) * g_unit - g_t.astype(object) * flat_unit
    ratios_hold = _first_mismatch(flat_r, flat_unit, lam_k) is None

    candidates = {}
    for exponent in (k - 1, k):
        # offset * (1 - lambda^k) with offset = S_i(0) lambda^e / (1 - lambda^k)
        shift = tau_tilde * lam**exponent
        candidates[exponent] = ratios_hold and _first_mismatch(diff, flat_unit * g_unit, shift) is None
    held = [e for e in (k - 1, k) if candidates[e]]  # the first exponent that holds is the one reported
    exponent = held[0] if held else 0
    offset = offsets[exponent] if held else Fraction(0)
    report = GammaReport(
        a=a, m=m, k=k, offset=offset, exponent=exponent, exact=bool(held),
        checked=len(combos), candidates=candidates,
    )
    conjugated = HomogeneousSystem(alphabet=flat, ratio=lam_k, translations=flat_t, unit=flat_unit) if held else None
    return offset, conjugated, report


# --- entropy ratio ------------------------------------------------------------------------


@dataclass(frozen=True)
class EntropyRatioReport:
    a: float
    m: int
    k: int
    ratio: float
    limit: float
    limit_exceeds_one: bool


def entropy_ratio(a: float, m: int, k: int) -> EntropyRatioReport:
    """(k-1) log|alphabet| / (-k log|lambda|) and its closed-form large-(m,k) limit."""
    af = float_a(a)
    if not (1 <= m <= 2**53 and 1 <= k <= 2**53):
        raise ParameterError(f"m and k must lie in [1, 2^53], the integers float64 holds exactly, got {m}, {k}")
    p = (2.0 * af - 1.0) / (4.0 * af - 1.0)
    j = two_count(af, m)
    log_alphabet = (m - j) * math.log(2.0) + (
        math.lgamma(m + 1) - math.lgamma(j + 1) - math.lgamma(m - j + 1)
    )
    log_lam = (m - j) * math.log(af) + j * math.log(2.0 * af - 1.0)
    ratio = 0.0 if k == 1 else (k - 1) * log_alphabet / (-k * log_lam)
    numerator = -p * math.log(p) - (1.0 - p) * math.log((1.0 - p) / 2.0)
    denominator = -p * math.log(2.0 * af - 1.0) - (1.0 - p) * math.log(af)
    limit = numerator / denominator
    return EntropyRatioReport(
        a=af, m=m, k=k, ratio=ratio, limit=limit, limit_exceeds_one=limit > 1.0
    )


# --- slice lower bound ----------------------------------------------------------------------


@dataclass(frozen=True)
class SliceBoundReport:
    a: float
    m: int
    depth: int
    seed: int
    sample_count: int
    excluded: int
    s0_minus_1: float
    quantiles: dict
    frac_above: dict  # epsilon -> fraction of estimates >= s0 - 1 - epsilon
    median_estimate: float


def slice_lower_bound_report(a: float, m: int, sample_count: int, depth: int, seed: int) -> SliceBoundReport:
    """Level-set dimension estimates at levels drawn from the subsystem measure.

    Levels that land exactly on the endpoint atoms 0 or 1 (where the level set
    degenerates) are excluded and counted.  a, the level count and the depth
    are checked before the subsystem is built.
    """
    a = float_a(a)
    _check_levels(sample_count, depth)
    ys = sample_subsystem_measure(a, m, sample_count, seed)
    keep = (ys > 0.0) & (ys < 1.0)
    stats = level_statistics(a, ys[keep], depth)
    bound = okamoto_s0(a) - 1.0
    return SliceBoundReport(
        a=a,
        m=m,
        depth=depth,
        seed=seed,
        sample_count=sample_count,
        excluded=int(len(ys) - keep.sum()),
        s0_minus_1=bound,
        quantiles=stats.quantiles,
        frac_above={eps: float(np.mean(stats.estimates >= bound - eps)) for eps in SLICE_EPSILONS},
        median_estimate=stats.median,
    )
