"""Homogeneous subsystems of higher iterates and their absolute-continuity probes.

For block length m, the alphabet keeps the length-m words with exactly
floor(m*p) symbols 2, p = (2a-1)/(4a-1).  Every composed map then shares the
signed ratio lambda = a^(m-floor(pm)) * (1-2a)^floor(pm), which makes the
subsystem homogeneous and its uniform coding measure a convolution:

    splitting block positions at multiples of k,
    mu_m  =  law(rho)  *  (lambda^(k-1) . law(eta)),

where rho codes the k-1 off positions per superblock (ratio lambda^k,
translation sum_{l<k} lambda^(l-1) S_j(0)) and eta codes the k-th positions
(ratio lambda^k, translation S_j(0)).  The lambda^(k-1) scaling of eta is
forced by the block algebra; the Kolmogorov-Smirnov check below exercises it.

The gamma conjugation carries rho's system into a subsystem of the k-fold
iterate.  Composing k-1 blocks and then the all-1s-then-2s block yields the
correction term S_i(0) * lambda^(k-1); because a plausible alternate reading
puts lambda^k there, the builder tests both exponents in exact rational
arithmetic and records the one that satisfies the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product

import numpy as np

from .errors import ParameterError
from .estimators import ks_statistic, level_statistics
from .dimensions import okamoto_s0
from .systems import Similarity1D, build_system, compose_word, fold_word
from .words import Number, check_a, subsystem_alphabet, two_count

SAMPLING_TAIL = 1e-9  # the sampling depth keeps the dropped tail sum_{l >= depth} |lambda|^l below this
GAMMA_TUPLE_BUDGET = 4096  # block tuples checked by the gamma conjugation
SLICE_EPSILONS = (0.05, 0.1)  # slice report: share of estimates >= s0 - 1 - epsilon


def subsystem_ratio(a: Number, m: int) -> Number:
    """Signed shared contraction ratio a^(m-j) (1-2a)^j with j = floor(pm)."""
    check_a(a)
    j = two_count(a, m)
    return a ** (m - j) * (1 - 2 * a) ** j


@dataclass(frozen=True)
class HomogeneousSystem:
    a: Number
    m: int
    alphabet: tuple
    ratio: Number
    maps: tuple

    def translations(self) -> np.ndarray:
        return np.array([float(f.translation) for f in self.maps])


def build_subsystem(a: Number, m: int) -> HomogeneousSystem:
    """Compositions S_w over the subsystem alphabet; ratios checked exactly for rational a."""
    alphabet = subsystem_alphabet(a, m)
    system = build_system("projection", a)
    lam = subsystem_ratio(a, m)
    exact = isinstance(a, (Fraction, int))
    maps = []
    for w in alphabet:
        f = compose_word(system, w)
        if exact and f.ratio != lam:
            raise AssertionError(f"ratio mismatch for word {w}: {f.ratio} != {lam}")
        maps.append(Similarity1D(lam, f.translation))
    return HomogeneousSystem(a=a, m=m, alphabet=alphabet, ratio=lam, maps=tuple(maps))


# --- sampling and the convolution identity -----------------------------------------


def _sampling_depth(lam: float) -> int:
    return max(4, math.ceil(math.log(SAMPLING_TAIL * (1.0 - abs(lam))) / math.log(abs(lam))))


def _sample_block_coding(
    translations: np.ndarray,
    lam: float,
    count: int,
    depth: int,
    rng: np.random.Generator,
    skip_every: int = 0,
) -> np.ndarray:
    """X = sum_l lambda^(l-1) tau_l over i.i.d. uniform blocks, optionally skipping l = 0 mod k."""
    out = np.zeros(count)
    scale = 1.0
    for l in range(1, depth + 1):
        if not (skip_every and l % skip_every == 0):
            idx = rng.integers(0, len(translations), count)
            out += scale * translations[idx]
        scale *= lam
    return out


def sample_subsystem_measure(a: float, m: int, count: int, seed: int) -> np.ndarray:
    """Draw from the uniform-coding measure of the subsystem."""
    sub = build_subsystem(float(a), m)
    lam = float(sub.ratio)
    rng = np.random.default_rng(seed)
    return _sample_block_coding(sub.translations(), lam, count, _sampling_depth(lam), rng)


@dataclass(frozen=True)
class ConvolutionReport:
    a: float
    m: int
    k: int
    count: int
    depth: int
    scale_exponent: int  # the eta component enters scaled by lambda^(k-1)
    ks: float

    def to_json(self) -> dict:
        return {
            "a": self.a,
            "m": self.m,
            "k": self.k,
            "count": self.count,
            "depth": self.depth,
            "scale_exponent": self.scale_exponent,
            "ks": self.ks,
        }


def convolution_check(a: float, m: int, k: int, count: int, seed: int) -> ConvolutionReport:
    """KS distance between a direct draw from mu_m and the split-convolution draw."""
    if k < 2:
        raise ParameterError(f"convolution split needs k >= 2, got {k}")
    sub = build_subsystem(float(a), m)
    lam = float(sub.ratio)
    taus = sub.translations()
    depth = _sampling_depth(lam)
    depth += (-depth) % k  # whole superblocks
    streams = np.random.SeedSequence(seed).spawn(3)
    rng_x, rng_y, rng_z = (np.random.default_rng(s) for s in streams)
    direct = _sample_block_coding(taus, lam, count, depth, rng_x)
    off = _sample_block_coding(taus, lam, count, depth, rng_y, skip_every=k)
    lam_k = lam**k
    kth = _sample_block_coding(taus, lam_k, count, depth // k, rng_z)
    combined = off + lam ** (k - 1) * kth
    return ConvolutionReport(
        a=float(a),
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

    def to_json(self) -> dict:
        return {
            "a": str(self.a),
            "m": self.m,
            "k": self.k,
            "offset": str(self.offset),
            "exponent": self.exponent,
            "exact": self.exact,
            "checked": self.checked,
            "candidates": {str(e): ok for e, ok in self.candidates.items()},
        }


def gamma_conjugate(a: Number, m: int, k: int) -> tuple:
    """(gamma offset, conjugated maps, report): exact verification of the conjugation identity.

    gamma(x) = x + c turns every off-positions map g into lambda^k x + t_g +
    c(1 - lambda^k); the claim is that this equals the composition
    S_{j_1} o ... o S_{j_{k-1}} o S_i with the all-1s-then-2s block i.  The
    off-positions translation t_g = sum_l lambda^(l-1) tau_{j_l} is the fold
    of the block translations with ratio lambda.  The first GAMMA_TUPLE_BUDGET
    block tuples, in lexicographic order, are checked.  Both candidate offsets
    are tried and the verified exponent is recorded.
    """
    if k < 2:
        raise ParameterError(f"gamma conjugation needs k >= 2, got {k}")
    a = Fraction(a)
    check_a(a)
    j = two_count(a, m)
    tilde = (1,) * (m - j) + (2,) * j
    system = build_system("projection", a)
    sub = build_subsystem(a, m)
    lam = sub.ratio
    lam_k = lam**k
    tau_tilde = compose_word(system, tilde).translation
    taus = tuple(f.translation for f in sub.maps)
    rho = (lam,) * len(taus)

    combos = list(islice(product(range(1, len(taus) + 1), repeat=k - 1), GAMMA_TUPLE_BUDGET))
    g_translations = [fold_word(taus, rho, combo)[0] for combo in combos]

    candidates = {}
    for exponent in (k - 1, k):
        offset = tau_tilde * lam**exponent / (1 - lam_k)
        ok = True
        for combo, t_g in zip(combos, g_translations):
            flat = tuple(s for idx in combo for s in sub.alphabet[idx - 1]) + tilde
            rhs = compose_word(system, flat)
            if rhs.ratio != lam_k or rhs.translation != t_g + offset * (1 - lam_k):
                ok = False
                break
        candidates[exponent] = ok
    if not any(candidates.values()):
        report = GammaReport(
            a=a, m=m, k=k, offset=Fraction(0), exponent=0, exact=False,
            checked=len(combos), candidates=candidates,
        )
        return Fraction(0), (), report
    exponent = k - 1 if candidates[k - 1] else k
    offset = tau_tilde * lam**exponent / (1 - lam_k)
    conjugated = tuple(Similarity1D(lam_k, t + offset * (1 - lam_k)) for t in g_translations)
    report = GammaReport(
        a=a, m=m, k=k, offset=offset, exponent=exponent, exact=True,
        checked=len(combos), candidates=candidates,
    )
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

    def to_json(self) -> dict:
        return {
            "a": self.a,
            "m": self.m,
            "k": self.k,
            "ratio": self.ratio,
            "limit": self.limit,
            "limit_exceeds_one": self.limit_exceeds_one,
        }


def entropy_ratio(a: float, m: int, k: int) -> EntropyRatioReport:
    """(k-1) log|alphabet| / (-k log|lambda|) and its closed-form large-(m,k) limit."""
    check_a(a)
    if m < 1 or k < 1:
        raise ParameterError(f"m and k must be >= 1, got {m}, {k}")
    af = float(a)
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

    def to_json(self) -> dict:
        return {
            "a": self.a,
            "m": self.m,
            "depth": self.depth,
            "seed": self.seed,
            "sample_count": self.sample_count,
            "excluded": self.excluded,
            "s0_minus_1": self.s0_minus_1,
            "quantiles": self.quantiles,
            "frac_above": {str(eps): frac for eps, frac in self.frac_above.items()},
            "median_estimate": self.median_estimate,
        }


def slice_lower_bound_report(a: float, m: int, sample_count: int, depth: int, seed: int) -> SliceBoundReport:
    """Level-set dimension estimates at levels drawn from the subsystem measure.

    Levels that land exactly on the endpoint atoms 0 or 1 (where the level set
    degenerates) are excluded and counted.
    """
    ys = sample_subsystem_measure(a, m, sample_count, seed)
    keep = (ys > 0.0) & (ys < 1.0)
    stats = level_statistics(a, ys[keep], depth)
    bound = okamoto_s0(a) - 1.0
    return SliceBoundReport(
        a=float(a),
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
