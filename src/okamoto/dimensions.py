"""Closed-form and root-solved dimension quantities for the function graph.

The central identities, for a in (1/2,1) and b = 2a-1:

    s0:       (4a-1) * (1/3)^(s0-1) = 1,  i.e.  s0 = 1 + log(4a-1)/log 3
    weights:  p = (a, 2a-1, a) / (4a-1)
    entropy:  h = -sum p_i log p_i ;  chi1 = -sum p_i log|beta_i| ;  chi2 = log 3
    dim:      1 + (h - chi1)/chi2  which collapses back to s0
    tau(q):   (1/3)^((s0-1)q) * (2 a^(q-tau) + b^(q-tau)) = 1
    L^q dim:  min{tau(q)/(q-1), 1}

All root solving is bisection with a 200-iteration cap; every pressure used
here is monotone in its argument, so brackets are found by doubling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import ParameterError
from .words import Number, check_a

LOG3 = math.log(3.0)
BISECT_ITERS = 200
RESIDUAL_TOL = 1e-12


def _bisect(f, lo: float, hi: float, increasing: bool) -> float:
    """Root of f on [lo, hi] with f(lo) <= 0 <= f(hi) (signs swapped if decreasing)."""
    for _ in range(BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        v = f(mid)
        if v == 0.0:
            return mid
        if (v < 0.0) == increasing:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def similarity_dimension(ratios: Sequence[float]) -> float:
    """Unique s with sum |r_i|^s = 1; bracket expands upward for overlapping lists."""
    if not ratios:
        raise ParameterError("similarity_dimension needs at least one ratio")
    rs = [abs(float(r)) for r in ratios]
    for r in rs:
        if not (0 < r < 1):
            raise ParameterError(f"ratios must satisfy 0 < |r| < 1, got {r}")
    f = lambda s: sum(r**s for r in rs) - 1.0
    if f(0.0) <= 0.0:  # single map: sum == 1 at s = 0
        return 0.0
    hi = 1.0
    while f(hi) > 0.0:
        hi *= 2.0
        if hi > 1e6:
            raise ParameterError("similarity dimension bracket expansion failed")
    root = _bisect(f, 0.0, hi, increasing=False)
    assert abs(f(root)) < RESIDUAL_TOL
    return root


def okamoto_s0(a: Number) -> float:
    """Box/affinity dimension of the graph: 1 + log(4a-1)/log 3."""
    check_a(a)
    return 1.0 + math.log(4.0 * float(a) - 1.0) / LOG3


def okamoto_s0_bisection(a: Number) -> float:
    """Root of (4a-1)(1/3)^(s-1) = 1, solved blind; cross-check for okamoto_s0."""
    check_a(a)
    c = 4.0 * float(a) - 1.0
    f = lambda s: c * 3.0 ** (1.0 - s) - 1.0
    root = _bisect(f, 0.0, 2.0, increasing=False)
    assert abs(f(root)) < RESIDUAL_TOL
    return root


def affinity_pressure(alphas: Sequence[float], betas: Sequence[float], s: float) -> float:
    """Singular-value pressure for diagonal planar systems.

    0 <= s <= 1 : max(sum a_i^s, sum |b_i|^s)
    1 <  s <  2 : max(sum a_i |b_i|^(s-1), sum |b_i| a_i^(s-1))
    2 <= s      : sum (a_i |b_i|)^(s/2)
    """
    al = [float(x) for x in alphas]
    be = [abs(float(x)) for x in betas]
    if s <= 1.0:
        return max(sum(x**s for x in al), sum(y**s for y in be))
    if s < 2.0:
        return max(
            sum(x * y ** (s - 1.0) for x, y in zip(al, be)),
            sum(y * x ** (s - 1.0) for x, y in zip(al, be)),
        )
    return sum((x * y) ** (s / 2.0) for x, y in zip(al, be))


def affinity_dimension(alphas: Sequence[float], betas: Sequence[float]) -> float:
    """Root of the pressure P(s) = 1, capped at 2 (ambient planar dimension)."""
    if len(alphas) != len(betas) or not alphas:
        raise ParameterError("alphas and betas must be nonempty, equal-length")
    for x in alphas:
        if not (0 < float(x) < 1):
            raise ParameterError(f"alpha out of (0,1): {x}")
    for y in betas:
        if not (0 < abs(float(y)) < 1):
            raise ParameterError(f"beta out of (0,1) in modulus: {y}")
    f = lambda s: affinity_pressure(alphas, betas, s) - 1.0
    if f(0.0) <= 0.0:
        return 0.0
    if f(2.0) >= 0.0:
        return 2.0
    root = _bisect(f, 0.0, 2.0, increasing=False)
    assert abs(f(root)) < RESIDUAL_TOL
    return root


def natural_weights(a: Number) -> tuple:
    """(a, 2a-1, a)/(4a-1); exact when a is rational, sums to 1 by construction."""
    check_a(a)
    if isinstance(a, (Fraction, int)):
        s = Fraction(4 * a - 1)
        return (Fraction(a) / s, Fraction(2 * a - 1) / s, Fraction(a) / s)
    s = 4.0 * a - 1.0
    return (a / s, (2.0 * a - 1.0) / s, a / s)


def entropy_lyapunov(p: Sequence[float], y_ratios: Sequence[float]) -> tuple:
    """(h, chi1, chi2) with the 0*log(0) = 0 convention; chi2 = log 3 exactly."""
    p = [float(x) for x in p]
    if len(p) != len(y_ratios):
        raise ParameterError("weights and ratios must have equal length")
    if any(x < 0 for x in p) or abs(sum(p) - 1.0) > 1e-9:
        raise ParameterError(f"not a probability vector: {p}")
    for r in y_ratios:
        if not (0 < abs(float(r)) < 1):
            raise ParameterError(f"ratio out of range: {r}")
    h = -sum(x * math.log(x) for x in p if x > 0.0)
    chi1 = -sum(x * math.log(abs(float(r))) for x, r in zip(p, y_ratios))
    return h, chi1, LOG3


def feng_hu_dim(a: Number) -> float:
    """1 + (h - chi1)/chi2 for the natural weights; equals s0 up to rounding."""
    check_a(a)
    af = float(a)
    p = [float(x) for x in natural_weights(af)]
    h, chi1, chi2 = entropy_lyapunov(p, (af, 2.0 * af - 1.0, af))
    return 1.0 + (h - chi1) / chi2


def tau_q(a: Number, q: float) -> float:
    """Multifractal exponent: unique tau with (1/3)^((s0-1)q) (2 a^(q-tau) + b^(q-tau)) = 1."""
    check_a(a)
    if q < 1:
        raise ParameterError(f"q must be >= 1, got {q}")
    if q == 1:
        return 0.0
    af = float(a)
    b = 2.0 * af - 1.0
    s0 = okamoto_s0(af)
    lead = 3.0 ** (-(s0 - 1.0) * q)

    def pressure(tau: float) -> float:
        return lead * (2.0 * af ** (q - tau) + b ** (q - tau)) - 1.0

    lo = q - 1.0  # pressure < 1 here whenever q > 1
    hi = q
    while pressure(hi) < 0.0:
        hi += max(1.0, hi - lo)
        if hi > 1e9:
            raise ParameterError("tau bracket expansion failed")
    root = _bisect(pressure, lo, hi, increasing=True)
    if abs(pressure(root)) >= RESIDUAL_TOL:
        raise ParameterError(f"tau residual {pressure(root)} exceeds {RESIDUAL_TOL}")
    return root


def lq_dimension(a: Number, q: float) -> float:
    """L^q dimension of the projected natural measure: min{tau(q)/(q-1), 1}."""
    if q <= 1:
        raise ParameterError(f"L^q dimension needs q > 1, got {q}")
    return min(tau_q(a, q) / (q - 1.0), 1.0)


def assouad_bound(a: Number, slice_sup_estimate: float) -> float:
    """max{dim of the graph, 1 + sup over slices}; the slice bound s0-1 returns s0."""
    check_a(a)
    if slice_sup_estimate < 0:
        raise ParameterError(f"slice estimate must be >= 0, got {slice_sup_estimate}")
    return max(okamoto_s0(a), 1.0 + slice_sup_estimate)


@dataclass(frozen=True)
class DimReport:
    a: float
    b: float
    s0: float
    weights: tuple
    entropy: float
    chi1: float
    chi2: float
    fenghu_dim: float
    level_set_bound: float  # s0 - 1


def dim_report(a: Number) -> DimReport:
    check_a(a)
    af = float(a)
    p = tuple(float(x) for x in natural_weights(af))
    h, chi1, chi2 = entropy_lyapunov(p, (af, 2.0 * af - 1.0, af))
    return DimReport(
        a=af,
        b=2.0 * af - 1.0,
        s0=okamoto_s0(af),
        weights=p,
        entropy=h,
        chi1=chi1,
        chi2=chi2,
        fenghu_dim=1.0 + (h - chi1) / chi2,
        level_set_bound=okamoto_s0(af) - 1.0,
    )
