"""Closed-form and root-solved dimension quantities for the function graph.

The central identities, for a in (1/2,1) and b = 2a-1:

    s0:       (4a-1) * (1/3)^(s0-1) = 1,  i.e.  s0 = 1 + log(4a-1)/log 3
    weights:  p = (a, 2a-1, a) / (4a-1)
    entropy:  h = -sum p_i log p_i ;  chi1 = -sum p_i log|beta_i| ;  chi2 = log 3
    dim:      1 + (h - chi1)/chi2  which collapses back to s0
    tau(q):   (1/3)^((s0-1)q) * (2 a^(q-tau) + b^(q-tau)) = 1
    L^q dim:  min{tau(q)/(q-1), 1}

tau(q) is the one root solved: bisection with a 200-iteration cap on a
pressure that is monotone in tau, bracketed by stepping upward from q-1.  A
bracket that would pass the tau where b^(q-tau) overflows a float (large q,
whose factor (1/3)^((s0-1)q) underflows) is refused before the overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from .errors import ParameterError
from .words import Number, check_a, float_a

LOG3 = math.log(3.0)
BISECT_ITERS = 200
RESIDUAL_TOL = 1e-12


def _bisect(f, lo: float, hi: float) -> float:
    """Root of an increasing f on [lo, hi] with f(lo) <= 0 <= f(hi)."""
    for _ in range(BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        v = f(mid)
        if v == 0.0:
            return mid
        if v < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def okamoto_s0(a: Number) -> float:
    """Box/affinity dimension of the graph: 1 + log(4a-1)/log 3."""
    return 1.0 + math.log(4.0 * float_a(a) - 1.0) / LOG3


def natural_weights(a: Number) -> tuple:
    """(a, 2a-1, a)/(4a-1); exact when a is rational, sums to 1 by construction."""
    check_a(a)
    if isinstance(a, (Fraction, int)):
        s = Fraction(4 * a - 1)
        return (Fraction(a) / s, Fraction(2 * a - 1) / s, Fraction(a) / s)
    s = 4.0 * a - 1.0
    return (a / s, (2.0 * a - 1.0) / s, a / s)


def tau_q(a: Number, q: float) -> float:
    """Multifractal exponent: unique tau with (1/3)^((s0-1)q) (2 a^(q-tau) + b^(q-tau)) = 1."""
    af = float_a(a)
    if not 1 <= q < math.inf:
        raise ParameterError(f"q must be finite and >= 1, got {q}")
    if q == 1:
        return 0.0
    b = 2.0 * af - 1.0
    s0 = okamoto_s0(af)
    lead = 3.0 ** (-(s0 - 1.0) * q)

    def pressure(tau: float) -> float:
        return lead * (2.0 * af ** (q - tau) + b ** (q - tau)) - 1.0

    lo = q - 1.0  # pressure < 1 here whenever q > 1
    hi = q
    # above q the larger term is b^(q - tau), which overflows a float past tau = top
    top = q + 1024 * math.log(2.0) / -math.log(b)
    while pressure(hi) < 0.0:
        hi += max(1.0, hi - lo)
        if hi > top:
            raise ParameterError(f"tau bracket at q = {q} passes tau = {top:.6g}, where b^(q - tau) overflows a float")
        if hi > 1e9:
            raise ParameterError("tau bracket expansion failed")
    root = _bisect(pressure, lo, hi)
    if abs(pressure(root)) >= RESIDUAL_TOL:
        raise ParameterError(f"tau residual {pressure(root)} exceeds {RESIDUAL_TOL}")
    return root


def lq_dimension(a: Number, q: float) -> float:
    """L^q dimension of the projected natural measure: min{tau(q)/(q-1), 1}."""
    if q <= 1:
        raise ParameterError(f"L^q dimension needs q > 1, got {q}")
    return min(tau_q(a, q) / (q - 1.0), 1.0)


def assouad_bound(a: Number, slice_sup_estimate: float) -> float:
    """max{dim of the graph, 1 + sup over slices}, at most 2 as a slice lies on a line; s0-1 returns s0."""
    if not 0 <= slice_sup_estimate <= 1:
        raise ParameterError(f"slice estimate must lie in [0, 1], got {slice_sup_estimate}")
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
    af = float_a(a)
    p = natural_weights(af)
    h = -sum(x * math.log(x) for x in p)
    chi1 = -sum(x * math.log(r) for x, r in zip(p, (af, 2.0 * af - 1.0, af)))
    return DimReport(
        a=af,
        b=2.0 * af - 1.0,
        s0=okamoto_s0(af),
        weights=p,
        entropy=h,
        chi1=chi1,
        chi2=LOG3,
        fenghu_dim=1.0 + (h - chi1) / LOG3,
        level_set_bound=okamoto_s0(af) - 1.0,
    )
