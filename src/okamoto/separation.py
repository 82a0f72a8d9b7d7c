"""Minimal projection gaps and separation certificates for the conjugate family.

The conjugate family Phi_b = {((1+b)/2)x-1, -bx, ((1+b)/2)x+1}, b = 2a-1 in
(0, 1), is S_a carried onto I_b = [-2/(1-b), 2/(1-b)] by x -> 4(x - 1/2)/(1-b),
so its depth-n projections are those of S_a, scaled by 4/(1-b).  The maps of
Phi_b live in the test suite, with the all-pairs gap oracle that recomputes
every projection from them.

Gaps run on the level kernel in exact arithmetic.  With a = (1+b)/2, the
conjugacy h(x) = 4(x - 1/2)/(1-b) fixes phi_w(0) = h(S_w(1/2)), and
S_w(1/2) = (2t + r) / (2 unit) for the kernel's integer t and r.  h is
increasing, so the integers 2t + r sort like the projections, and an adjacent
difference g is the gap 2g / (unit (1-b)).  The integers are sorted plainly
(np.sort, no index order), and the witness words are found afterwards by
scans in word order (see delta_n_detail).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DepthCapError, ParameterError
from .systems import expand_level, projection_parts
from .words import check_printable, digit_rows

SEPARATION_DEPTH_CAP = 12


def _check_rational_b(b) -> Fraction:
    if not isinstance(b, (Fraction, int)):
        raise ParameterError(f"exact separation arithmetic needs a rational b, got {b!r}")
    b = Fraction(b)
    if not (0 < b < 1):
        raise ParameterError(f"parameter b must lie in (0, 1), got {b}")
    return b


def delta_n_detail(b, n: int) -> tuple:
    """(gap, witnessing words): the first minimal adjacent pair of the sorted depth-n projections.

    The values are sorted plainly, so the sort itself keeps no word.  The pair
    is a (2, n) uint8 symbol matrix, one word per row, in sorted order, taken
    by two scans in word (lexicographic) order, where a stable sort would
    place tied words: at a zero gap the first two words at that value; at a
    positive gap, where no two values tie, the last word at the lower value
    and the first at the upper one.
    """
    b = _check_rational_b(b)
    if n < 1:
        raise ParameterError(f"depth n must be >= 1, got {n}")
    if n > SEPARATION_DEPTH_CAP:
        raise DepthCapError(f"depth capped at n <= {SEPARATION_DEPTH_CAP}, got {n}")
    level = expand_level(*projection_parts((1 + b) / 2), n)
    values = 2 * level.t + level.r
    ordered = np.sort(values)
    diffs = np.diff(ordered)
    i = int(np.argmin(diffs))
    gap = Fraction(2 * int(diffs[i]), level.unit * (1 - b))
    at_lower = np.flatnonzero(values == ordered[i])
    pair = at_lower[:2] if diffs[i] == 0 else [at_lower[-1], np.argmax(values == ordered[i + 1])]
    return gap, digit_rows(pair, n) + 1


@dataclass(frozen=True)
class SeparationReport:
    b: Fraction
    depths: tuple
    gaps: tuple  # Fractions, one per depth
    epsilon: float  # min_n gap_n^(1/n)
    passed: bool  # all gaps positive
    floors: tuple  # comparison column (b*eps/2)^n
    witness: np.ndarray | None  # (2, n) symbol matrix of a word pair achieving a zero gap, if any

    def rows(self) -> list:
        out = []
        for n, g, f in zip(self.depths, self.gaps, self.floors):
            rate = float(g) ** (1.0 / n) if g > 0 else 0.0
            out.append({"n": n, "gap": g, "gap_root": rate, "floor": f})
        return out


def verify_sesc(b, n_max: int = 8) -> SeparationReport:
    """Empirical separation certificate: exact gaps for n = 1..n_max.

    With b = p/q in lowest terms, the ratios (1+b)/2 and -b of Phi_b are
    fractions over 2q and its translations are -1, 0 and 1, so phi_w(0) is a
    fraction over (2q)^(n-1) and so is every depth-n gap.  The words u2 and
    u1 lie |r_u| <= 1 apart, so every minimal gap is at most 1: its
    numerator and denominator are at most (2q)^(n-1).  A b and n_max whose
    bound (2q)^(n_max-1) has more digits than Python prints are refused
    before any gap is computed.
    """
    b = _check_rational_b(b)
    if not (1 <= n_max <= SEPARATION_DEPTH_CAP):
        raise DepthCapError(f"n_max must lie in [1, {SEPARATION_DEPTH_CAP}], got {n_max}")
    check_printable((2 * b.denominator) ** (n_max - 1), f"separation to depth {n_max}")
    depths = tuple(range(1, n_max + 1))
    gaps = []
    witness = None
    for n in depths:
        gap, pair = delta_n_detail(b, n)
        gaps.append(gap)
        if gap == 0 and witness is None:
            witness = pair
    passed = all(g > 0 for g in gaps)
    epsilon = min(float(g) ** (1.0 / n) for n, g in zip(depths, gaps)) if passed else 0.0
    floors = tuple((float(b) * epsilon / 2) ** n for n in depths)
    return SeparationReport(
        b=b,
        depths=depths,
        gaps=tuple(gaps),
        epsilon=epsilon,
        passed=passed,
        floors=floors,
        witness=witness,
    )
