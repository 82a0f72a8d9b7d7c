"""Graph oracles: a point evaluator of Okamoto's function and a sort-based grid box count.

evaluate_T evaluates T_a(x) one point at a time from the ternary digits of x,
through the word fold of the projection system, with a guaranteed error bound.
The graph command prints whole levels of the level kernel instead; the tests
compare the two row by row and check the structural invariants of criterion 9
with this evaluator.

box_count_grid_sorted builds every column's samples as one matrix and sorts
each row before its greedy cover; the grid box count must equal it.
"""

import math
from fractions import Fraction

import numpy as np

from okamoto.errors import ParameterError
from okamoto.estimators import _grid_sampling_levels
from okamoto.systems import expand_level, fold_word, projection_parts
from okamoto.words import check_a

DIGIT_CAP = 1000


def ternary_digits(x, n: int) -> list:
    """First n ternary digits of x in [0,1], terminating expansion for triadic rationals.

    x = 1 codes as repeating digit 2 (the only admissible coding).  Floats are
    converted to the exact binary rational they represent.
    """
    frac = Fraction(x)
    if not (0 <= frac <= 1):
        raise ParameterError(f"x must lie in [0, 1], got {x}")
    if frac == 1:
        return [2] * n
    digits = []
    for _ in range(n):
        frac *= 3
        d = int(frac)  # floor for frac >= 0
        digits.append(d)
        frac -= d
    return digits


def evaluate_T(a, x, tolerance: float = 1e-9) -> tuple:
    """(T_a(x), realized error bound).

    Takes n = ceil(log tolerance / log a) ternary digits of x, maps digit d to
    symbol d+1 and returns the y-part of the composed maps applied to 0, the
    anchor of the digits' cylinder.  The true value lies in the cylinder's
    y-interval, whose width is at most a^n, so |error| <= a^n <= tolerance.
    """
    check_a(a)
    if not tolerance > 0:
        raise ParameterError(f"tolerance must be positive, got {tolerance}")
    if x == 0 or x == 1:
        # fixed points of the first and last map; the anchor recursion only
        # approaches 1 from below, so return the exact endpoint values
        return (0 * a if x == 0 else 1 + 0 * a), 0 * a
    n = max(1, math.ceil(math.log(tolerance) / math.log(float(a))))
    if n > DIGIT_CAP:
        raise ParameterError(f"tolerance {tolerance} needs {n} digits, beyond cap {DIGIT_CAP}")
    word = [d + 1 for d in ternary_digits(x, n)]
    y, ratio = fold_word(*projection_parts(a), word)
    return y, abs(ratio)


def box_count_grid_sorted(a: float, n: int) -> int:
    """Boxes needed for sampled graph points, greedily covered column by column.

    Samples are the cylinder anchors _grid_sampling_levels deeper plus the
    right endpoint, all exact graph points.  Covering the sampled points of one
    column with height-delta boxes greedily needs at most ceil(extent/delta)
    boxes, so this count never exceeds the column formula.
    """
    tau, rho = projection_parts(a)
    level = expand_level(tau, rho, n)
    t, r = level.t, level.r
    anchors = np.append(expand_level(tau, rho, _grid_sampling_levels(a, n)).t, 1.0)
    delta = 3.0**-n
    total = 0
    chunk = max(64, (1 << 22) // len(anchors))
    for lo in range(0, len(t), chunk):
        ys = t[lo : lo + chunk, None] + r[lo : lo + chunk, None] * anchors[None, :]
        ys.sort(axis=1)
        cover_end = np.full(ys.shape[0], -np.inf)
        counts = np.zeros(ys.shape[0], dtype=np.int64)
        for col in range(ys.shape[1]):
            yi = ys[:, col]
            fresh = yi > cover_end
            counts[fresh] += 1
            cover_end[fresh] = yi[fresh] + delta
        total += int(counts.sum())
    return total
