"""The conjugate family Phi_b and the all-pairs oracle for its minimal projection gap Delta_n(b).

Recomputes every depth-n projection independently by folding each word through
Phi_b (the composition applied to 0) and minimizes |v_i - v_j| over all pairs,
sharing no code with the sorted-adjacent gap in okamoto.separation.  The tests
compare the two exactly.
"""

from fractions import Fraction
from itertools import product

import numpy as np

from okamoto.errors import DepthCapError, ParameterError
from okamoto.systems import fold_word

EXHAUSTIVE_CAP = 8

_INT64_SAFE = 2**62


def conjugate_parts(b):
    """(translations, ratios) of Phi_b = {((1+b)/2)x-1, -bx, ((1+b)/2)x+1}; exact for rational b.

    Phi_b is supported on I_b = [-2/(1-b), 2/(1-b)] and is S_a conjugated by
    x -> 4(x - 1/2)/(1-b), with b = 2a-1.
    """
    if not (0 < b < 1):
        raise ParameterError(f"parameter b must lie in (0, 1), got {b}")
    half = (1 + b) / 2
    return (-1, 0 * b, 1), (half, -b, half)


def delta_exhaustive(b: Fraction, n: int) -> tuple:
    """(gap, witnessing word pair) by all pairs: every projection recomputed per word."""
    if n > EXHAUSTIVE_CAP:
        raise DepthCapError(f"all-pairs oracle capped at n <= {EXHAUSTIVE_CAP}, got {n}")
    parts = conjugate_parts(b)
    words = list(product((1, 2, 3), repeat=n))
    unit = (2 * b.denominator) ** n
    scaled = []
    for w in words:
        v = fold_word(*parts, w)[0] * unit
        assert v.denominator == 1
        scaled.append(v.numerator)
    bound = max(abs(v) for v in scaled)
    if 2 * bound < _INT64_SAFE and len(scaled) > 64:
        gap, (ia, ib) = _all_pairs_min_numpy(np.asarray(scaled, dtype=np.int64))
    else:
        gap, (ia, ib) = _all_pairs_min_python(scaled)
    return Fraction(int(gap), unit), (words[ia], words[ib])


def _all_pairs_min_numpy(vals: np.ndarray, chunk: int = 512) -> tuple:
    n = len(vals)
    best = None
    pair = (0, 1)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        diffs = np.abs(vals[lo:hi, None] - vals[None, :])
        rows = np.arange(lo, hi)
        diffs[rows - lo, rows] = np.iinfo(np.int64).max  # mask self-pairs
        flat = np.argmin(diffs)
        r, c = divmod(int(flat), n)
        d = int(diffs[r, c])
        if best is None or d < best:
            best, pair = d, (lo + r, c)
    return best, pair


def _all_pairs_min_python(vals: list) -> tuple:
    best = None
    pair = (0, 1)
    for i in range(len(vals)):
        vi = vals[i]
        for j in range(i + 1, len(vals)):
            d = abs(vi - vals[j])
            if best is None or d < best:
                best, pair = d, (i, j)
    return best, pair
