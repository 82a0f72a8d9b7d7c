"""Point evaluator of Okamoto's function with a guaranteed error bound.

Evaluates T_a(x) one point at a time from the ternary digits of x, through the
word fold of the projection system.  The graph command prints whole levels of
the level kernel instead; the tests compare the two row by row and check the
structural invariants of criterion 9 with this evaluator.
"""

import math
from fractions import Fraction

from okamoto.errors import ParameterError
from okamoto.systems import fold_word, projection_parts
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
