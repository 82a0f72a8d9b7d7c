"""Direct reference of the Monte-Carlo Fourier magnitudes: one cos and sin per point and frequency.

The package sums binned Taylor moments instead, and takes these operations
only for a frequency its bins cannot resolve; the tests compare the two
within the argument rounding, and bit for bit on those frequencies.
"""

import math

import numpy as np


def fourier_serial(points: np.ndarray, t_values) -> np.ndarray:
    """|mean of exp(i t x)| over the points, for each t in order."""
    out = np.empty(len(t_values))
    for k, t in enumerate(t_values):
        arg = t * points
        out[k] = math.hypot(float(np.cos(arg).mean()), float(np.sin(arg).mean()))
    return out
