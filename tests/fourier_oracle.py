"""Serial reference of the Monte-Carlo Fourier magnitudes: one frequency after another on the calling thread.

The package splits the frequencies across worker threads with the same
operations per frequency; the tests compare the two bit for bit.
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
