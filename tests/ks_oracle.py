"""Reference two-sample Kolmogorov-Smirnov statistic: each empirical CDF searched at every pooled draw.

The package merges the two sorted draws with one argsort and reads the same
counts at the ends of runs of equal values; the tests compare the two bit
for bit.
"""

import numpy as np


def ks_searchsorted(x, y) -> float:
    """sup |F_x - F_y| over the pooled draws, F counting the draws <= each point."""
    xs = np.sort(np.asarray(x))
    ys = np.sort(np.asarray(y))
    grid = np.concatenate([xs, ys])
    fx = np.searchsorted(xs, grid, side="right") / len(xs)
    fy = np.searchsorted(ys, grid, side="right") / len(ys)
    return float(np.max(np.abs(fx - fy)))
