"""Per-symbol reference sampler of the projected natural measure.

Draws the random word one symbol at a time: per symbol and point, one uniform
and one search of the cumulative natural weights, then the affine update,
innermost map first.  The package's sampler draws whole blocks of symbols from
alias tables; the tests compare the two laws.
"""

import numpy as np

from okamoto.dimensions import natural_weights
from okamoto.systems import projection_parts


def sample_per_symbol(a: float, count: int, depth: int, seed: int) -> np.ndarray:
    """count points of the depth-`depth` coding of S_a with weights (a, 2a-1, a)/(4a-1), applied to 0."""
    cum = np.cumsum(natural_weights(a))
    rng = np.random.default_rng(seed)
    tau, rho = (np.array(v) for v in projection_parts(a))
    pts = np.zeros(count)
    for _ in range(depth):
        s = np.searchsorted(cum, rng.random(count), side="right")
        pts = rho[s] * pts + tau[s]
    return pts
