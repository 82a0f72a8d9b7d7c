"""Per-symbol reference samplers of the projected natural measure and of subsystem coding measures.

Each draws its random word one symbol at a time: per symbol and point, one
draw of the symbol, then the affine update.  The package draws whole blocks
of symbols from alias tables; the tests compare the laws.
"""

import numpy as np

from okamoto.dimensions import natural_weights
from okamoto.systems import projection_parts


def sample_per_symbol(a: float, count: int, depth: int, seed: int) -> np.ndarray:
    """count points of the depth-`depth` coding of S_a with weights (a, 2a-1, a)/(4a-1), applied to 0.

    One uniform and one search of the cumulative natural weights per symbol,
    innermost map first.
    """
    cum = np.cumsum(natural_weights(a))
    rng = np.random.default_rng(seed)
    tau, rho = (np.array(v) for v in projection_parts(a))
    pts = np.zeros(count)
    for _ in range(depth):
        s = np.searchsorted(cum, rng.random(count), side="right")
        pts = rho[s] * pts + tau[s]
    return pts


def sample_per_position(
    translations: np.ndarray, lam: float, count: int, depth: int, rng: np.random.Generator
) -> np.ndarray:
    """X = sum_l lambda^(l-1) tau_l over i.i.d. uniform translations, l = 1..depth, outermost map first."""
    out = np.zeros(count)
    scale = 1.0
    for _ in range(depth):
        idx = rng.integers(0, len(translations), count)
        out += scale * translations[idx]
        scale *= lam
    return out
