"""Per-symbol reference samplers of the projected natural measure and of subsystem coding measures.

Each draws its random word one symbol at a time: per symbol and point, one
draw of the symbol, then the affine update.  The package draws whole blocks
of symbols from alias tables; the tests compare the laws.  sample_blocks keeps
the package's earlier blocked sampler, whose alias choice branched per point,
as the bit-for-bit reference of the branch-free one.
"""

import numpy as np

from okamoto.dimensions import natural_weights
from okamoto.estimators import SAMPLE_BLOCK, SAMPLE_CHUNK, _block_table
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


def alias_draw(prob: np.ndarray, alias: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """size i.i.d. entry indices from an alias table: one uniform gives both the column and the coin."""
    u = rng.random(size)
    u *= len(prob)
    col = u.astype(np.intp)
    if not prob.strides[0]:  # equal weights: prob 1 everywhere, and the coin u - col lies in [0, 1)
        return col
    u -= col
    return np.where(u < prob[col], col, alias[col])


def sample_blocks(tau, rho, depth: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """count points of depth-`depth` words drawn by alias_draw from the package's block tables, applied to 0.

    The branching selection the package's sampler replaced, on the same
    blocks of k symbols, k the largest with N^k <= 3^SAMPLE_BLOCK, and the
    same chunks of SAMPLE_CHUNK points: the same uniforms give the same bits.
    """
    k = 1
    while len(rho) ** (k + 1) <= 3**SAMPLE_BLOCK:
        k += 1
    blocks, rem = divmod(depth, k)
    tables = [_block_table(tau, rho, k)] * blocks + ([_block_table(tau, rho, rem)] if rem else [])
    pts = np.zeros(count)
    for lo in range(0, count, SAMPLE_CHUNK):
        x = pts[lo : lo + SAMPLE_CHUNK]
        for t, r, prob, alias in tables:
            s = alias_draw(prob, alias, len(x), rng)
            x *= r[s]
            x += t[s]
    return pts
