"""S_a, the one-dimensional system of the package, and its finite compositions.

S_a = {ax, (1-2a)x+a, ax+1-a} is the y-axis projection of the graph IFS
(horizontal ratio 1/3, vertical ratios (a, 1-2a, a)).  It is held as its pair
(tau, rho) of translations and signed ratios: map s is x -> rho[s-1]*x +
tau[s-1].  The conjugate family Phi_b of the separation gaps lives in the test
suite, beside the all-pairs oracle that uses it.

Finite-word projection means the composition applied to 0, i.e. the exact
value of the infinite word w.222... .  All maps keep exact rationals exact: a
Fraction parameter gives Fraction output.

Every composed map comes from one recursion, the one-symbol extension
t' = t + r*tau_s, r' = r*rho_s of the translation t and signed ratio r.
`fold_word` runs it along chosen words: one, or every row of a symbol matrix
at once (`fold_rows`: subsystem alphabets, the gamma check's block tuples).
`expand_level` makes every all-words array (grid anchors, level-set covers,
the graph sample, the sampler's block maps): `_levels` hands out each depth
in turn, with optional pruning, from one root or several side by side (the
level counts' batched prefix covers), each depth one `_children` pass, one
strided pass per symbol whose C order is the lexicographic order, keeping
the prune's boolean masks to recover the surviving words.  The separation
gaps take every depth of one pass and apply `_children` to the depth-(n-1)
maps and three points instead of building depth n: verify_sesc(2/5, 11)
takes 5.6 ms, against 7.5 ms with every depth expanded afresh (timeit, best
of 60, 2-vCPU VM).  Symbols are not checked: every word folded is one the
package built.  Both array forms share one exact number kind, integers over
the common denominator d of the coefficients, t' = d*t + r*tau_s with tau
and rho scaled by d, int64 where a proven bound allows and Python ints beyond
it; floats run on float64 with d = 1.0.  The depth-n anchors t are the
values T(k/3^n), so the graph sample is one level array.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .words import Number, check_a


def projection_parts(a: Number) -> tuple:
    """(translations, ratios) of S_a in symbol order: ((0, a, 1-a), (a, 1-2a, a))."""
    a = check_a(a)
    return (0 * a, a, 1 - a), (a, 1 - 2 * a, a)


def fold_word(tau: Sequence, rho: Sequence, word: Sequence, d: int | float = 1) -> tuple:
    """(t, r) of the composition of the maps x -> rho[s-1]*x + tau[s-1] along a word.

    Runs the one-symbol extension t' = d*t + r*tau_s, r' = r*rho_s left to
    right from the identity, in the number kind of rho; d = 1 gives the map
    itself.  Each symbol may also be a column of symbols indexing numpy
    coefficient arrays, which folds every row of a symbol matrix at once (see
    fold_rows).
    """
    t = 0 * rho[0]
    r = 1 + t
    for s in word:
        t = d * t + r * tau[s - 1]
        r = r * rho[s - 1]
    return t, r


def _number_kind(tau: Sequence, rho: Sequence, n: int) -> tuple:
    """(d, tau, rho) of the array extension to depth n: coefficient arrays scaled by d.

    Rational coefficients with common denominator d run exactly on integers;
    floats run on float64 with d = 1.0, which is exact.
    """
    if all(isinstance(v, (Fraction, int)) for v in itertools.chain(tau, rho)):
        d = math.lcm(*(Fraction(v).denominator for v in (*tau, *rho)))
        tau, rho = [int(v * d) for v in tau], [int(v * d) for v in rho]
        # With T = max|tau|, c = max(d, max|rho|): |r| <= c^l at depth l, and
        # |t_l| <= d|t_(l-1)| + c^(l-1) T gives |t_l| <= l T c^(l-1).  So every
        # intermediate to depth n (d*t, r*tau, r*rho, the prune's t + r and a
        # level y*d^l in [0, 1], the separation's 2t + r, formed as
        # 2d*t_u + r_u*(2tau_s + rho_s) from the depth-(n-1) maps) is within
        # (2nT + c) c^(n-1); below 2^63 int64 is exact, else Python ints.
        c = max(d, *map(abs, rho))
        bound = (2 * n * max(map(abs, tau)) + c) * c ** max(n - 1, 0)
        dtype = np.int64 if bound < 2**63 else object
    else:
        d, dtype = 1.0, np.float64
    return d, np.asarray(tau, dtype=dtype), np.asarray(rho, dtype=dtype)


def fold_rows(tau: Sequence, rho: Sequence, words) -> tuple:
    """(t, r, unit): fold_word along every row of an (N, n) symbol matrix, n >= 1, at once.

    Row i's map is x -> (r[i]*x + t[i]) / unit with unit = d^n, in the number
    kind of expand_level: every float bit for bit as fold_word gives it, every
    rational exactly.
    """
    words = np.asarray(words)
    d, tau, rho = _number_kind(tau, rho, words.shape[1])
    t, r = fold_word(tau, rho, words.T, d)
    return t, r, d ** words.shape[1]


@dataclass(frozen=True)
class Level:
    """Translations t and signed ratios r of the surviving depth-n words, in lexicographic order.

    A word's map is x -> (r*x + t) / unit, unit being d^n over integers
    (see expand_level) and 1.0 for floats.  kept[l] is the boolean mask of
    the children kept at depth l+1, three per surviving parent in symbol
    order (only S_a is pruned); None for an unpruned expansion of N maps,
    whose i-th word is the i-th base-N digit row plus one.
    """

    t: np.ndarray
    r: np.ndarray
    kept: tuple | None
    unit: int | float = 1.0

    def symbols(self) -> np.ndarray:
        """The (N, n) uint8 symbol matrix of a pruned expansion of depth >= 1, row i the word of t[i].

        The kept masks turn into positions here only: the child at position p
        among a depth's 3N children is word p // 3 of the depth above followed
        by symbol p % 3 + 1.
        """
        n = len(self.kept)
        symbols = np.empty((len(self.t), n), dtype=np.uint8)
        idx = np.arange(len(self.t))
        for depth in reversed(range(n)):
            pos = np.flatnonzero(self.kept[depth])[idx]
            symbols[:, depth] = pos % 3 + 1
            idx = pos // 3
        return symbols


def _children(r: np.ndarray, coef: np.ndarray, t: np.ndarray, d, rho: np.ndarray | None = None):
    """d*t + r*coef[s] of every child in word order, one strided pass per symbol s, and with rho r*rho[s]."""
    T = np.empty((len(t), len(coef)), dtype=coef.dtype)
    R = None if rho is None else np.empty_like(T)
    dt = t if d == 1 else d * t  # formed after the children, an order that keeps the exact pass's peak; freed on return
    for s in range(len(coef)):
        np.multiply(r, coef[s], out=T[:, s])
        T[:, s] += dt
        if R is not None:
            np.multiply(r, rho[s], out=R[:, s])
    return T.ravel() if R is None else (T.ravel(), R.ravel())


def _levels(d, tau: np.ndarray, rho: np.ndarray, n: int, keep: Callable | None = None, roots: int = 1):
    """Yield the Level of every depth 0..n in turn: the one-symbol extension, one depth per step.

    tau and rho are coefficient arrays scaled by d in a number kind of
    _number_kind, which must hold every depth handed out: a caller that goes
    one step further on the yielded maps chooses the kind for that depth.
    """
    t, r = np.zeros(roots, dtype=tau.dtype), np.ones(roots, dtype=tau.dtype)
    kept = None if keep is None else []
    for depth in range(n + 1):
        if depth:
            t, r = _children(r, tau, t, d, rho)
            if keep is not None:
                mask = keep(t, r, d**depth)
                t, r = t[mask], r[mask]
                kept.append(mask)
        yield Level(t, r, None if kept is None else tuple(kept), d**depth)


def expand_level(tau: Sequence, rho: Sequence, n: int, keep: Callable | None = None, roots: int = 1) -> Level:
    """The one-symbol extension over all depth-n words of a system of N maps at once.

    Rational coefficients with common denominator d run exactly on integers,
    t' = d*t + r*tau_s and r' = r*rho_s with tau and rho scaled by d; floats
    run on float64 with d = 1.0, which is exact, so d*t is t itself there.

    Each depth is one _children pass, whose C-order (P, N) arrays ravel in
    the lexicographic order of the children.  keep(t, r, unit) masks the
    words to extend further, unit = d^l at depth l; the masks are kept to
    recover the words.  Unpruned, no masks are kept, and entry i is the word
    of the i-th base-N digit row of length n, plus one.

    roots > 1 starts from that many copies of the identity and extends them
    side by side, so one call runs several pruned expansions at once: the
    words of root i come before those of root i + 1, and keep tells the roots
    apart by the masks it has returned (a child at position p of a depth
    descends from entry p // 3 of the depth above).

    The depths come from _levels, which hands out each one in turn; the
    shallower ones are dropped unbound, so each parent is freed once its
    children are built, before keep runs on them.
    """
    levels = _levels(*_number_kind(tau, rho, n), n, keep, roots)
    for _ in range(n):
        next(levels)
    return next(levels)
