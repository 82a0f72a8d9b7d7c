"""The two one-dimensional IFS families and their finite compositions.

Kinds:
  projection      S_a = {ax, (1-2a)x+a, ax+1-a}, the y-axis projection of the
                  graph IFS (horizontal ratio 1/3, vertical ratios (a, 1-2a, a)).
  conjugate       Phi_b = {((1+b)/2)x-1, -bx, ((1+b)/2)x+1} with b = 2a-1,
                  supported on I_b = [-2/(1-b), 2/(1-b)].

Finite-word projection means the composition applied to 0, i.e. the exact
value of the infinite word w.222... .  All maps keep exact rationals exact: a
Fraction parameter gives Fraction output.

Every composed map comes from one recursion, the one-symbol extension
t' = t + r*tau_s, r' = r*rho_s of the translation t and signed ratio r.  It is
written twice: `fold_word` runs it over one word (compositions), and
`expand_level` runs it over every word of a depth at once on numpy arrays,
with optional pruning (grid box counts, level-set covers, the graph sample).
The depth-n anchors t are the values T(k/3^n), so the graph sample is one
level array.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import ParameterError
from .words import Number, check_a, check_word

KINDS = ("projection", "conjugate")


@dataclass(frozen=True)
class Similarity1D:
    """x -> ratio*x + translation with 0 < |ratio| < 1."""

    ratio: Number
    translation: Number

    def __post_init__(self):
        if self.ratio == 0 or not abs(self.ratio) < 1:
            raise ParameterError(f"similarity ratio must satisfy 0 < |r| < 1, got {self.ratio}")

    def __call__(self, x: Number) -> Number:
        return self.ratio * x + self.translation

    def fixed_point(self) -> Number:
        return self.translation / (1 - self.ratio)


@dataclass(frozen=True)
class SystemSpec:
    kind: str
    parameter: Number
    maps: tuple

    def parts(self) -> tuple:
        """(translations, ratios) of the maps, in symbol order."""
        return tuple(f.translation for f in self.maps), tuple(f.ratio for f in self.maps)


def check_b(b: Number) -> Number:
    if not (0 < b < 1):
        raise ParameterError(f"parameter b must lie in (0, 1), got {b}")
    return b


def build_system(kind: str, parameter: Number) -> SystemSpec:
    if kind == "projection":
        a = check_a(parameter)
        return SystemSpec(
            kind,
            a,
            (
                Similarity1D(a, 0 * a),
                Similarity1D(1 - 2 * a, a),
                Similarity1D(a, 1 - a),
            ),
        )
    if kind == "conjugate":
        b = check_b(parameter)
        half = _half(b)
        return SystemSpec(
            kind,
            b,
            (
                Similarity1D((1 + b) * half, -1),
                Similarity1D(-b, 0 * b),
                Similarity1D((1 + b) * half, 1),
            ),
        )
    raise ParameterError(f"unknown system kind {kind!r}; expected one of {KINDS}")


def _half(b: Number) -> Number:
    return Fraction(1, 2) if isinstance(b, (Fraction, int)) else 0.5


def fold_word(tau: Sequence, rho: Sequence, word: Sequence[int]) -> tuple:
    """(t, r) of the composition of the maps x -> rho[s-1]*x + tau[s-1] along a word.

    Runs the one-symbol extension left to right from the identity, in the
    number kind of rho.  Symbols are not checked here.
    """
    t = 0 * rho[0]
    r = 1 + t
    for s in word:
        t = t + r * tau[s - 1]
        r = r * rho[s - 1]
    return t, r


@dataclass(frozen=True)
class Level:
    """Translations t and signed ratios r of the surviving depth-n words, in lexicographic order.

    kept[l] holds the positions kept among the children at depth l+1, three
    per surviving parent; None for an unpruned expansion, whose i-th word is
    words.index_to_word(i, n).
    """

    t: np.ndarray
    r: np.ndarray
    kept: tuple | None

    def words(self) -> tuple:
        """The surviving words of a pruned expansion of depth >= 1, recovered from the kept positions."""
        n = len(self.kept)
        symbols = np.empty((len(self.t), n), dtype=np.uint8)
        idx = np.arange(len(self.t))
        for depth in reversed(range(n)):
            pos = self.kept[depth][idx]
            symbols[:, depth] = pos % 3 + 1
            idx = pos // 3
        raw = symbols.tobytes()  # a bytes slice iterates as Python ints
        return tuple(tuple(raw[i : i + n]) for i in range(0, len(raw), n))


def expand_level(tau: Sequence, rho: Sequence, n: int, keep: Callable | None = None) -> Level:
    """The one-symbol extension over all depth-n words of a three-map system at once.

    Fraction or int coefficients run on object arrays in exact arithmetic,
    floats on float64.  keep(t, r) masks the words to extend further; their
    positions are kept to recover the words.  Unpruned, no positions are kept.
    """
    exact = all(isinstance(v, (Fraction, int)) for v in (*tau, *rho))
    dtype = object if exact else np.float64
    tau, rho = np.array(tau, dtype=dtype), np.array(rho, dtype=dtype)
    t, r = np.zeros(1, dtype=dtype), np.ones(1, dtype=dtype)
    kept = None if keep is None else []
    for _ in range(n):
        t = (t[:, None] + r[:, None] * tau).ravel()
        r = (r[:, None] * rho).ravel()
        if keep is not None:
            pos = np.flatnonzero(keep(t, r))
            t, r = t[pos], r[pos]
            kept.append(pos)
    return Level(t, r, None if kept is None else tuple(kept))


def compose_word(system: SystemSpec, word: Sequence[int]) -> Similarity1D:
    """Composed map S_{i_1} o ... o S_{i_n} as a single similarity (word nonempty)."""
    w = check_word(word)
    if not w:
        raise ValueError("compose_word needs a nonempty word (the identity is not a contraction)")
    translation, ratio = fold_word(*system.parts(), w)
    return Similarity1D(ratio, translation)
