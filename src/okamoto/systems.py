"""The three IFS families and their natural projections.

Kinds:
  okamoto-planar  f_i(x,y) on [0,1]^2 with horizontal ratio 1/3 and vertical
                  ratios (a, 1-2a, a); its attractor is the function graph.
  projection      S_a = {ax, (1-2a)x+a, ax+1-a}, the y-axis projection.
  conjugate       Phi_b = {((1+b)/2)x-1, -bx, ((1+b)/2)x+1} with b = 2a-1,
                  supported on I_b = [-2/(1-b), 2/(1-b)].
  custom-1d       any list of 1-D similarities.

Finite-word projection means the composition applied to 0 (the origin for the
planar system), i.e. the exact value of the infinite word w.222... .  All maps
keep exact rationals exact: a Fraction parameter gives Fraction output.

Every composed map comes from one recursion, the one-symbol extension
t' = t + r*tau_s, r' = r*rho_s of the translation t and signed ratio r.  It is
written twice: `fold_word` runs it over one word (compositions, projections,
cylinder images, the evaluation of T), and `expand_level` runs it over every
word of a depth at once on numpy arrays, with optional pruning (grid box
counts, level-set covers, the graph sample).  The depth-n anchors t are the
values T(k/3^n), so the graph sample is one level array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import ParameterError
from .words import Number, check_a, check_word

KINDS = ("okamoto-planar", "projection", "conjugate", "custom-1d")


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
class AffineDiag2D:
    """(x,y) -> (x_ratio*x + x_shift, y_ratio*y + y_shift)."""

    x_ratio: Number
    y_ratio: Number
    x_shift: Number
    y_shift: Number

    def __post_init__(self):
        if not (0 < self.x_ratio < 1):
            raise ParameterError(f"x_ratio must lie in (0,1), got {self.x_ratio}")
        if self.y_ratio == 0 or not abs(self.y_ratio) < 1:
            raise ParameterError(f"y_ratio must satisfy 0 < |r| < 1, got {self.y_ratio}")

    def __call__(self, point: tuple) -> tuple:
        x, y = point
        return self.x_ratio * x + self.x_shift, self.y_ratio * y + self.y_shift


@dataclass(frozen=True)
class SystemSpec:
    kind: str
    parameter: Number | None
    maps: tuple

    def is_planar(self) -> bool:
        return self.kind == "okamoto-planar"

    def parts(self) -> tuple:
        """(translations, ratios) of a 1-D system's maps, in symbol order."""
        return tuple(f.translation for f in self.maps), tuple(f.ratio for f in self.maps)

    def coordinate_parts(self) -> tuple:
        """One (translations, ratios) pair per coordinate: x then y for the planar system."""
        if self.is_planar():
            return (
                (tuple(f.x_shift for f in self.maps), tuple(f.x_ratio for f in self.maps)),
                (tuple(f.y_shift for f in self.maps), tuple(f.y_ratio for f in self.maps)),
            )
        return (self.parts(),)

    def support(self) -> tuple[Number, Number]:
        """Interval carrying the attractor ([0,1] except for the conjugate system)."""
        if self.kind == "conjugate":
            b = self.parameter
            return -2 / (1 - b), 2 / (1 - b)
        if self.kind == "custom-1d":
            raise ParameterError("custom-1d systems carry no canonical support interval")
        return 0 * self.parameter, 1 + 0 * self.parameter


def check_b(b: Number) -> Number:
    if not (0 < b < 1):
        raise ParameterError(f"parameter b must lie in (0, 1), got {b}")
    return b


def build_system(kind: str, parameter: Number | None = None, maps: Sequence[Similarity1D] = ()) -> SystemSpec:
    if kind == "okamoto-planar":
        a = check_a(parameter)
        third = _third(a)
        planar = (
            AffineDiag2D(third, a, 0 * a, 0 * a),
            AffineDiag2D(third, 1 - 2 * a, third, a),
            AffineDiag2D(third, a, 2 * third, 1 - a),
        )
        return SystemSpec(kind, a, planar)
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
    if kind == "custom-1d":
        if not maps:
            raise ParameterError("custom-1d requires at least one map")
        return SystemSpec(kind, parameter, tuple(maps))
    raise ParameterError(f"unknown system kind {kind!r}; expected one of {KINDS}")


def _third(a: Number) -> Number:
    return Fraction(1, 3) if isinstance(a, (Fraction, int)) else 1.0 / 3.0


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


def project_word(system: SystemSpec, word: Sequence[int]):
    """Finite composition applied to 0 (origin for the planar system)."""
    w = check_word(word)
    point = tuple(fold_word(tau, rho, w)[0] for tau, rho in system.coordinate_parts())
    return point if system.is_planar() else point[0]


def compose_word(system: SystemSpec, word: Sequence[int]) -> Similarity1D:
    """Composed 1-D map S_{i_1} o ... o S_{i_n} as a single similarity (word nonempty)."""
    if system.is_planar():
        raise ParameterError("compose_word applies to 1-D systems only")
    w = check_word(word)
    if not w:
        raise ValueError("compose_word needs a nonempty word (the identity is not a contraction)")
    translation, ratio = fold_word(*system.parts(), w)
    return Similarity1D(ratio, translation)


def image_interval(system: SystemSpec, word: Sequence[int], base: tuple) -> tuple:
    """Image of an interval under the composed map, endpoints sorted."""
    if system.is_planar():
        raise ParameterError("image_interval applies to 1-D systems only")
    translation, ratio = fold_word(*system.parts(), check_word(word))
    e0 = ratio * base[0] + translation
    e1 = ratio * base[1] + translation
    return (e0, e1) if e0 <= e1 else (e1, e0)


# --- polynomials in b -------------------------------------------------------


@dataclass(frozen=True)
class RationalPoly:
    """Polynomial in b with exact rational coefficients, index = power of b."""

    coefficients: tuple

    @staticmethod
    def from_list(coeffs: Sequence[Fraction]) -> "RationalPoly":
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return RationalPoly(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1 if self.coefficients else -1

    def __call__(self, b: Number) -> Number:
        out = 0 * b
        for c in reversed(self.coefficients):
            out = out * b + c
        return out


def pi_polynomial(word: Sequence[int]) -> RationalPoly:
    """Coefficients of the conjugate-system projection of a finite word as a polynomial in b.

    phi_1: v -> (1+b)/2 * v - 1,  phi_2: v -> -b*v,  phi_3: v -> (1+b)/2 * v + 1,
    applied to the zero polynomial from the innermost symbol outward.  The
    number kind here is a polynomial in b, and RationalPoly has no arithmetic
    to run fold_word with, so this keeps its own recursion.
    """
    w = check_word(word)
    half = Fraction(1, 2)
    coeffs: list[Fraction] = []
    for s in reversed(w):
        if s == 2:
            # multiply by -b: shift up one degree, negate
            coeffs = [Fraction(0)] + [-c for c in coeffs]
        else:
            # multiply by (1+b)/2 then add the translation -1 or +1
            shifted = [Fraction(0)] + coeffs
            coeffs = [half * (c0 + c1) for c0, c1 in zip(coeffs + [Fraction(0)], shifted)]
            const = Fraction(-1) if s == 1 else Fraction(1)
            if coeffs:
                coeffs[0] += const
            else:
                coeffs = [const]
    return RationalPoly.from_list(coeffs)


# --- evaluation of the function itself --------------------------------------

DIGIT_CAP = 1000


def ternary_digits(x: Number, n: int) -> list[int]:
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


def evaluate_T(a: Number, x: Number, tolerance: float = 1e-9) -> tuple:
    """Value of the function at x with guaranteed error bound.

    Takes n = ceil(log tolerance / log a) ternary digits of x, maps digit d to
    symbol d+1 and returns the y-part of the composed maps applied to 0, the
    anchor of the digits' cylinder.  The true value lies in the cylinder's
    y-interval, whose width is at most a^n, so |error| <= a^n <= tolerance.
    Returns (y, realized_bound).
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
    y, ratio = fold_word(*build_system("projection", a).parts(), word)
    return y, abs(ratio)


# --- serialization -----------------------------------------------------------


def _num_to_json(v: Number):
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return v


def system_to_json(system: SystemSpec) -> dict:
    if system.is_planar():
        maps = [
            {
                "x_ratio": _num_to_json(f.x_ratio),
                "y_ratio": _num_to_json(f.y_ratio),
                "x_shift": _num_to_json(f.x_shift),
                "y_shift": _num_to_json(f.y_shift),
            }
            for f in system.maps
        ]
    else:
        maps = [
            {"ratio": _num_to_json(f.ratio), "translation": _num_to_json(f.translation)}
            for f in system.maps
        ]
    return {"kind": system.kind, "parameter": _num_to_json(system.parameter), "maps": maps}
