"""Words over the alphabet {1,2,3}: stopping-time covers and subsystem alphabets.

A word is a plain tuple of symbols.  Symbol s corresponds to ternary digit
s-1, so the x-cylinder of a length-n word is a closed interval of width 3^-n
and lexicographic word order is left-to-right order on [0,1].
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Sequence, Union

from .errors import BudgetError, DepthCapError, ParameterError

Word = tuple  # tuple of ints drawn from {1,2,3}
Number = Union[int, float, Fraction]

ALPHABET = (1, 2, 3)
DEPTH_CAP = 16  # longest subsystem block
STOPPING_COVER_BUDGET = 10**7  # stopping-cover size


def check_word(word: Sequence[int]) -> Word:
    w = tuple(word)
    for s in w:
        if s not in (1, 2, 3):
            raise ValueError(f"word symbols must be 1, 2 or 3, got {s!r}")
    return w


def word_to_str(word: Sequence[int]) -> str:
    return "".join(str(s) for s in word)


def check_a(a: Number) -> Number:
    if not (Fraction(1, 2) < a < 1):
        raise ParameterError(f"parameter a must lie in (1/2, 1), got {a}")
    return a


def index_to_word(idx: int, n: int) -> Word:
    """The word at position idx of the lexicographic enumeration of all length-n words."""
    digits = []
    for _ in range(n):
        digits.append(idx % 3 + 1)
        idx //= 3
    return tuple(reversed(digits))


def stopping_cover(a: Number, r: Number) -> tuple:
    """All words with lambda_{i_1}...lambda_{i_n} <= r < lambda_{i_1}...lambda_{i_{n-1}}, sorted.

    lambda = (a, 2a-1, a) are the unsigned contraction ratios.  Depth-first
    descent from the empty word (product 1 > r); a branch stops the first time
    its product drops to r or below, which makes the result prefix-free and
    complete by construction.  Only the ratio product is tracked, and words
    stop at different depths, so this does not use the level kernel of systems.
    """
    check_a(a)
    if not (0 < r < 1):
        raise ParameterError(f"radius r must lie in (0, 1), got {r}")
    lam = (a, 2 * a - 1, a)
    out: list[Word] = []
    stack: list[tuple[Word, Number]] = [((), r / r)]  # empty word, product 1
    while stack:
        word, prod = stack.pop()
        for s in reversed(ALPHABET):
            p = prod * lam[s - 1]
            w = word + (s,)
            if p <= r:
                out.append(w)
                if len(out) > STOPPING_COVER_BUDGET:
                    raise BudgetError(f"stopping cover exceeds {STOPPING_COVER_BUDGET} words")
            else:
                stack.append((w, p))
    out.sort()
    return tuple(out)


def two_count(a: Number, m: int) -> int:
    """floor(m*p) with p = (2a-1)/(4a-1), the expected share of symbol 2."""
    check_a(a)
    if isinstance(a, Fraction) or isinstance(a, int):
        p = Fraction(2 * a - 1, 4 * a - 1)
        return int(p * m)
    return math.floor(m * (2 * a - 1) / (4 * a - 1))


def subsystem_alphabet(a: Number, m: int) -> tuple:
    """All length-m words with exactly floor(m*p) symbols equal to 2, sorted.

    The non-2 positions carry either 1 or 3, so the words are generated from
    position subsets rather than by filtering all of Sigma_m.
    """
    check_a(a)
    if not (1 <= m <= DEPTH_CAP):
        raise DepthCapError(f"m must lie in [1, {DEPTH_CAP}], got {m}")
    j = two_count(a, m)
    words: list[Word] = []
    for two_positions in combinations(range(m), j):
        twos = set(two_positions)
        free = [i for i in range(m) if i not in twos]
        for mask in range(2 ** len(free)):
            w = [2] * m
            for bit, pos in enumerate(free):
                w[pos] = 1 if (mask >> bit) & 1 == 0 else 3
            words.append(tuple(w))
    words.sort()
    return tuple(words)
