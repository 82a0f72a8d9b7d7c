"""Words over the alphabet {1,2,3}: combinatorics, stopping-time covers, subsystem alphabets.

A word is a plain tuple of symbols.  Symbol s corresponds to ternary digit
s-1, so the x-cylinder of a length-n word is a closed interval of width 3^-n
and lexicographic word order is left-to-right order on [0,1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Sequence, Union

from .errors import BudgetError, DepthCapError, ParameterError

Word = tuple  # tuple of ints drawn from {1,2,3}
Number = Union[int, float, Fraction]

ALPHABET = (1, 2, 3)
DEPTH_CAP = 16  # longest enumerated word and subsystem block
STOPPING_COVER_BUDGET = 10**7  # stopping-cover size


def check_word(word: Sequence[int]) -> Word:
    w = tuple(word)
    for s in w:
        if s not in (1, 2, 3):
            raise ValueError(f"word symbols must be 1, 2 or 3, got {s!r}")
    return w


def word_from_str(text: str) -> Word:
    """Parse a digit string like "123" into a word; "" is the empty word."""
    return check_word(tuple(int(c) for c in text))


def word_to_str(word: Sequence[int]) -> str:
    return "".join(str(s) for s in word)


def check_a(a: Number) -> Number:
    if not (Fraction(1, 2) < a < 1):
        raise ParameterError(f"parameter a must lie in (1/2, 1), got {a}")
    return a


def count_twos(word: Sequence[int]) -> int:
    return sum(1 for s in word if s == 2)


def shift(word: Sequence[int], m: int = 1) -> Word:
    """sigma^m: drop the first m symbols."""
    return tuple(word[m:])


def common_prefix(i: Sequence[int], j: Sequence[int]) -> tuple[Word, int]:
    """Longest common initial part of two words and its length."""
    n = 0
    for x, y in zip(i, j):
        if x != y:
            break
        n += 1
    return tuple(i[:n]), n


def enumerate_words(n: int) -> Iterator[Word]:
    """Yield all 3^n words of length n in lexicographic order."""
    if n < 0:
        raise ValueError(f"word length must be >= 0, got {n}")
    if n > DEPTH_CAP:
        raise DepthCapError(f"depth {n} exceeds cap {DEPTH_CAP}")

    def rec(prefix: Word, k: int) -> Iterator[Word]:
        if k == 0:
            yield prefix
            return
        for s in ALPHABET:
            yield from rec(prefix + (s,), k - 1)

    yield from rec((), n)


def index_to_word(idx: int, n: int) -> Word:
    """The word at position idx of the lexicographic enumeration of all length-n words."""
    digits = []
    for _ in range(n):
        digits.append(idx % 3 + 1)
        idx //= 3
    return tuple(reversed(digits))


def x_cylinder(word: Sequence[int]) -> tuple[Fraction, Fraction]:
    """Closed x-interval coded by a word under the digit convention s -> s-1."""
    from .systems import fold_word  # systems imports this module

    third = Fraction(1, 3)
    lo, width = fold_word((0, third, 2 * third), (third,) * 3, word)
    return lo, lo + width


def symbol_ratios(a: Number) -> tuple[Number, Number, Number]:
    """Unsigned contraction magnitudes (lambda_1, lambda_2, lambda_3) = (a, 2a-1, a)."""
    check_a(a)
    return a, 2 * a - 1, a


def ratio_product(a: Number, word: Sequence[int]) -> Number:
    """Unsigned contraction of a word; it tracks the ratio only, so it needs no translation fold."""
    lam = symbol_ratios(a)
    out = a - a + 1  # one of the same numeric kind as a
    for s in word:
        out *= lam[s - 1]
    return out


@dataclass(frozen=True)
class StoppingCover:
    """Prefix-free, complete set of words whose ratio product first drops <= r."""

    a: Number
    r: Number
    words: tuple

    def __len__(self) -> int:
        return len(self.words)

    def min_length(self) -> int:
        return min(len(w) for w in self.words)

    def max_length(self) -> int:
        return max(len(w) for w in self.words)


def stopping_cover(a: Number, r: Number) -> StoppingCover:
    """All words with lambda_{i_1}...lambda_{i_n} <= r < lambda_{i_1}...lambda_{i_{n-1}}.

    Depth-first descent from the empty word (product 1 > r); a branch stops
    the first time its product drops to r or below, which makes the result
    prefix-free and complete by construction.  Only the ratio product is
    tracked, and words stop at different depths, so this does not use the
    level kernel of systems.
    """
    check_a(a)
    if not (0 < r < 1):
        raise ParameterError(f"radius r must lie in (0, 1), got {r}")
    lam = symbol_ratios(a)
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
    return StoppingCover(a=a, r=r, words=tuple(out))


def two_count(a: Number, m: int) -> int:
    """floor(m*p) with p = (2a-1)/(4a-1), the expected share of symbol 2."""
    check_a(a)
    if isinstance(a, Fraction) or isinstance(a, int):
        p = Fraction(2 * a - 1, 4 * a - 1)
        return int(p * m)
    return math.floor(m * (2 * a - 1) / (4 * a - 1))


def alphabet_size(a: Number, m: int) -> int:
    """Closed-form cardinality 2^(m-floor(pm)) * binomial(m, floor(pm))."""
    j = two_count(a, m)
    return 2 ** (m - j) * math.comb(m, j)


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
