"""Words over the alphabet {1,2,3}: digit rows, stopping-time covers and subsystem alphabets.

A set of length-n words is an (N, n) uint8 symbol matrix, one word per row,
rows in lexicographic order.  Symbol s corresponds to ternary digit s-1, so
the x-cylinder of a length-n word is a closed interval of width 3^-n and
lexicographic word order is left-to-right order on [0,1].  Stopping covers
are the one exception: their words stop at different depths, so each is a
tuple of symbols.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Union

import numpy as np

from .errors import BudgetError, DepthCapError, ParameterError

Word = tuple  # a stopping-cover word: tuple of ints drawn from {1,2,3}
Number = Union[int, float, Fraction]

ALPHABET = (1, 2, 3)
DEPTH_CAP = 16  # longest subsystem block
STOPPING_COVER_BUDGET = 10**7  # stopping-cover size
ALPHABET_WORD_CAP = 1 << 20  # subsystem words built: m = 14 at a = 0.75 (745 472 words), not m = 15


def check_a(a: Number) -> Number:
    if not (Fraction(1, 2) < a < 1):
        raise ParameterError(f"parameter a must lie in (1/2, 1), got {a}")
    return a


def float_a(a: Number) -> float:
    """check_a, then float(a) for the float-only paths: a rational whose float leaves (1/2, 1) is rejected."""
    af = float(check_a(a))
    if not (0.5 < af < 1.0):
        raise ParameterError(f"parameter a = {a} rounds to the float {af}, outside (1/2, 1); exact paths take it")
    return af


def check_block_length(m: int) -> None:
    if not (1 <= m <= DEPTH_CAP):
        raise DepthCapError(f"m must lie in [1, {DEPTH_CAP}], got {m}")


def check_printable(value: Fraction | int, what: str) -> None:
    """BudgetError unless the numerator and denominator of value convert to text.

    Python refuses to turn an integer of more than sys.get_int_max_str_digits()
    digits into text (0: no limit); the limit is read, never set.  An int bound
    on the numerators and denominators of results checks them all at once.
    """
    limit = sys.get_int_max_str_digits()
    if limit and max(abs(value.numerator), value.denominator) >= 10**limit:
        raise BudgetError(f"{what} would print an integer of more than {limit} digits, Python's int-to-text limit")


def digit_rows(idx, n: int, base: int = 3) -> np.ndarray:
    """Row i holds the n base-`base` digits of idx[i], most significant first.

    The rows of arange(base^n) are all length-n digit strings in lexicographic
    order; adding 1 to base-3 digits gives words.  Each column is one divmod
    of the indices, so no power of the base is formed.
    """
    idx = np.asarray(idx, dtype=np.int64)
    rows = np.empty((len(idx), n), dtype=np.min_scalar_type(base - 1))
    for col in reversed(range(n)):
        idx, rows[:, col] = np.divmod(idx, base)
    return rows


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
    """floor(m*p) with p = (2a-1)/(4a-1), the expected share of symbol 2, exact at a float's own value."""
    a = Fraction(check_a(a))
    return math.floor(m * (2 * a - 1) / (4 * a - 1))


def subsystem_alphabet(a: Number, m: int, limit: int | None = None) -> np.ndarray:
    """The (N, m) matrix of all length-m words with exactly floor(m*p) symbols 2, in lexicographic order.

    A word is a head of m//2 symbols followed by a tail holding the twos the
    head leaves.  Heads in lexicographic order, each followed by its tails in
    lexicographic order, give the words in lexicographic order.  With a limit,
    only the first `limit` words are built, beyond the 3^(m//2) heads and
    3^(m - m//2) tails.  The C(m, j) 2^(m-j) words, j = floor(m*p), or the
    limit if smaller, are counted first: past ALPHABET_WORD_CAP they are a
    BudgetError before anything is built.
    """
    check_a(a)
    check_block_length(m)
    twos = two_count(a, m)
    size = math.comb(m, twos) * 2 ** (m - twos)
    if limit is not None:
        size = min(size, limit)
    if size > ALPHABET_WORD_CAP:
        raise BudgetError(f"subsystem alphabet of {size} words at m = {m} exceeds cap {ALPHABET_WORD_CAP}")
    h = m // 2
    heads, tails = (digit_rows(np.arange(3**n), n) + 1 for n in (h, m - h))
    need = twos - np.count_nonzero(heads == 2, axis=1)  # twos each head leaves to its tails
    tail_twos = np.count_nonzero(tails == 2, axis=1)
    by_twos = np.argsort(tail_twos, kind="stable")  # tails grouped by their twos, each group in order
    grouped = tail_twos[by_twos]
    starts = np.searchsorted(grouped, need)
    sizes = np.searchsorted(grouped, need, side="right") - starts
    ends = np.cumsum(sizes)
    k = np.arange(ends[-1] if limit is None else min(limit, ends[-1]))
    head = np.searchsorted(ends, k, side="right")  # word k is tail k - (ends - sizes)[head] of its head's group
    tail = by_twos[starts[head] + k - (ends - sizes)[head]]
    return np.hstack([heads[head], tails[tail]])
