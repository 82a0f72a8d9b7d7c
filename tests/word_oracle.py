"""Word-by-word oracles: one word's projection, and the level-set cover by exhaustive and prefix filters.

Each folds every word on its own, sharing no code with the level kernel that
the package's covers run on.  The oracles give words as tuples; word_tuples
turns the package's uint8 symbol matrices into the same tuples, so the tests
compare the two exactly.
"""

from itertools import product

from okamoto.systems import fold_word, projection_parts


def word_tuples(symbols):
    """The rows of a symbol matrix as a tuple of word tuples, in row order."""
    return tuple(map(tuple, symbols.tolist()))


def project(tau, rho, word):
    """Finite-word projection: the composition along the word applied to 0."""
    return fold_word(tau, rho, word)[0]


def exhaustive_level_filter(a, y, n):
    """Every depth-n word whose closed y-interval between t and t + r contains y, in lexicographic order."""
    parts = projection_parts(a)
    out = []
    for w in product((1, 2, 3), repeat=n):
        t, r = fold_word(*parts, w)
        if min(t, t + r) <= y <= max(t, t + r):
            out.append(w)
    return tuple(out)


def _interval_holds(tau, rho, word, y):
    t, r = fold_word(tau, rho, word)
    return min(t, t + r) <= y <= max(t, t + r)


def prefix_level_filter(a, y, n):
    """Every depth-n word each of whose prefixes has a closed y-interval containing y, in lexicographic order.

    This is the branch and bound of the package's covers, one word at a time:
    on floats a word whose own interval holds y may still drop out at a prefix.
    """
    parts = projection_parts(a)
    words = [()]
    for _ in range(n):
        words = [w + (s,) for w in words for s in (1, 2, 3) if _interval_holds(*parts, w + (s,), y)]
    return tuple(words)
