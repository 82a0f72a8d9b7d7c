"""Word-by-word oracles: one word's projection, and the level-set cover by exhaustive filter.

Both fold each word on its own, sharing no code with the level kernel that the
package's covers run on.  The tests compare the two exactly.
"""

from itertools import product

from okamoto.systems import compose_word, fold_word, projection_parts


def project(tau, rho, word):
    """Finite-word projection: the composition along the word applied to 0."""
    return fold_word(tau, rho, word)[0]


def exhaustive_level_filter(a, y, n):
    """Every depth-n word whose closed y-interval between t and t + r contains y, in lexicographic order."""
    parts = projection_parts(a)
    out = []
    for w in product((1, 2, 3), repeat=n):
        t, r = compose_word(*parts, w)
        if min(t, t + r) <= y <= max(t, t + r):
            out.append(w)
    return tuple(out)
