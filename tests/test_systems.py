import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graph_oracle import evaluate_T, ternary_digits
from okamoto.errors import ParameterError
from okamoto.estimators import level_set_cover
from okamoto.systems import expand_level, fold_rows, fold_word, projection_parts
from okamoto.words import digit_rows
from separation_oracle import conjugate_parts
from word_oracle import exhaustive_level_filter, project, word_tuples

words_st = st.lists(st.sampled_from([1, 2, 3]), min_size=0, max_size=8).map(tuple)


def test_build_projection():
    assert projection_parts(0.75) == ((0.0, 0.75, 0.25), (0.75, -0.5, 0.75))
    q = Fraction(1, 4)
    assert projection_parts(3 * q) == ((0, 3 * q, q), (3 * q, -2 * q, 3 * q))
    assert all(isinstance(v, Fraction) for v in sum(projection_parts(Fraction(2, 3)), ()))


def test_build_conjugate():
    assert conjugate_parts(0.5) == ((-1, 0.0, 1), (0.75, -0.5, 0.75))


def test_build_domain_errors():
    for bad in (0.5, 1.0, 0.1, 1.7):
        with pytest.raises(ParameterError):
            projection_parts(bad)
    for bad in (0.0, 1.0, -0.3):
        with pytest.raises(ParameterError):
            conjugate_parts(bad)


# --- projections -------------------------------------------------------------


def test_project_single_letters_conjugate():
    for b in (Fraction(1, 3), Fraction(1, 2), Fraction(3, 5)):
        phi = conjugate_parts(b)
        assert project(*phi, (1,)) == -1
        assert project(*phi, (2,)) == 0
        assert project(*phi, (3,)) == 1


def test_project_word_13():
    assert project(*conjugate_parts(Fraction(1, 2)), (1, 3)) == Fraction(-1, 4)


def test_project_threes_geometric_sum():
    b = Fraction(1, 2)
    phi = conjugate_parts(b)
    for n in (1, 3, 6, 10):
        expected = sum(((1 + b) / 2) ** l for l in range(n))
        assert project(*phi, (3,) * n) == expected
    # tends to the right endpoint of the support interval
    assert abs(float(project(*phi, (3,) * 40)) - 4.0) < 1e-4


@given(words_st, st.integers(1, 4))
def test_appending_twos_never_changes_projection(word, k):
    phi = conjugate_parts(Fraction(2, 7))
    assert project(*phi, word) == project(*phi, word + (2,) * k)


# --- cylinder intervals -------------------------------------------------------


def _image_interval(parts, word):
    """Image of [0, 1] under the composed map x -> r*x + t of a nonempty word, endpoints sorted."""
    t, r = fold_word(*parts, word)
    return tuple(sorted((t, t + r)))


def test_image_interval_examples():
    parts = projection_parts(0.75)
    assert _image_interval(parts, (2,)) == (0.25, 0.75)
    assert _image_interval(parts, (1, 1)) == (0.0, 0.5625)


@given(words_st.filter(lambda w: len(w) >= 1), st.sampled_from([1, 2, 3]))
def test_image_interval_nesting_and_width(word, s):
    a = Fraction(7, 10)
    parts = projection_parts(a)
    lo, hi = _image_interval(parts, word)
    lo2, hi2 = _image_interval(parts, word + (s,))
    assert lo <= lo2 <= hi2 <= hi
    assert hi - lo <= a ** len(word)


fraction_systems_st = st.sampled_from(
    [projection_parts(Fraction(3, 4)), projection_parts(Fraction(2, 3)), conjugate_parts(Fraction(2, 5))]
)


@given(fraction_systems_st, words_st.filter(len), st.fractions(-2, 2))
def test_compose_word_matches_projection(parts, word, x):
    # fold_word composes the maps along a word, as a tuple or as a uint8 symbol row
    tau, rho = parts
    t, r = fold_word(tau, rho, word)
    assert t == project(tau, rho, word)
    assert (t, r) == fold_word(tau, rho, np.array(word, dtype=np.uint8))
    # the maps applied one by one, innermost first
    v = x
    for s in reversed(word):
        v = rho[s - 1] * v + tau[s - 1]
    assert r * x + t == v


@pytest.mark.parametrize("a", [Fraction(3, 4), 0.55, 0.9])
def test_expand_level_matches_fold_word(a):
    # the level kernel and the word fold are the two copies of one recursion:
    # t / unit and r / unit equal the fold bit for bit on floats and exactly
    # on Fractions, pruned or not
    tau, rho = projection_parts(a)
    exact = isinstance(a, Fraction)

    def values(level, x):
        return [Fraction(v, level.unit) for v in x.tolist()] if exact else x.tolist()

    for n in range(6):
        level = expand_level(tau, rho, n)
        assert level.kept is None
        assert level.unit == (4**n if exact else 1.0)
        assert level.t.dtype == (np.int64 if exact else float)
        folds = [fold_word(tau, rho, w) for w in product((1, 2, 3), repeat=n)]
        assert (values(level, level.t), values(level, level.r)) == ([t for t, _ in folds], [r for _, r in folds])
    for n in range(1, 6):
        # a word survives when every prefix keeps its anchor below 1/2
        pruned = expand_level(tau, rho, n, lambda t, r, unit: t < 0.5 * unit)
        words = [
            w for w in product((1, 2, 3), repeat=n) if all(fold_word(tau, rho, w[:k])[0] < 0.5 for k in range(1, n + 1))
        ]
        assert 1 < len(words) < 3**n
        assert pruned.symbols().dtype == np.uint8 and word_tuples(pruned.symbols()) == tuple(words)
        # kept[l] masks the 3 children of each word kept at depth l
        survivors = [1] + [int(np.count_nonzero(m)) for m in pruned.kept]
        assert all(m.dtype == bool for m in pruned.kept) and survivors[-1] == len(words)
        assert [len(m) for m in pruned.kept] == [3 * k for k in survivors[:-1]]
        assert values(pruned, pruned.t) == [fold_word(tau, rho, w)[0] for w in words]
        assert values(pruned, pruned.r) == [fold_word(tau, rho, w)[1] for w in words]


def _folds_equal(tau, rho, level, n):
    folds = [fold_word(tau, rho, w) for w in product((1, 2, 3), repeat=n)]
    kernel_t = [Fraction(v, level.unit) for v in level.t.tolist()]
    kernel_r = [Fraction(v, level.unit) for v in level.r.tolist()]
    return (kernel_t, kernel_r) == ([t for t, _ in folds], [r for _, r in folds])


@settings(max_examples=30, deadline=None)
@given(
    st.integers(3, 10**6).flatmap(lambda q: st.tuples(st.integers(q // 2 + 1, q - 1), st.just(q))),
    st.fractions(0, 1, max_denominator=10**6),
    st.integers(1, 6),
)
def test_rational_level_is_the_word_fold(pq, y, n):
    # a = p/q in (1/2, 1) with denominators up to 10^6 reach both integer kinds of the kernel
    a = Fraction(*pq)
    tau, rho = projection_parts(a)
    level = expand_level(tau, rho, n)
    assert level.unit == a.denominator**n
    assert _folds_equal(tau, rho, level, n)
    assert word_tuples(level_set_cover(a, y, n).level.symbols()) == exhaustive_level_filter(a, y, n)


@pytest.mark.parametrize("q, dtype", [(944, np.int64), (945, object)])
def test_int64_bound_sides(q, dtype):
    # a = (q-1)/q at depth 6 has T = q-1 and c = q, so the kernel's bound
    # (2nT + c) c^(n-1) = (13q - 12) q^5 crosses 2^63 between q = 944 and 945
    n = 6
    assert ((13 * q - 12) * q**5 < 2**63) == (dtype is np.int64)
    a = Fraction(q - 1, q)
    tau, rho = projection_parts(a)
    level = expand_level(tau, rho, n)
    assert level.t.dtype == level.r.dtype == dtype
    assert _folds_equal(tau, rho, level, n)
    for y in (Fraction(0), Fraction(1, 3), Fraction(q - 1, q), Fraction(1)):
        assert word_tuples(level_set_cover(a, y, n).level.symbols()) == exhaustive_level_filter(a, y, n)


def _bound(a, n):
    """The kernel's int64 bound (2nT + c) c^(n-1) for S_a at a = p/q: T = p and c = q."""
    return (2 * n * a.numerator + a.denominator) * a.denominator ** (n - 1)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([0.75, 0.55, 0.9, Fraction(3, 4), Fraction(2, 3), Fraction(943, 944), Fraction(944, 945),
                     Fraction(999999, 10**6)]),
    st.integers(1, 9).flatmap(lambda n: st.lists(st.tuples(*[st.sampled_from((1, 2, 3))] * n), min_size=1, max_size=30)),
)
@example(Fraction(943, 944), [(1, 2, 3, 3, 2, 1), (3,) * 6, (2,) * 6])
@example(Fraction(944, 945), [(1, 2, 3, 3, 2, 1), (3,) * 6, (2,) * 6])
def test_compose_rows_is_the_word_fold_row_by_row(a, rows):
    # the batched fold runs the level kernel's number kind: floats bit for bit
    # as fold_word, rationals exactly as t / unit, on int64 below the bound
    # (q = 944 at n = 6) and on Python ints above it (q = 945 at n = 6)
    tau, rho = projection_parts(a)
    n = len(rows[0])
    t, r, unit = fold_rows(tau, rho, np.array(rows, dtype=np.uint8))
    folds = [fold_word(tau, rho, w) for w in rows]
    if isinstance(a, float):
        assert t.dtype == r.dtype == np.float64 and unit == 1.0
        assert [v.hex() for v in t.tolist()] == [ft.hex() for ft, _ in folds]
        assert [v.hex() for v in r.tolist()] == [fr.hex() for _, fr in folds]
    else:
        assert t.dtype == r.dtype == (np.int64 if _bound(a, n) < 2**63 else object)
        assert unit == a.denominator**n
        assert [(Fraction(int(vt), unit), Fraction(int(vr), unit)) for vt, vr in zip(t, r)] == folds


@pytest.mark.parametrize("tau, rho", [
    ((Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(-1, 3))),
    ((Fraction(0), Fraction(1, 7), Fraction(2, 9), Fraction(5, 6)),
     (Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5), Fraction(-2, 7))),
], ids=["2-map", "4-map"])
def test_expand_level_lists_the_words_of_n_maps_in_lexicographic_order(tau, rho):
    # entry i is the word of the i-th base-N digit row, on Fractions exactly and on their floats bit for bit
    n_maps = len(tau)
    floats = tuple(map(float, tau)), tuple(map(float, rho))
    for n in range(5):
        words = list(product(range(1, n_maps + 1), repeat=n))
        assert words == [tuple(row) for row in (digit_rows(np.arange(n_maps**n), n, base=n_maps) + 1).tolist()]
        level = expand_level(tau, rho, n)
        exact = [(Fraction(t, level.unit), Fraction(r, level.unit)) for t, r in zip(level.t.tolist(), level.r.tolist())]
        assert exact == [fold_word(tau, rho, w) for w in words]
        level = expand_level(*floats, n)
        assert [(t.hex(), r.hex()) for t, r in zip(level.t.tolist(), level.r.tolist())] == [
            tuple(v.hex() for v in fold_word(*floats, w)) for w in words
        ]


def test_fold_rows_folds_any_number_of_maps():
    # block folds of a homogeneous system: N maps sharing one ratio, symbols 1..N
    taus = (Fraction(0), Fraction(1, 7), Fraction(2, 9), Fraction(5, 6), Fraction(1, 2))
    lams = (Fraction(-3, 8),) * len(taus)
    rows = list(product(range(1, len(taus) + 1), repeat=3))
    t, r, unit = fold_rows(taus, lams, np.array(rows))
    assert unit == math.lcm(7, 9, 6, 2, 8) ** 3
    assert [(Fraction(int(vt), unit), Fraction(int(vr), unit)) for vt, vr in zip(t, r)] == [
        fold_word(taus, lams, w) for w in rows
    ]


# --- conjugacy ----------------------------------------------------------------


@pytest.mark.parametrize("b", [Fraction(1, 3), Fraction(1, 2), Fraction(4, 7)])
def test_projection_and_conjugate_systems_are_affinely_conjugate(b):
    a = (1 + b) / 2
    tau_a, rho_a = projection_parts(a)
    tau_b, rho_b = conjugate_parts(b)
    # psi carries [0,1] onto the support interval of the conjugate system
    scale = 4 / (1 - b)
    psi = lambda x: scale * (x - Fraction(1, 2))
    fixed_a = sorted(t / (1 - r) for t, r in zip(tau_a, rho_a))
    fixed_b = sorted(t / (1 - r) for t, r in zip(tau_b, rho_b))
    assert [psi(x) for x in fixed_a] == fixed_b
    # full conjugacy psi o S_i o psi^{-1} = phi_i, checked on sample points
    psi_inv = lambda y: y / scale + Fraction(1, 2)
    for t_a, r_a, t_b, r_b in zip(tau_a, rho_a, tau_b, rho_b):
        for y in (Fraction(-2), Fraction(0), Fraction(5, 3)):
            assert psi(r_a * psi_inv(y) + t_a) == r_b * y + t_b


# --- the point evaluator of the test suite, the oracle for graph rows -------------


def test_ternary_digits_terminating():
    assert ternary_digits(Fraction(1, 3), 5) == [1, 0, 0, 0, 0]
    assert ternary_digits(Fraction(0), 3) == [0, 0, 0]
    assert ternary_digits(Fraction(1), 4) == [2, 2, 2, 2]
    assert ternary_digits(Fraction(1, 2), 6) == [1, 1, 1, 1, 1, 1]


def test_evaluate_T_fixed_points():
    for a in (0.6, 0.75, 0.9):
        y0, _ = evaluate_T(a, Fraction(0), 1e-9)
        y1, _ = evaluate_T(a, Fraction(1), 1e-9)
        assert y0 == 0 and y1 == 1


def test_evaluate_T_midpoint_symmetry_point():
    for a in (0.6, 0.75, 0.9):
        y, bound = evaluate_T(a, Fraction(1, 2), 1e-9)
        # bound is the exact cylinder width; allow float rounding on top
        assert bound <= 1e-9
        assert abs(y - 0.5) <= bound + 1e-13


def test_evaluate_T_third():
    for a in (0.6, 0.75, 0.9):
        y, bound = evaluate_T(a, Fraction(1, 3), 1e-9)
        assert y == a  # terminating coding makes this exact


def test_evaluate_T_reported_bound():
    a = 0.75
    for tol in (1e-3, 1e-6, 1e-9):
        _, bound = evaluate_T(a, 0.371, tol)
        assert bound <= tol


def test_evaluate_T_symmetry_sampled():
    import random

    rng = random.Random(7)
    a = 0.75
    worst = 0.0
    for _ in range(100):
        x = Fraction(rng.random())
        y1, _ = evaluate_T(a, x, 1e-9)
        y2, _ = evaluate_T(a, 1 - x, 1e-9)
        worst = max(worst, abs(y1 + y2 - 1))
    assert worst <= 2e-9


def test_evaluate_T_digit_cap():
    # a = 0.99 needs 2062 digits for 1e-9, beyond DIGIT_CAP = 1000
    with pytest.raises(ParameterError):
        evaluate_T(0.99, 0.3, 1e-9)


def test_evaluate_T_domain():
    with pytest.raises(ParameterError):
        evaluate_T(0.75, 1.2)
    with pytest.raises(ParameterError):
        evaluate_T(0.75, 0.5, tolerance=0.0)

