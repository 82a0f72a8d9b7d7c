from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graph_oracle import evaluate_T, ternary_digits
from okamoto.errors import ParameterError
from okamoto.systems import Similarity1D, build_system, compose_word, expand_level, fold_word

words_st = st.lists(st.sampled_from([1, 2, 3]), min_size=0, max_size=8).map(tuple)


def _project(system, word):
    """Finite-word projection: the composition along the word applied to 0."""
    return fold_word(*system.parts(), word)[0]


def test_build_projection():
    sys_a = build_system("projection", 0.75)
    assert [(f.ratio, f.translation) for f in sys_a.maps] == [(0.75, 0.0), (-0.5, 0.75), (0.75, 0.25)]


def test_build_conjugate():
    sys_b = build_system("conjugate", 0.5)
    assert [(f.ratio, f.translation) for f in sys_b.maps] == [(0.75, -1), (-0.5, 0.0), (0.75, 1)]


def test_build_domain_errors():
    for bad in (0.5, 1.0, 0.1, 1.7):
        with pytest.raises(ParameterError):
            build_system("projection", bad)
    for bad in (0.0, 1.0, -0.3):
        with pytest.raises(ParameterError):
            build_system("conjugate", bad)
    with pytest.raises(ParameterError):
        build_system("something-else", 0.75)


def test_similarity_validation():
    with pytest.raises(ParameterError):
        Similarity1D(0, 1)
    with pytest.raises(ParameterError):
        Similarity1D(1.5, 0)


# --- projections -------------------------------------------------------------


def test_project_single_letters_conjugate():
    for b in (Fraction(1, 3), Fraction(1, 2), Fraction(3, 5)):
        sys_b = build_system("conjugate", b)
        assert _project(sys_b, (1,)) == -1
        assert _project(sys_b, (2,)) == 0
        assert _project(sys_b, (3,)) == 1


def test_project_word_13():
    sys_b = build_system("conjugate", Fraction(1, 2))
    assert _project(sys_b, (1, 3)) == Fraction(-1, 4)


def test_project_threes_geometric_sum():
    b = Fraction(1, 2)
    sys_b = build_system("conjugate", b)
    for n in (1, 3, 6, 10):
        expected = sum(((1 + b) / 2) ** l for l in range(n))
        assert _project(sys_b, (3,) * n) == expected
    # tends to the right endpoint of the support interval
    assert abs(float(_project(sys_b, (3,) * 40)) - 4.0) < 1e-4


@given(words_st, st.integers(1, 4))
def test_appending_twos_never_changes_projection(word, k):
    sys_b = build_system("conjugate", Fraction(2, 7))
    assert _project(sys_b, word) == _project(sys_b, word + (2,) * k)


# --- cylinder intervals -------------------------------------------------------


def _image_interval(system, word):
    """Image of [0, 1] under the composed map of a nonempty word, endpoints sorted."""
    f = compose_word(system, word)
    return tuple(sorted((f(0), f(1))))


def test_image_interval_examples():
    sys_a = build_system("projection", 0.75)
    assert _image_interval(sys_a, (2,)) == (0.25, 0.75)
    assert _image_interval(sys_a, (1, 1)) == (0.0, 0.5625)


@given(words_st.filter(lambda w: len(w) >= 1), st.sampled_from([1, 2, 3]))
def test_image_interval_nesting_and_width(word, s):
    a = Fraction(7, 10)
    sys_a = build_system("projection", a)
    lo, hi = _image_interval(sys_a, word)
    lo2, hi2 = _image_interval(sys_a, word + (s,))
    assert lo <= lo2 <= hi2 <= hi
    assert hi - lo <= a ** len(word)


fraction_systems_st = st.sampled_from(
    [
        build_system("projection", Fraction(3, 4)),
        build_system("projection", Fraction(2, 3)),
        build_system("conjugate", Fraction(2, 5)),
    ]
)


@given(fraction_systems_st, words_st.filter(len), st.fractions(-2, 2))
def test_compose_word_matches_projection(system, word, x):
    f = compose_word(system, word)
    assert f.translation == _project(system, word)
    # the maps applied one by one, innermost first
    v = x
    for s in reversed(word):
        v = system.maps[s - 1](v)
    assert f(x) == v
    with pytest.raises(ValueError):
        compose_word(system, ())


@pytest.mark.parametrize("a", [Fraction(3, 4), 0.55, 0.9])
def test_expand_level_matches_fold_word(a):
    # the level kernel and the word fold are the two copies of one recursion:
    # equal bit for bit on floats and exactly on Fractions, pruned or not
    tau, rho = build_system("projection", a).parts()
    for n in range(6):
        level = expand_level(tau, rho, n)
        assert level.kept is None
        assert level.t.dtype == (object if isinstance(a, Fraction) else float)
        folds = [fold_word(tau, rho, w) for w in product((1, 2, 3), repeat=n)]
        assert (level.t.tolist(), level.r.tolist()) == ([t for t, _ in folds], [r for _, r in folds])
    for n in range(1, 6):
        # a word survives when every prefix keeps its anchor below 1/2
        pruned = expand_level(tau, rho, n, lambda t, r: t < 0.5)
        words = [
            w for w in product((1, 2, 3), repeat=n) if all(fold_word(tau, rho, w[:k])[0] < 0.5 for k in range(1, n + 1))
        ]
        assert 1 < len(words) < 3**n
        assert list(pruned.words()) == words
        assert pruned.t.tolist() == [fold_word(tau, rho, w)[0] for w in words]


# --- conjugacy ----------------------------------------------------------------


@pytest.mark.parametrize("b", [Fraction(1, 3), Fraction(1, 2), Fraction(4, 7)])
def test_projection_and_conjugate_systems_are_affinely_conjugate(b):
    a = (1 + b) / 2
    sys_a = build_system("projection", a)
    sys_b = build_system("conjugate", b)
    # psi carries [0,1] onto the support interval of the conjugate system
    scale = 4 / (1 - b)
    psi = lambda x: scale * (x - Fraction(1, 2))
    fixed_a = sorted(f.fixed_point() for f in sys_a.maps)
    fixed_b = sorted(f.fixed_point() for f in sys_b.maps)
    assert [psi(x) for x in fixed_a] == fixed_b
    # full conjugacy psi o S_i o psi^{-1} = phi_i, checked on sample points
    psi_inv = lambda y: y / scale + Fraction(1, 2)
    for f_a, f_b in zip(sys_a.maps, sys_b.maps):
        for y in (Fraction(-2), Fraction(0), Fraction(5, 3)):
            assert psi(f_a(psi_inv(y))) == f_b(y)


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

