import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okamoto.errors import ParameterError
from okamoto.systems import (
    RationalPoly,
    Similarity1D,
    build_system,
    compose_word,
    evaluate_T,
    expand_level,
    fold_word,
    image_interval,
    pi_polynomial,
    project_word,
    ternary_digits,
)
from okamoto.words import enumerate_words

words_st = st.lists(st.sampled_from([1, 2, 3]), min_size=0, max_size=8).map(tuple)


def test_build_projection():
    sys_a = build_system("projection", 0.75)
    assert [(f.ratio, f.translation) for f in sys_a.maps] == [(0.75, 0.0), (-0.5, 0.75), (0.75, 0.25)]


def test_build_conjugate():
    sys_b = build_system("conjugate", 0.5)
    assert [(f.ratio, f.translation) for f in sys_b.maps] == [(0.75, -1), (-0.5, 0.0), (0.75, 1)]
    assert sys_b.support() == (-4.0, 4.0)


def test_build_planar():
    sys_f = build_system("okamoto-planar", 0.75)
    f2 = sys_f.maps[1]
    assert (f2.x_ratio, f2.y_ratio, f2.x_shift, f2.y_shift) == (1 / 3, -0.5, 1 / 3, 0.75)
    x, y = f2((1.0, 1.0))
    assert (x, y) == (2 / 3, 0.25)


def test_build_domain_errors():
    for bad in (0.5, 1.0, 0.1, 1.7):
        with pytest.raises(ParameterError):
            build_system("projection", bad)
        with pytest.raises(ParameterError):
            build_system("okamoto-planar", bad)
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


def test_custom_1d_system():
    maps = (Similarity1D(Fraction(1, 2), 0), Similarity1D(Fraction(1, 3), Fraction(2, 3)))
    sys_c = build_system("custom-1d", maps=maps)
    assert project_word(sys_c, (2, 1)) == Fraction(1, 3) * 0 + Fraction(2, 3)
    assert image_interval(sys_c, (1,), (0, 1)) == (0, Fraction(1, 2))
    with pytest.raises(ParameterError):
        build_system("custom-1d")
    with pytest.raises(ParameterError):
        sys_c.support()


def test_image_interval_rejects_planar():
    with pytest.raises(ParameterError):
        image_interval(build_system("okamoto-planar", 0.75), (1,), (0, 1))


# --- projections -------------------------------------------------------------


def test_project_single_letters_conjugate():
    for b in (Fraction(1, 3), Fraction(1, 2), Fraction(3, 5)):
        sys_b = build_system("conjugate", b)
        assert project_word(sys_b, (1,)) == -1
        assert project_word(sys_b, (2,)) == 0
        assert project_word(sys_b, (3,)) == 1


def test_project_word_13():
    sys_b = build_system("conjugate", Fraction(1, 2))
    assert project_word(sys_b, (1, 3)) == Fraction(-1, 4)


def test_project_threes_geometric_sum():
    b = Fraction(1, 2)
    sys_b = build_system("conjugate", b)
    for n in (1, 3, 6, 10):
        expected = sum(((1 + b) / 2) ** l for l in range(n))
        assert project_word(sys_b, (3,) * n) == expected
    # tends to the right endpoint of the support interval
    assert abs(float(project_word(sys_b, (3,) * 40)) - 4.0) < 1e-4


@given(words_st, st.integers(1, 4))
def test_appending_twos_never_changes_projection(word, k):
    sys_b = build_system("conjugate", Fraction(2, 7))
    assert project_word(sys_b, word) == project_word(sys_b, word + (2,) * k)


def test_project_word_planar_origin_anchor():
    sys_f = build_system("okamoto-planar", Fraction(3, 4))
    assert project_word(sys_f, ()) == (0, 0)
    # f_1 maps the graph point (1,1) to (1/3, a); word 13 anchors at f_1(f_3(0,0))
    x, y = project_word(sys_f, (1, 3))
    assert (x, y) == (Fraction(2, 9), Fraction(3, 16))


# --- cylinder intervals -------------------------------------------------------


def test_image_interval_examples():
    sys_a = build_system("projection", 0.75)
    assert image_interval(sys_a, (2,), (0.0, 1.0)) == (0.25, 0.75)
    assert image_interval(sys_a, (), (0.0, 1.0)) == (0.0, 1.0)
    assert image_interval(sys_a, (1, 1), (0.0, 1.0)) == (0.0, 0.5625)


@given(words_st.filter(lambda w: len(w) >= 1), st.sampled_from([1, 2, 3]))
def test_image_interval_nesting_and_width(word, s):
    a = Fraction(7, 10)
    sys_a = build_system("projection", a)
    lo, hi = image_interval(sys_a, word, (Fraction(0), Fraction(1)))
    lo2, hi2 = image_interval(sys_a, word + (s,), (Fraction(0), Fraction(1)))
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
    assert f.translation == project_word(system, word)
    assert image_interval(system, word, (0, 1)) == tuple(sorted((f(0), f(1))))
    # the maps applied one by one, innermost first
    v = x
    for s in reversed(word):
        v = system.maps[s - 1](v)
    assert f(x) == v
    assert image_interval(system, (), (0, 1)) == (0, 1)
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
        folds = [fold_word(tau, rho, w) for w in enumerate_words(n)]
        assert (level.t.tolist(), level.r.tolist()) == ([t for t, _ in folds], [r for _, r in folds])
    for n in range(1, 6):
        # a word survives when every prefix keeps its anchor below 1/2
        pruned = expand_level(tau, rho, n, lambda t, r: t < 0.5)
        words = [
            w for w in enumerate_words(n) if all(fold_word(tau, rho, w[:k])[0] < 0.5 for k in range(1, n + 1))
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


# --- polynomials in b ----------------------------------------------------------


def test_pi_polynomial_word2_is_zero():
    poly = pi_polynomial((2,))
    assert poly.coefficients == ()
    assert poly(Fraction(1, 3)) == 0


def test_pi_polynomial_word13():
    assert pi_polynomial((1, 3)).coefficients == (Fraction(-1, 2), Fraction(1, 2))


def test_pi_polynomial_degree_bound():
    for word in [(1,), (1, 2), (3, 2, 1), (2, 2, 3, 1, 1)]:
        assert pi_polynomial(word).degree <= len(word)


@given(words_st)
def test_pi_polynomial_matches_exact_projection(word):
    b = Fraction(3, 7)
    sys_b = build_system("conjugate", b)
    assert pi_polynomial(word)(b) == project_word(sys_b, word)


def test_rational_poly_trims_and_evaluates():
    p = RationalPoly.from_list([1, 2, 0, 0])
    assert p.coefficients == (1, 2)
    assert p(Fraction(1, 2)) == 2


# --- function evaluation --------------------------------------------------------


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

