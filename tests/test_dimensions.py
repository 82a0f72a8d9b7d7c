import io
import json
import math
from fractions import Fraction

import pytest

from okamoto.cli import run
from okamoto.dimensions import (
    assouad_bound,
    dim_report,
    lq_dimension,
    natural_weights,
    okamoto_s0,
    tau_q,
)
from okamoto.errors import ParameterError

A_GRID = [0.5 + 0.5 * (k + 1) / 101 for k in range(100)]


def _affinity_pressure(alphas, betas, s):
    """Singular-value pressure of a diagonal planar system.

    0 <= s <= 1 : max(sum a_i^s, sum |b_i|^s)
    1 <  s <  2 : max(sum a_i |b_i|^(s-1), sum |b_i| a_i^(s-1))
    2 <= s      : sum (a_i |b_i|)^(s/2)
    """
    be = [abs(y) for y in betas]
    if s <= 1.0:
        return max(sum(x**s for x in alphas), sum(y**s for y in be))
    if s < 2.0:
        return max(
            sum(x * y ** (s - 1.0) for x, y in zip(alphas, be)),
            sum(y * x ** (s - 1.0) for x, y in zip(alphas, be)),
        )
    return sum((x * y) ** (s / 2.0) for x, y in zip(alphas, be))


def _affinity_dimension(alphas, betas):
    """Root of the decreasing pressure P(s) = 1 on [0, 2] by bisection; 2 when P >= 1 throughout.

    The oracle for s0: it knows the graph IFS only through its ratios.
    """
    lo, hi = 0.0, 2.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _affinity_pressure(alphas, betas, mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return hi


def test_okamoto_s0_boundaries_and_example():
    assert abs(okamoto_s0(0.5000001) - 1.0) < 1e-5
    assert abs(okamoto_s0(0.9999999) - 2.0) < 1e-5
    assert abs(okamoto_s0(2 / 3) - (1 + math.log(5 / 3) / math.log(3))) < 1e-15
    assert abs(okamoto_s0(0.75) - (1 + math.log(2) / math.log(3))) < 1e-15


@pytest.mark.parametrize("a", [0.51, 0.6, 2 / 3, 0.75, 0.85, 0.95, 0.99])
def test_okamoto_s0_closed_form_matches_bisection(a):
    # the root of the affinity pressure of the graph IFS, ratios 1/3 and (a, 1-2a, a)
    assert abs(okamoto_s0(a) - _affinity_dimension((1 / 3, 1 / 3, 1 / 3), (a, 1 - 2 * a, a))) < 1e-12


def test_okamoto_s0_domain():
    for bad in (0.5, 1.0, 0.2):
        with pytest.raises(ParameterError):
            okamoto_s0(bad)


# --- the affinity-pressure oracle -------------------------------------------------


def test_affinity_dimension_matches_okamoto_family():
    for a in (0.6, 0.75, 0.9):
        assert abs(_affinity_dimension((1 / 3, 1 / 3, 1 / 3), (a, 2 * a - 1, a)) - okamoto_s0(a)) < 1e-10


def test_affinity_dimension_similarity_collapse():
    ratios = (0.4, 0.3, 0.2)  # equal ratios: the root solves the similarity equation sum r^s = 1
    assert abs(sum(r ** _affinity_dimension(ratios, ratios) for r in ratios) - 1) < 1e-10


def test_affinity_dimension_cap_at_two():
    # sum(alpha*beta) = 3*0.36 >= 1 pins the root at the ambient dimension
    assert _affinity_dimension((0.6, 0.6, 0.6), (0.6, 0.6, 0.6)) == 2.0


def test_affinity_pressure_branches_are_continuous():
    alphas, betas = (1 / 3, 1 / 3, 1 / 3), (0.75, 0.5, 0.75)
    for s in (1.0, 2.0):
        below = _affinity_pressure(alphas, betas, s - 1e-9)
        above = _affinity_pressure(alphas, betas, s + 1e-9)
        assert abs(below - above) < 1e-6


# --- weights, entropy, Feng-Hu -------------------------------------------------


def test_natural_weights_example():
    assert natural_weights(0.75) == (0.375, 0.25, 0.375)


def test_natural_weights_exact_sum():
    import random

    rng = random.Random(0)
    for _ in range(1000):
        a = Fraction(rng.randint(501, 999), 1000)
        w = natural_weights(a)
        assert sum(w) == 1
        assert w[0] == w[2]
        assert all(0 <= x <= 1 for x in w)


def test_natural_weights_boundary_trend():
    w = natural_weights(0.5000001)
    assert abs(w[0] - 0.5) < 1e-6 and w[1] < 1e-6


def test_chi1_two_forms_agree():
    for a in (0.6, 0.75, 0.9):
        chi1 = dim_report(a).chi1
        factored = -(1 / (4 * a - 1)) * (2 * a * math.log(a) + (2 * a - 1) * math.log(2 * a - 1))
        assert abs(chi1 - factored) < 1e-12


def test_feng_hu_identity():
    for a in (0.6, 0.75, 0.9, 0.51, 0.99):
        assert abs(dim_report(a).fenghu_dim - okamoto_s0(a)) < 1e-10
    assert abs(dim_report(0.5000001).fenghu_dim - 1.0) < 1e-5


def test_feng_hu_identity_dense_grid():
    worst = max(abs(dim_report(a).fenghu_dim - okamoto_s0(a)) for a in A_GRID)
    assert worst < 1e-10


# --- tau(q) and L^q --------------------------------------------------------------


def test_tau_at_one_is_zero():
    for a in (0.6, 0.75, 0.9):
        assert tau_q(a, 1) == 0.0


def test_tau_q2_residual():
    a = 0.75
    t = tau_q(a, 2)
    s0 = okamoto_s0(a)
    lhs = 3 ** (-(s0 - 1) * 2) * (2 * 0.75 ** (2 - t) + 0.5 ** (2 - t))
    assert abs(lhs - 1.0) < 1e-12
    assert t > 1.0


def test_tau_exceeds_q_minus_one():
    for a in (0.55, 0.75, 0.95):
        for q in (1.5, 2.0, 4.0, 8.0):
            assert tau_q(a, q) > q - 1.0


def test_tau_increasing_in_q():
    a = 0.7
    vals = [tau_q(a, q) for q in (1.2, 1.5, 2.0, 3.0, 5.0)]
    assert all(u < v for u, v in zip(vals, vals[1:]))


def test_lq_dimension_is_one():
    import random

    rng = random.Random(3)
    for _ in range(20):
        a = 0.51 + 0.48 * rng.random()
        q = 1.1 + 7.0 * rng.random()
        assert lq_dimension(a, q) == 1.0


def test_lq_dimension_domain():
    with pytest.raises(ParameterError):
        lq_dimension(0.75, 1.0)
    for q in (0.5, math.nan, math.inf):
        with pytest.raises(ParameterError):
            tau_q(0.75, q)


# --- Assouad bound ---------------------------------------------------------------


def test_assouad_bound_examples():
    a = 0.75
    s0 = okamoto_s0(a)
    assert assouad_bound(a, s0 - 1.0) == s0
    assert assouad_bound(a, 0.0) == s0
    assert assouad_bound(a, 1.0) == 2.0
    for estimate in (-0.1, 1.5):
        with pytest.raises(ParameterError):
            assouad_bound(a, estimate)


def test_dim_report_consistency():
    rep = dim_report(0.75)
    assert abs(rep.s0 - rep.fenghu_dim) < 1e-10
    assert rep.chi2 == math.log(3)
    assert 0 < rep.chi1 < rep.chi2
    assert abs(sum(rep.weights) - 1.0) < 1e-15
    assert rep.level_set_bound == rep.s0 - 1.0
    buf = io.StringIO()
    assert run(["dims", "--a", "0.75"], stdout=buf) == 0
    d = json.loads(buf.getvalue())
    assert set(d) == {
        "a", "b", "s0", "weights", "entropy", "chi1", "chi2", "fenghu_dim", "level_set_bound",
        "assouad_bound", "schema_version",
    }
    assert d["weights"] == list(rep.weights)
