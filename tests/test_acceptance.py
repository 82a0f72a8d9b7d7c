"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here exactly as stated; nothing is deferred to later
calibration.  Criterion 8d (the finite entropy ratio at m=k=200 within 0.02
absolute of its limit) is mathematically unattainable: the (k-1)/k factor
contributes limit/200 ~ 0.014 and the Stirling sqrt(m) correction in
log C(200,50) contributes ~0.035, for a true deviation of 0.0489.  It is
implemented faithfully and marked strict-xfail; see the decisions ledger.
"""

import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from graph_oracle import evaluate_T
from okamoto import dimensions, estimators, separation, subsystem, systems, words
from separation_oracle import delta_exhaustive


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_box_slope_matches_closed_form():
    t0 = time.monotonic()
    worst = 0.0
    for a in (0.6, 0.75, 0.9):
        series = estimators.box_count_series(a, range(6, 15), "column")
        worst = max(worst, abs(series.fitted_slope - dimensions.okamoto_s0(a)))
    elapsed = time.monotonic() - t0
    _report(
        "1",
        worst < 0.05 and elapsed < 10.0,
        f"column slope over depths 6-14 within {worst:.4f} of s0 (tol 0.05), {elapsed:.2f}s (< 10s)",
    )


def test_criterion_2_feng_hu_identity():
    t0 = time.monotonic()
    grid = [0.5 + 0.5 * (k + 1) / 101 for k in range(100)]
    worst = max(abs(dimensions.dim_report(a).fenghu_dim - dimensions.okamoto_s0(a)) for a in grid)
    elapsed = time.monotonic() - t0
    _report(
        "2",
        worst < 1e-10 and elapsed < 1.0,
        f"|feng_hu - s0| <= {worst:.2e} on 100-point grid (tol 1e-10), {elapsed:.3f}s (< 1s)",
    )


def test_criterion_3_lq_dimension():
    qs = (1.5, 2.0, 4.0, 8.0)
    grid = [0.51 + 0.48 * k / 19 for k in range(20)]
    ok = True
    worst_res = 0.0
    for a in grid:
        s0 = dimensions.okamoto_s0(a)
        b = 2 * a - 1
        for q in qs:
            tau = dimensions.tau_q(a, q)  # raises if residual exceeds 1e-12
            res = abs(3 ** (-(s0 - 1) * q) * (2 * a ** (q - tau) + b ** (q - tau)) - 1)
            worst_res = max(worst_res, res)
            ok = ok and tau > q - 1 and dimensions.lq_dimension(a, q) == 1.0
    _report(
        "3",
        ok and worst_res < 1e-12,
        f"tau(q) > q-1 and L^q dim = 1 on 20x4 grid; worst residual {worst_res:.2e} (tol 1e-12)",
    )


def test_criterion_4_separation_oracle_equivalence():
    t0 = time.monotonic()
    ok = True
    for b in (Fraction(1, 3), Fraction(1, 2), Fraction(3, 5)):
        ok = ok and separation.delta_n_detail(b, 1)[0] == 1
        for n in range(1, 9):
            pruned = separation.delta_n_detail(b, n)[0]
            exhaustive, _ = delta_exhaustive(b, n)
            ok = ok and pruned == exhaustive
    elapsed = time.monotonic() - t0
    _report(
        "4",
        ok and elapsed < 60.0,
        f"pruned == all-pairs exactly for n <= 8, b in {{1/3, 1/2, 3/5}}; delta_1 = 1; {elapsed:.1f}s (< 60s)",
    )


def _exhaustive_level_filter(a, y, n):
    system = systems.build_system("projection", a)
    out = []
    for w in product((1, 2, 3), repeat=n):
        f = systems.compose_word(system, w)
        if min(f(0), f(1)) <= y <= max(f(0), f(1)):
            out.append(w)
    return tuple(out)


def test_criterion_5_level_set_oracle_equivalence():
    a = Fraction(3, 4)
    ok = True
    for y in (Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(7, 10)):
        for n in range(1, 9):
            cover = estimators.level_set_cover(a, y, n)
            ok = ok and cover.words == _exhaustive_level_filter(a, y, n)
    singleton = all(
        estimators.level_set_cover(a, Fraction(0), n).count == 1 for n in range(1, 13)
    )
    _report(
        "5",
        ok and singleton,
        "branch-and-bound == exhaustive filter for n <= 8, y in {0, 1/2, 1/3, 7/10}; N_n(0) = 1 for n <= 12",
    )


def test_criterion_6_level_set_statistics():
    t0 = time.monotonic()
    scan = estimators.level_set_scan(0.75, 200, 14, seed=20260808)
    elapsed = time.monotonic() - t0
    median_ok = abs(scan.quantiles["q50"] - scan.s0_minus_1) < 0.08
    cap_ok = max(scan.estimates) <= scan.s0_minus_1 + 0.08
    _report(
        "6",
        median_ok and cap_ok and elapsed < 60.0,
        f"median {scan.quantiles['q50']:.4f} vs s0-1 = {scan.s0_minus_1:.4f} (tol 0.08), "
        f"max {max(scan.estimates):.4f} <= bound+0.08, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_7_local_dimension():
    sample = estimators.natural_measure_sample(0.75, 10**7, 60, seed=42)
    xs = np.random.default_rng(7).choice(sample.points, 100, replace=False)
    slopes = estimators.local_dimension_slopes(sample, xs, r_lo=1e-5, r_hi=1e-2)
    median = float(np.nanmedian(slopes))
    _report(
        "7",
        median >= 0.95,
        f"median local dimension {median:.4f} >= 0.95 over 100 points, radii [1e-5, 1e-2], 1e7 samples",
    )


def test_criterion_8a_gamma_identity_exact():
    ok = True
    for m, k in ((1, 2), (2, 2), (2, 3)):
        _, _, report = subsystem.gamma_conjugate(Fraction(3, 4), m, k)
        ok = ok and report.exact
    _report("8a", ok, "gamma conjugation identity exact in rational arithmetic for (m,k) in {(1,2),(2,2),(2,3)} at a=3/4")


def test_criterion_8b_convolution_ks():
    report = subsystem.convolution_check(0.75, 2, 3, 10**6, seed=77)
    _report("8b", report.ks < 0.01, f"convolution KS = {report.ks:.5f} < 0.01 at 1e6 samples")


def test_criterion_8c_entropy_limit_exceeds_one():
    grid = np.linspace(0.551, 0.949, 25)
    ok = all(subsystem.entropy_ratio(float(a), 10, 10).limit_exceeds_one for a in grid)
    _report("8c", ok, "entropy-ratio limit > 1 across a-grid in (0.55, 0.95)")


@pytest.mark.xfail(
    strict=True,
    reason="finite-size deficit at m=k=200 is 0.0489 (> 0.02): limit/k ~ 0.014 plus the "
    "Stirling correction ~ 2.73 in log C(200,50); see decisions ledger",
)
def test_criterion_8d_entropy_ratio_near_limit():
    report = subsystem.entropy_ratio(0.75, 200, 200)
    deviation = abs(report.ratio - report.limit)
    _report(
        "8d",
        deviation < 0.02,
        f"|ratio - limit| = {deviation:.4f} at m=k=200 (stated tol 0.02 absolute)",
    )


def test_criterion_9_structural_invariants():
    ok = True
    details = []

    # endpoint values and graph symmetry at tolerance 1e-9
    for a in (0.6, 0.75, 0.9):
        y0, _ = evaluate_T(a, Fraction(0), 1e-9)
        y1, _ = evaluate_T(a, Fraction(1), 1e-9)
        ok = ok and y0 == 0 and y1 == 1
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        x = Fraction(float(rng.random()))
        y1, _ = evaluate_T(0.75, x, 1e-9)
        y2, _ = evaluate_T(0.75, 1 - x, 1e-9)
        worst = max(worst, abs(y1 + y2 - 1.0))
    ok = ok and worst <= 2e-9
    details.append(f"symmetry sup {worst:.2e} <= 2e-9")

    # natural weights sum exactly on the rational path
    rngw = np.random.default_rng(5)
    exact = all(
        sum(dimensions.natural_weights(Fraction(int(n), 1000))) == 1
        for n in rngw.integers(501, 1000, 1000)
    )
    ok = ok and exact
    details.append("weights sum exactly to 1 (1000 rational a)")

    # stopping covers prefix-free and complete down to r = 1e-3
    cover_cases = [(0.6, 1e-3), (0.55, 1e-3), (0.75, 0.05), (0.9, 0.3)]
    for a, r in cover_cases:
        ws = words.stopping_cover(a, r)
        prefix_free = all(cur[: len(prev)] != prev for prev, cur in zip(ws, ws[1:]))
        complete = sum(Fraction(1, 3 ** len(w)) for w in ws) == 1
        ok = ok and prefix_free and complete
    details.append(f"{len(cover_cases)} stopping covers prefix-free and complete (r down to 1e-3)")

    _report("9", ok, "; ".join(details))


def test_criterion_10_fourier_decay():
    sample = estimators.natural_measure_sample(0.75, 2 * 10**6, 50, seed=13)
    ts = np.geomspace(10.0, 1e4, 30)
    slope, _, used = estimators.fourier_decay_fit(sample, ts)
    _report(
        "10",
        used >= 2 and slope < 0.0,
        f"log-log decay slope {slope:.3f} < 0 over t in [10, 1e4] ({used} points above noise floor)",
    )
