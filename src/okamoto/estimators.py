"""Numerical verification layer: box counting, level-set covers, measure sampling and probes.

Box counting comes in two routes.  The column method is exact bookkeeping:
over a depth-n column the graph spans the full y-extent of its cylinder, which
is the product of the vertical ratio magnitudes, so grouping the 3^n words by
their number of 2-symbols turns N_delta into an (n+1)-term sum.  The grid
method actually samples graph points (cylinder anchors a few levels deeper)
and counts occupied mesh cells, so it can only undercount and serves as the
independent cross-check from below.

Level sets are covered by branch and bound: a word is extended only while its
closed y-interval still contains the target level.  Both the grid samples and
the level-set covers run on the one level kernel, systems.expand_level: the
covers on exact object arrays when a and y are rational and on float64
otherwise, all with the same prune predicate.  The exhaustive filter oracle
lives in the test suite.  level_statistics is the one place where a set of
levels, uniform or drawn from a measure, becomes float64 covers, estimates
log N_n / (n log 3) and their quantile summary.

Measures are sampled on the one-dimensional systems, so every sample is an
array of reals.  Two probes read a sample: local-dimension slopes from
closed-ball counts, and Monte-Carlo Fourier magnitudes with their decay fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import BudgetError, DepthCapError, OkamotoError, ParameterError
from .dimensions import LOG3, okamoto_s0
from .systems import Level, SystemSpec, build_system, expand_level
from .words import Number, check_a

COLUMN_DEPTH_CAP = 20
GRID_DEPTH_CAP = 14
LEVEL_SET_DEPTH_CAP = 24
SAMPLE_COUNT_CAP = 10**8
SAMPLE_DEPTH_CAP = 60
SCAN_TOLERANCE = 0.08  # a scan estimate above s0 - 1 + SCAN_TOLERANCE counts in frac_above


def _ceil_exact(x) -> int:
    if isinstance(x, Fraction):
        return -((-x.numerator) // x.denominator)
    return math.ceil(x)


@dataclass(frozen=True)
class BoxCountSeries:
    a: float
    method: str
    rows: tuple  # (depth n, delta = 3^-n, count)
    fitted_slope: float
    fit_residual: float


def box_count_graph(a: Number, n: int, method: str = "column") -> int:
    """Number of occupied mesh-size 3^-n boxes over the graph."""
    check_a(a)
    if n < 0:
        raise DepthCapError(f"box counting capped at n >= 0, got {n}")
    if n == 0:
        return 1
    if method == "column":
        if n > COLUMN_DEPTH_CAP:
            raise DepthCapError(f"column method capped at n <= {COLUMN_DEPTH_CAP}")
        return _box_count_column(a, n)
    if method == "grid":
        if n > GRID_DEPTH_CAP:
            raise DepthCapError(f"grid method capped at n <= {GRID_DEPTH_CAP}")
        return _box_count_grid(float(a), n)
    raise ParameterError(f"method must be 'column' or 'grid', got {method!r}")


def _grid_sampling_levels(a: float, n: int) -> int:
    """Extra anchor levels so samples roughly resolve the per-column oscillation.

    A column spans about (3a)^n boxes, so matching it needs n*log(3a)/log 3
    extra levels; the total point budget caps the depth at larger n.
    """
    needed = math.ceil(n * math.log(3.0 * a) / LOG3) + 1
    budget = max(2, 15 - n)  # keeps 3^(n + extra) around 1.4e7 points
    return max(2, min(needed, budget))


def _box_count_column(a: Number, n: int) -> int:
    """Exact count: words grouped by #2s; each column needs ceil(osc * 3^n) boxes."""
    b = 2 * a - 1
    total = 0
    for j in range(n + 1):
        osc_boxes = a ** (n - j) * b**j * 3**n
        total += math.comb(n, j) * 2 ** (n - j) * max(1, _ceil_exact(osc_boxes))
    return total


def _box_count_grid(a: float, n: int) -> int:
    """Boxes needed for sampled graph points, greedily covered column by column.

    Samples are the cylinder anchors _grid_sampling_levels deeper plus the
    right endpoint, all exact graph points.  Covering the sampled points of one
    column with height-delta boxes greedily needs at most ceil(extent/delta)
    boxes, so this count never exceeds the column formula.
    """
    tau, rho = build_system("projection", a).parts()
    level = expand_level(tau, rho, n)
    t, r = level.t, level.r
    anchors = np.append(expand_level(tau, rho, _grid_sampling_levels(a, n)).t, 1.0)
    delta = 3.0**-n
    total = 0
    chunk = max(64, (1 << 22) // len(anchors))
    for lo in range(0, len(t), chunk):
        ys = t[lo : lo + chunk, None] + r[lo : lo + chunk, None] * anchors[None, :]
        ys.sort(axis=1)
        cover_end = np.full(ys.shape[0], -np.inf)
        counts = np.zeros(ys.shape[0], dtype=np.int64)
        for col in range(ys.shape[1]):
            yi = ys[:, col]
            fresh = yi > cover_end
            counts[fresh] += 1
            cover_end[fresh] = yi[fresh] + delta
        total += int(counts.sum())
    return total


def fit_dimension(pairs: Sequence[tuple]) -> tuple:
    """OLS slope of log N against n log 3 over (n, count) pairs, plus the largest absolute residual."""
    if len(pairs) < 3:
        raise ParameterError(f"dimension fit needs >= 3 rows, got {len(pairs)}")
    xs = np.array([n * LOG3 for n, _ in pairs])
    ys = np.array([math.log(c) for _, c in pairs])
    slope, intercept = np.polyfit(xs, ys, 1)
    residual = float(np.max(np.abs(slope * xs + intercept - ys)))
    return float(slope), residual


def box_count_series(a: Number, depths: Sequence[int], method: str = "column") -> BoxCountSeries:
    rows = tuple((n, 3.0**-n, box_count_graph(a, n, method)) for n in depths)
    slope, residual = fit_dimension([(n, c) for n, _, c in rows])
    return BoxCountSeries(a=float(a), method=method, rows=rows, fitted_slope=slope, fit_residual=residual)


# --- level sets ---------------------------------------------------------------


@dataclass(frozen=True)
class LevelSetCover:
    a: Number
    y: Number
    depth: int
    level: Level

    @property
    def count(self) -> int:
        return len(self.level.t)

    @cached_property
    def words(self) -> tuple:
        """The covering words in lexicographic order, recovered on first access only."""
        return self.level.words()

    @property
    def dim_estimate(self) -> float:
        """log N_n / (n log 3).

        T is continuous with T(0) = 0 and T(1) = 1, so every level in [0, 1] is
        hit and its cover is never empty; an empty one is a defect, not level data.
        """
        if not self.count:
            raise OkamotoError(f"empty depth-{self.depth} cover of level y = {self.y} at a = {self.a}")
        return math.log(self.count) / (self.depth * LOG3)


def _contains(y):
    """Prune predicate: the closed y-interval between t and t + r of a word contains y."""

    def keep(t, r):
        end = t + r
        down = r < 0
        return (np.where(down, end, t) <= y) & (y <= np.where(down, t, end))

    return keep


def level_set_cover(a: Number, y: Number, n: int) -> LevelSetCover:
    """Depth-n words whose closed y-interval contains y, by branch and bound.

    Exact rational interval arithmetic whenever both a and y are rational.
    """
    check_a(a)
    if not (0 <= y <= 1):
        raise ParameterError(f"level y must lie in [0, 1], got {y}")
    if not (1 <= n <= LEVEL_SET_DEPTH_CAP):
        raise DepthCapError(f"depth must lie in [1, {LEVEL_SET_DEPTH_CAP}], got {n}")
    if not (isinstance(a, (Fraction, int)) and isinstance(y, (Fraction, int))):
        a, y = float(a), float(y)
    level = expand_level(*build_system("projection", a).parts(), n, _contains(y))
    return LevelSetCover(a=a, y=y, depth=n, level=level)


@dataclass(frozen=True)
class LevelStatistics:
    estimates: np.ndarray  # dim_estimate per level, in level order
    quantiles: dict  # q10, q25, q50, q75, q90
    median: float


def level_statistics(a: Number, ys: Sequence[float], n: int) -> LevelStatistics:
    """Depth-n cover-count dimension estimates at the given levels, on float64, and their summary."""
    if len(ys) == 0:
        raise ParameterError("level statistics need at least one level")
    est = np.array([level_set_cover(float(a), float(y), n).dim_estimate for y in ys])
    return LevelStatistics(
        estimates=est,
        quantiles={f"q{int(100 * q)}": float(np.quantile(est, q)) for q in (0.1, 0.25, 0.5, 0.75, 0.9)},
        median=float(np.median(est)),
    )


@dataclass(frozen=True)
class LevelSetScan:
    a: float
    depth: int
    seed: int
    tolerance: float
    s0_minus_1: float
    ys: tuple
    estimates: tuple
    quantiles: dict
    frac_above: float
    median_gap: float


def level_set_scan(a: float, sample_count: int, n: int, seed: int) -> LevelSetScan:
    """Distribution of cover-count dimension estimates over uniformly drawn levels."""
    check_a(a)
    if seed is None:
        raise ParameterError("level_set_scan needs a seed")
    if sample_count < 1:
        raise ParameterError(f"level_set_scan needs sample_count >= 1, got {sample_count}")
    ys = tuple(float(v) for v in np.random.default_rng(seed).random(sample_count))
    stats = level_statistics(a, ys, n)
    bound = okamoto_s0(a) - 1.0
    return LevelSetScan(
        a=float(a),
        depth=n,
        seed=seed,
        tolerance=SCAN_TOLERANCE,
        s0_minus_1=bound,
        ys=ys,
        estimates=tuple(float(e) for e in stats.estimates),
        quantiles=stats.quantiles,
        frac_above=float(np.mean(stats.estimates > bound + SCAN_TOLERANCE)),
        median_gap=stats.median - bound,
    )


# --- measure sampling -----------------------------------------------------------


@dataclass(frozen=True)
class MeasureSample:
    system_kind: str
    parameter: float | None
    weights: tuple
    points: np.ndarray
    seed: int
    depth: int

    @property
    def count(self) -> int:
        return len(self.points)


def sample_measure(
    system: SystemSpec,
    weights: Sequence[float],
    count: int,
    depth: int,
    seed: int,
) -> MeasureSample:
    """Monte-Carlo draw from the self-similar measure of a 1-D system with the given weights.

    Each point is the composition along an i.i.d. weight-distributed random
    word of the given depth, applied to 0.  Deterministic per seed.
    """
    if count < 1 or depth < 0:
        raise ParameterError(f"sampling needs count >= 1 and depth >= 0, got count {count}, depth {depth}")
    if count > SAMPLE_COUNT_CAP:
        raise BudgetError(f"sample count {count} exceeds cap {SAMPLE_COUNT_CAP}")
    if depth > SAMPLE_DEPTH_CAP:
        raise BudgetError(f"sample depth {depth} exceeds cap {SAMPLE_DEPTH_CAP}")
    w = np.asarray([float(x) for x in weights])
    if len(w) != len(system.maps) or np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
        raise ParameterError(f"invalid weight vector {weights} for {len(system.maps)} maps")
    cum = np.cumsum(w)
    rng = np.random.default_rng(seed)
    tau, rho = (np.array(v, dtype=float) for v in system.parts())
    # innermost-to-outermost composition; symbol order is irrelevant for i.i.d. draws
    pts = np.zeros(count)
    for _ in range(depth):
        s = np.searchsorted(cum, rng.random(count), side="right")
        pts = rho[s] * pts + tau[s]
    return MeasureSample(
        system_kind=system.kind,
        parameter=float(system.parameter),
        weights=tuple(float(x) for x in w),
        points=pts,
        seed=seed,
        depth=depth,
    )


def natural_measure_sample(a: float, count: int, depth: int, seed: int) -> MeasureSample:
    """y-projection of the natural measure: projection system with weights (a,2a-1,a)/(4a-1)."""
    from .dimensions import natural_weights

    return sample_measure(build_system("projection", float(a)), natural_weights(float(a)), count, depth, seed)


def _ball_counts(points: np.ndarray, xs: Sequence[float], radii: Sequence[float]) -> np.ndarray:
    """Closed-ball point counts #{p : |p - x| <= r}, one row per x and one column per radius."""
    radii = np.asarray(radii, dtype=float)
    if not np.all(radii > 0):
        raise ParameterError(f"radii must be positive, got {radii.tolist()}")
    pts = np.sort(points)
    centres = np.asarray(xs, dtype=float)[:, None]
    return np.searchsorted(pts, centres + radii, side="right") - np.searchsorted(pts, centres - radii, side="left")


def local_dimension_slopes(
    sample: MeasureSample,
    xs: Sequence[float],
    r_lo: float = 1e-5,
    r_hi: float = 1e-2,
    r_count: int = 8,
) -> np.ndarray:
    """Per-point local dimension as the slope of log mu(B(x,r)) against log r.

    The slope over a finite radii window is the resolution-limited version of
    the liminf quotient; points with any empty ball give nan.
    """
    radii = np.geomspace(r_lo, r_hi, r_count)
    counts = _ball_counts(sample.points, xs, radii)
    log_r = np.log(radii)
    out = np.full(len(counts), np.nan)
    for i, cnts in enumerate(counts):
        if np.all(cnts > 0):
            out[i] = np.polyfit(log_r, np.log(cnts / sample.count), 1)[0]
    return out


# --- Fourier probe -----------------------------------------------------------------


def fourier_estimate(sample: MeasureSample, t_values: Sequence[float]) -> np.ndarray:
    """|mu_hat(t)| by Monte Carlo; standard error is at most 1/sqrt(count)."""
    pts = sample.points
    out = np.empty(len(t_values))
    for k, t in enumerate(t_values):
        arg = t * pts
        out[k] = math.hypot(float(np.cos(arg).mean()), float(np.sin(arg).mean()))
    return out


def fourier_decay_fit(sample: MeasureSample, t_values: Sequence[float]) -> tuple:
    """(slope, intercept, points used) of the log-log decay fit.

    Points whose magnitude sits below three standard errors are noise and are
    dropped before fitting; fewer than two points left is a ParameterError.
    """
    mags = fourier_estimate(sample, t_values)
    floor = 3.0 / math.sqrt(sample.count)
    keep = mags > floor
    if keep.sum() < 2:
        raise ParameterError(
            f"decay fit needs >= 2 magnitudes above the noise floor 3/sqrt({sample.count}), got {int(keep.sum())}"
        )
    xs = np.log(np.asarray(t_values, dtype=float)[keep])
    ys = np.log(mags[keep])
    slope, intercept = np.polyfit(xs, ys, 1)
    return float(slope), float(intercept), int(keep.sum())


def ks_statistic(x: np.ndarray, y: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup |F_x - F_y|."""
    xs = np.sort(np.asarray(x))
    ys = np.sort(np.asarray(y))
    grid = np.concatenate([xs, ys])
    fx = np.searchsorted(xs, grid, side="right") / len(xs)
    fy = np.searchsorted(ys, grid, side="right") / len(ys)
    return float(np.max(np.abs(fx - fy)))
