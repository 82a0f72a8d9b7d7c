"""Numerical verification layer: box counting, level-set covers, measure sampling and probes.

Box counting comes in two routes.  The column method is exact bookkeeping:
over a depth-n column the graph spans the full y-extent of its cylinder, which
is the product of the vertical ratio magnitudes, so grouping the 3^n words by
their number of 2-symbols turns N_delta into an (n+1)-term sum.  The grid
method actually samples graph points (cylinder anchors a few levels deeper)
and covers each column's samples greedily with height-delta boxes, so it can
only undercount and serves as the independent cross-check from below.

Level sets are covered by branch and bound: a word is extended only while its
closed y-interval still contains the target level.  Both the grid samples and
the covers run on the one level kernel, systems.expand_level, on exact
integers over the common denominator when a and y are rational and on float64
otherwise.  level_statistics is the one place where a set of levels, uniform
or drawn from a measure, becomes estimates log N_n / (n log 3) and their
quantile summary.  With lo_w <= hi_w the ends of word w's interval, N_q(y) =
#{w : lo_w <= y} - #{w : hi_w < y}, so it sorts the two end arrays of one
unpruned level of depth q = min(n, 12) (3^12 words at most) and counts by two
binary searches.  A deeper word is w = u v with a prefix u of depth p = n - q,
and y lies in I_w exactly when z_u = S_u^-1(y) lies in I_v, so
N_n(y) = sum over u in cover_p(y) of N_q(z_u): branch and bound finds each
level's prefixes, at most 3^12 of them, and their z_u, clamped to [0, 1],
are searched in the sorted level.  So a count at any depth up to 24 holds
about 3^12 words, not the (4a-1)^n of a depth-n cover.  On rationals every
count is the cover's exactly.  On floats the depth-q count keeps the words
whose own rounded interval holds y, a superset of the cover, which also drops
a word whose prefix's rounded interval misses y; a split count rounds z_u
too and is neither a subset nor a superset of the cover.  Either differs from
the cover only within rounding of an interval end.

The one measure sampled is the y-projection of the natural measure, S_a with
weights (a, 2a-1, a)/(4a-1) = |rho_s|/(4a-1), so every sample is an array of
reals.  Its random words are drawn in blocks: the level kernel composes the
3^k maps of a k-symbol block, whose |r| are their weights up to scale, and
Walker's alias method (Vose's construction) picks one map per uniform draw.  A depth that is not a
multiple of the block length takes one shorter remainder block, so the depth
stays the one requested, and the points advance in fixed-size chunks, so the
memory beyond the sample itself stays bounded.  Two probes read a sample:
local-dimension slopes from closed-ball counts, and Monte-Carlo Fourier
magnitudes with their decay fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import BudgetError, DepthCapError, OkamotoError, ParameterError
from .dimensions import LOG3, natural_weights, okamoto_s0
from .systems import Level, expand_level, projection_parts
from .words import Number, check_a, float_a

COLUMN_DEPTH_CAP = 20
GRID_DEPTH_CAP = 14
LEVEL_SET_DEPTH_CAP = 24
SAMPLE_COUNT_CAP = 10**8
SAMPLE_DEPTH_CAP = 60
SAMPLE_BLOCK = 8  # symbols per alias-table draw of sample_measure: 3^8 = 6561 block maps
SAMPLE_CHUNK = 1 << 16  # points sample_measure advances together
LEVEL_COUNT_CAP = 10**5  # levels of one scan or slice report
LEVEL_SWEEP_DEPTH = 12  # depth of the one sorted level, 3^12 words, that level_statistics counts every depth on
SCAN_TOLERANCE = 0.08  # a scan estimate above s0 - 1 + SCAN_TOLERANCE counts in frac_above
GRID_CHUNK_BYTES = 1 << 18  # bytes of one per-row float64 array of the grid count: its few arrays stay in cache


@dataclass(frozen=True)
class BoxCountSeries:
    a: float
    method: str
    rows: tuple  # (depth n, delta = 3^-n, count)
    fitted_slope: float
    fit_residual: float


def _check_box_depth(a: Number, n: int, method: str) -> None:
    """The depth lies in [0, the method's cap]; a depth-0 count needs no method."""
    check_a(a)
    if n < 0:
        raise DepthCapError(f"box counting capped at n >= 0, got {n}")
    if n == 0:
        return
    caps = {"column": COLUMN_DEPTH_CAP, "grid": GRID_DEPTH_CAP}
    if method not in caps:
        raise ParameterError(f"method must be 'column' or 'grid', got {method!r}")
    if n > caps[method]:
        raise DepthCapError(f"{method} method capped at n <= {caps[method]}")


def box_count_graph(a: Number, n: int, method: str = "column") -> int:
    """Number of occupied mesh-size 3^-n boxes over the graph."""
    _check_box_depth(a, n, method)
    if n == 0:
        return 1
    if method == "column":
        return _box_count_column(Fraction(a), n)
    return _box_count_grid(float_a(a), n)


def _grid_sampling_levels(a: float, n: int) -> int:
    """Extra anchor levels so samples roughly resolve the per-column oscillation.

    A column spans about (3a)^n boxes, so matching it needs n*log(3a)/log 3
    extra levels; the total point budget caps the depth at larger n.  It
    bounds time, not memory: the count visits all 3^(n + extra) samples but
    holds one per row at a time.
    """
    needed = math.ceil(n * math.log(3.0 * a) / LOG3) + 1
    budget = max(2, 15 - n)  # keeps 3^(n + extra), the samples visited, around 1.4e7
    return max(2, min(needed, budget))


def _box_count_column(a: Fraction, n: int) -> int:
    """Exact count: words grouped by #2s; each column needs ceil(osc * 3^n) boxes.

    a is exact, the input's own value for a float, so no boundary count is rounded.
    """
    b = 2 * a - 1
    total = 0
    for j in range(n + 1):
        osc_boxes = a ** (n - j) * b**j * 3**n
        total += math.comb(n, j) * 2 ** (n - j) * max(1, math.ceil(osc_boxes))
    return total


def _box_count_grid(a: float, n: int) -> int:
    """Boxes needed for sampled graph points, greedily covered column by column.

    Samples are the cylinder anchors _grid_sampling_levels deeper plus the
    right endpoint, all exact graph points.  Covering the sampled points of one
    column with height-delta boxes greedily needs at most ceil(extent/delta)
    boxes, so this count never exceeds the column formula.

    The greedy cover takes a column's samples in ascending order, yet no
    column is sorted: its samples are fl(t + fl(r*x)) over one shared anchor
    set, and rounded multiplication and addition are monotone, so they rise
    with x where r > 0 and fall where r < 0 (r is never 0 for a in (1/2, 1)).
    The anchors are sorted once and each row walks them forwards or
    backwards, with the compares and float operations of a per-column sort.
    """
    tau, rho = projection_parts(a)
    level = expand_level(tau, rho, n)
    anchors = np.sort(np.append(expand_level(tau, rho, _grid_sampling_levels(a, n)).t, 1.0))
    delta = 3.0**-n
    total = 0
    rows = GRID_CHUNK_BYTES // 8
    for lo in range(0, len(level.t), rows):
        t, r = level.t[lo : lo + rows], level.r[lo : lo + rows]
        up = r > 0
        for tc, rc, xs in ((t[up], r[up], anchors), (t[~up], r[~up], anchors[::-1])):
            cover_end = np.full(len(tc), -np.inf)
            for x in xs:
                y = rc * x
                y += tc
                fresh = y > cover_end
                total += int(np.count_nonzero(fresh))
                y += delta
                np.copyto(cover_end, y, where=fresh)
    return total


def _check_fit_rows(count: int) -> None:
    if count < 3:
        raise ParameterError(f"dimension fit needs >= 3 rows, got {count}")


def fit_dimension(pairs: Sequence[tuple]) -> tuple:
    """OLS slope of log N against n log 3 over (n, count) pairs, plus the largest absolute residual."""
    _check_fit_rows(len(pairs))
    xs = np.array([n * LOG3 for n, _ in pairs])
    ys = np.array([math.log(c) for _, c in pairs])
    slope, intercept = np.polyfit(xs, ys, 1)
    residual = float(np.max(np.abs(slope * xs + intercept - ys)))
    return float(slope), residual


def box_count_series(a: Number, depths: Sequence[int], method: str = "column") -> BoxCountSeries:
    """Counts at every depth, each depth and then the row count checked before the first count."""
    for n in depths:
        _check_box_depth(a, n, method)
    _check_fit_rows(len(depths))
    rows = tuple((n, 3.0**-n, box_count_graph(a, n, method)) for n in depths)
    slope, residual = fit_dimension([(n, c) for n, _, c in rows])
    return BoxCountSeries(a=float(a), method=method, rows=rows, fitted_slope=slope, fit_residual=residual)


# --- level sets ---------------------------------------------------------------


@dataclass(frozen=True)
class LevelSetCover:
    """A depth-n level-set cover; its words are the rows of level.symbols(), in lexicographic order."""

    a: Number
    y: Number
    depth: int
    level: Level

    @property
    def count(self) -> int:
        return len(self.level.t)

    @property
    def dim_estimate(self) -> float:
        """log N_n / (n log 3).

        T is continuous with T(0) = 0 and T(1) = 1, so every level in [0, 1] is
        hit and its cover is never empty; an empty one is a defect, not level data.
        """
        return _dim_estimate(self.count, self.a, self.y, self.depth)


def _dim_estimate(count: int, a: Number, y: Number, n: int) -> float:
    if not count:
        raise OkamotoError(f"empty depth-{n} cover of level y = {y} at a = {a}")
    return math.log(count) / (n * LOG3)


def _level_bounds(y, unit) -> tuple:
    """(below, above) in kernel units: an end e has e <= y exactly when e <= below, y <= e when above <= e.

    On integers floor and ceil of the Fraction y * unit, exact on whole arrays
    and within the kernel's bound as floor <= unit; floats compare with y.
    """
    yu = y * unit
    return (math.floor(yu), math.ceil(yu)) if isinstance(unit, int) else (yu, yu)


def _contains(y):
    """Prune predicate: the closed y-interval between t and t + r of a word contains y, in kernel units.

    The interval's ends are min and max of t and t + r, no sign select on r:
    rounded addition is monotone, so fl(t + r) <= t exactly when r <= 0, and
    min/max pick the same end as the sign of r does, bit for bit on floats.
    """

    def keep(t, r, unit):
        below, above = _level_bounds(y, unit)
        end = t + r
        return (np.minimum(t, end) <= below) & (above <= np.maximum(t, end))

    return keep


def _split_bounds(y, prefix: Level, unit) -> tuple:
    """(below, above) of z_u = S_u^-1(y) for every prefix u of a level, in the suffix level's unit.

    On integers z_u * unit = (y * d^p - t_u) * unit / r_u over the prefix unit
    d^p, its floor and ceil taken by integer division, on int64 while the
    products stay below 2^63 and on Python ints beyond; floats divide.  Both
    ends are clamped to [0, unit]: a kept prefix has z_u in [0, 1] on
    rationals, so there the clamp changes nothing, and on floats it keeps a z_u
    rounded just outside [0, 1] on the suffix ends 0 and 1.
    """
    t, r = prefix.t, prefix.r
    if not isinstance(unit, int):
        z = y - t
        z /= r
        np.clip(z, 0.0, 1.0, out=z)
        return z, z
    y = Fraction(y)
    num, den = y.numerator, y.denominator
    reach = num * prefix.unit + den * int(max(np.abs(t).max(initial=0), np.abs(r).max(initial=0)))
    if reach * unit >= 2**63:  # bounds |top| and |bottom| below
        t, r = t.astype(object), r.astype(object)
    top = (num * prefix.unit - den * t) * unit
    bottom = den * r
    return np.clip(top // bottom, 0, unit), np.clip(-(-top // bottom), 0, unit)


def _level_counts(a: Number, ys: Sequence, n: int) -> list:
    """N_n(y) at the levels ys: N_q counted on one sorted depth-q level, q = min(n, LEVEL_SWEEP_DEPTH).

    A depth-q word v has N_q's interval ends lo_v <= hi_v as _contains takes
    them, so N_q(z) = #{v : lo_v <= z} - #{v : hi_v < z}, two binary searches
    on the sorted ends.  A depth-n word is w = u v with a prefix u of depth
    p = n - q, and y lies in I_w exactly when z_u = S_u^-1(y) lies in I_v, so
    N_n(y) = sum over u in cover_p(y) of N_q(z_u): each level's prefixes come
    from branch and bound, at most 3^p of them (p <= 12 as n <= 24) beside
    the 3^q sorted ends, and their z_u (see _split_bounds) are searched at
    once.  At p = 0 the prefix is the identity and z = y bit for bit, so
    every level is searched at once.  Exact on rationals; on floats see the
    module docstring.
    """
    q = min(n, LEVEL_SWEEP_DEPTH)
    parts = projection_parts(a)
    suffix = expand_level(*parts, q)
    lo, end = suffix.t, suffix.r
    end += lo
    hi = np.maximum(lo, end)
    np.minimum(lo, end, out=lo)
    lo.sort()
    hi.sort()

    def count(below, above):
        return np.searchsorted(lo, below, side="right") - np.searchsorted(hi, above, side="left")

    if q == n:
        return count(*zip(*(_level_bounds(y, suffix.unit) for y in ys))).tolist()
    splits = (_split_bounds(y, expand_level(*parts, n - q, _contains(y)), suffix.unit) for y in ys)
    return [int(count(*bounds).sum()) for bounds in splits]


def _check_level(y: Number) -> None:
    if not (0 <= y <= 1):
        raise ParameterError(f"level y must lie in [0, 1], got {y}")


def _check_cover_depth(n: int) -> None:
    if not (1 <= n <= LEVEL_SET_DEPTH_CAP):
        raise DepthCapError(f"depth must lie in [1, {LEVEL_SET_DEPTH_CAP}], got {n}")


def level_set_cover(a: Number, y: Number, n: int) -> LevelSetCover:
    """Depth-n words whose closed y-interval contains y, by branch and bound.

    Exact rational interval arithmetic whenever both a and y are rational.
    """
    check_a(a)
    _check_level(y)
    _check_cover_depth(n)
    if not (isinstance(a, (Fraction, int)) and isinstance(y, (Fraction, int))):
        a, y = float_a(a), float(y)
    level = expand_level(*projection_parts(a), n, _contains(y))
    return LevelSetCover(a=a, y=y, depth=n, level=level)


@dataclass(frozen=True)
class LevelStatistics:
    estimates: np.ndarray  # dim_estimate per level, in level order
    quantiles: dict  # q10, q25, q50, q75, q90
    median: float


def level_statistics(a: Number, ys: Sequence[float], n: int) -> LevelStatistics:
    """Depth-n cover-count dimension estimates at the given levels, on float64, and their summary.

    a, every level and the depth are checked before any count.  Every depth
    is counted by _level_counts: one sorted level of depth min(n, 12), under
    a branch-and-bound prefix cover per level when n > 12.
    """
    a = float_a(a)
    if len(ys) == 0:
        raise ParameterError("level statistics need at least one level")
    for y in ys:
        _check_level(y)
    _check_cover_depth(n)
    est = np.array([_dim_estimate(c, a, float(y), n) for c, y in zip(_level_counts(a, ys, n), ys)])
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
    ys: np.ndarray
    estimates: np.ndarray
    quantiles: dict
    frac_above: float
    median_gap: float


def _check_levels(count: int, n: int) -> None:
    """The level count lies in [1, LEVEL_COUNT_CAP] and the cover depth in [1, LEVEL_SET_DEPTH_CAP]."""
    if count < 1:
        raise ParameterError(f"level statistics need a level count >= 1, got {count}")
    if count > LEVEL_COUNT_CAP:
        raise BudgetError(f"level count {count} exceeds cap {LEVEL_COUNT_CAP}")
    _check_cover_depth(n)


def level_set_scan(a: float, sample_count: int, n: int, seed: int) -> LevelSetScan:
    """Distribution of cover-count dimension estimates over uniformly drawn levels."""
    a = float_a(a)
    if seed is None:
        raise ParameterError("level_set_scan needs a seed")
    _check_levels(sample_count, n)
    ys = np.random.default_rng(seed).random(sample_count)
    stats = level_statistics(a, ys, n)
    bound = okamoto_s0(a) - 1.0
    return LevelSetScan(
        a=a,
        depth=n,
        seed=seed,
        tolerance=SCAN_TOLERANCE,
        s0_minus_1=bound,
        ys=ys,
        estimates=stats.estimates,
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


def _alias_table(weights: np.ndarray) -> tuple:
    """(prob, alias) of Walker's alias method for the given weights, by Vose's construction.

    A draw takes a uniform column i of the n entries and keeps i with
    probability prob[i], else takes alias[i]; entry i then carries total mass
    prob[i] + sum over j with alias[j] = i, j != i, of 1 - prob[j], which is
    n * w_i / sum(w).  The weights are rounded to integer units, 2^49 for the
    largest, so every sum stays below 2^63 and the construction on the units
    is exact: each prob is rounded once, by its final division.
    """
    w = np.asarray(weights, dtype=float)
    n = len(w)
    units = np.rint(w * (2.0**49 / w.max())).astype(np.int64)
    full = int(units.sum())  # the content of one column; entry i brings n * units[i]
    mass = (units * n).tolist()
    prob = np.ones(n)  # the columns left when one list runs dry hold exactly `full`
    alias = np.arange(n)
    small = [i for i, v in enumerate(mass) if v < full]
    large = [i for i, v in enumerate(mass) if v >= full]
    while small and large:
        s, g = small.pop(), large.pop()
        prob[s], alias[s] = mass[s] / full, g
        mass[g] -= full - mass[s]
        (small if mass[g] < full else large).append(g)
    return prob, alias


def _alias_draw(prob: np.ndarray, alias: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """size i.i.d. entry indices from an alias table: one uniform gives both the column and the coin."""
    u = rng.random(size)
    u *= len(prob)
    col = u.astype(np.intp)
    u -= col
    return np.where(u < prob[col], col, alias[col])


def _block_table(a: float, k: int) -> tuple:
    """(t, r, prob, alias) of the 3^k composed maps of a k-symbol block, in lexicographic word order.

    The natural weights are |rho_s|/(4a-1), so a word's product weight is
    |r|/(4a-1)^k: the alias table, which takes weights up to scale, is built
    on the maps' own |r|.
    """
    level = expand_level(*projection_parts(a), k)
    prob, alias = _alias_table(np.abs(level.r))
    return level.t, level.r, prob, alias


def _check_count(count: int) -> None:
    """The draw count lies in [1, SAMPLE_COUNT_CAP]."""
    if count < 1:
        raise ParameterError(f"sampling needs count >= 1, got {count}")
    if count > SAMPLE_COUNT_CAP:
        raise BudgetError(f"sample count {count} exceeds cap {SAMPLE_COUNT_CAP}")


def sample_measure(a: float, count: int, depth: int, seed: int) -> MeasureSample:
    """Monte-Carlo draw from the y-projection of the natural measure: S_a with weights (a, 2a-1, a)/(4a-1).

    Each point is the composition along an i.i.d. weight-distributed random
    word of the given depth, applied to 0.  Deterministic per seed.

    The word is drawn in blocks of SAMPLE_BLOCK symbols: one alias-table draw
    picks one of the 3^SAMPLE_BLOCK composed block maps with its product
    weight, by one uniform and one compare, and two gathers apply it.  For
    depth = q * SAMPLE_BLOCK + rem, the rem symbols left over come from one
    more table of 3^rem maps, so the depth, and with it the tail a^depth, is
    exactly the one requested.  The points advance SAMPLE_CHUNK at a time,
    which keeps the temporaries in cache and bounds the memory beyond the
    sample itself.  The tables are built per call.
    """
    a = float_a(a)
    _check_count(count)
    if depth < 0:
        raise ParameterError(f"sampling needs depth >= 0, got {depth}")
    if depth > SAMPLE_DEPTH_CAP:
        raise BudgetError(f"sample depth {depth} exceeds cap {SAMPLE_DEPTH_CAP}")
    blocks, rem = divmod(depth, SAMPLE_BLOCK)
    steps = [_block_table(a, SAMPLE_BLOCK)] * blocks if blocks else []
    if rem:
        steps.append(_block_table(a, rem))
    rng = np.random.default_rng(seed)
    pts = np.zeros(count)
    for lo in range(0, count, SAMPLE_CHUNK):
        x = pts[lo : lo + SAMPLE_CHUNK]  # a view: the chunk is composed in place
        # each step applies its block map outermost: the steps' symbols form one i.i.d. word of the depth
        for t, r, prob, alias in steps:
            s = _alias_draw(prob, alias, len(x), rng)
            x *= r[s]
            x += t[s]
    return MeasureSample(
        system_kind="projection", parameter=a, weights=natural_weights(a), points=pts, seed=seed, depth=depth
    )


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
