"""Numerical verification layer: box counting, level-set covers, measure sampling and probes.

Box counting takes one sum for both methods: the C(n, j) 2^(n-j) depth-n
columns with j symbols 2 share the signed ratio a^(n-j) (1-2a)^j, so N_delta =
sum over j of C(n, j) 2^(n-j) boxes(j).  The column method is exact: the graph
spans its cylinder's full y-extent |ratio|, so boxes(j) = ceil(extent/delta).
The grid method samples one column per j, 1^(n-j) 2^j, at cylinder anchors a
few levels deeper and covers the samples greedily with height-delta boxes, so
it can only undercount and serves as the independent cross-check from below.

Level sets are covered by branch and bound: a word is extended only while its
closed y-interval still contains the target level, and a cover whose kept
words pass COVER_BYTE_BUDGET bytes at a depth is refused.  Both the grid
anchors and the covers run on the one level kernel, systems.expand_level, on
exact integers over the common denominator when a and y are rational and on
float64 otherwise.  level_statistics is the one place where a set of levels,
uniform or drawn from a measure, becomes estimates log N_n / (n log 3) and
their quantile summary, np.quantile's default "linear" rule and np.median
bit for bit from one sort of the estimates (np.quantile's np.unique would
import numpy.ma).  With lo_w <= hi_w the ends of word w's interval,
N_q(y) = #{w : lo_w <= y} - #{w : hi_w < y}, so it sorts the two end arrays of
one unpruned level of depth q, the upper ends on one helper thread beside the
lower ends whatever the CPU count, and counts by two binary searches.  A depth-n
word is w = u v with a prefix u of depth p = n - q, and y lies in I_w exactly
when z_u = S_u^-1(y) lies in I_v, so N_n(y) = sum over u in cover_p(y) of
N_q(z_u).  Up to depth LEVEL_SWEEP_DEPTH = 12, q = n: the prefix is empty,
each level's identity root gives z = y, and the count is the sweep of every
level through the sorted level.  Past it q is the smallest with 3^q >= L
(4a-1)^p for L levels, at most 12: the sorted level against the mean size of
all levels' prefix covers.  Both take one path: one batched expand_level, one
root per level, finds the prefixes of all levels, each child tested against
its own level; the z_u, clamped to [0, 1], are searched in the sorted level
and summed per level.  One function, _z_bounds, gives every level bound: z_u
of a prefix, and y at the identity, as the covers test it.  The levels go in
chunks whose children stay within SPLIT_FRONTIER_CAP = 3^10 entries at a depth
unless a chunk is one level, so a count at any depth up to 24 holds a sorted
level of at most 3^12 words beside one chunk, not the (4a-1)^n of a depth-n
cover; only a single level whose own prefix cover is larger holds that cover,
as a per-level count would.  On rationals every count is the cover's exactly,
at every q.  On floats the depth-n count keeps the words whose own rounded
interval holds y, a superset of the cover, which also drops a word whose
prefix's rounded interval misses y; a split count rounds z_u too and is
neither a subset nor a superset of the cover, and the batched prefixes round
exactly as one level's alone.  Either differs from the cover only within
rounding of an interval end.

Every sample is drawn by one core, _sample_words on the block tables of
_block_steps: i.i.d. random words of N maps x -> rho_s x + tau_s applied to
0, map s drawn with weight |rho_s| / sum |rho|.  The natural weights
(a, 2a-1, a)/(4a-1) of S_a are |rho_s|/(4a-1), so the core draws the
y-projection of the natural measure; in a homogeneous subsystem every |rho|
is |lambda|, so it draws the uniform coding measure.  Words come in blocks of
k symbols, k the largest with N^k <= 3^SAMPLE_BLOCK (8 for S_a): the N^k
block maps are the depth-k level of expand_level (for k = 1 the maps
themselves, uncopied), and Walker's alias method (Vose's construction) picks
one per uniform u with weight |r| and no branch: the maps stacked over their
aliases' maps are indexed at c + n [n u - c >= prob[c]], c = floor(n u).  A
depth that is not a multiple of k takes one shorter remainder block, and the
points advance in fixed-size chunks through scratch allocated once, so the
memory beyond the sample stays bounded.  The tables are built once per law:
the k copies of a subsystem's eta share one set.  Two probes
read a sample: local-dimension slopes from closed-ball counts, and
Monte-Carlo Fourier magnitudes with their decay fit, whose frequencies share
one set of Taylor moments of the binned points, on the calling thread, so
the output is the same on any CPUs.
"""

from __future__ import annotations

import bisect
import functools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import BudgetError, DepthCapError, OkamotoError, ParameterError
from .dimensions import LOG3, natural_weights, okamoto_s0
from .systems import Level, expand_level, fold_word, projection_parts
from .words import Number, check_a, float_a

COLUMN_DEPTH_CAP = 20
GRID_DEPTH_CAP = 14
LEVEL_SET_DEPTH_CAP = 24
SAMPLE_COUNT_CAP = 10**8
SAMPLE_DEPTH_CAP = 60
SAMPLE_BLOCK = 8  # a draw takes k symbols of N maps, k >= 1 the largest with N^k <= 3^8: 8 symbols of S_a
SAMPLE_CHUNK = 1 << 16  # points _sample_words advances together
LEVEL_COUNT_CAP = 10**5  # levels of one scan or slice report
LEVEL_SWEEP_DEPTH = 12  # deepest sorted suffix level, 3^12 words, that level_statistics counts on
# children a chunk of levels' batched prefix covers may hold at one depth: at about 50 bytes a child with
# its bounds, root indices and masks, a chunk takes a third of the sorted depth-12 level's 8.5 MB
SPLIT_FRONTIER_CAP = 3**10
COVER_BYTE_BUDGET = 1 << 25  # bytes of the t and r arrays a level-set cover may keep at one depth: 2^21 words
_TAYLOR_TERMS = next(m for m in range(64) if math.factorial(m) >= 2**53)  # M = 19, the first with 1/M! <= 2^-53
SCAN_TOLERANCE = 0.08  # a scan estimate above s0 - 1 + SCAN_TOLERANCE counts in frac_above


@dataclass(frozen=True)
class BoxCountSeries:
    a: float
    method: str
    rows: tuple  # (depth n, delta = 3^-n, count)
    fitted_slope: float
    fit_residual: float


def _check_box_depth(a: Number, n: int, method: str) -> None:
    """The method is known and the depth lies in [0, its cap]."""
    check_a(a)
    if n < 0:
        raise DepthCapError(f"box counting capped at n >= 0, got {n}")
    caps = {"column": COLUMN_DEPTH_CAP, "grid": GRID_DEPTH_CAP}
    if method not in caps:
        raise ParameterError(f"method must be 'column' or 'grid', got {method!r}")
    if n > caps[method]:
        raise DepthCapError(f"{method} method capped at n <= {caps[method]}")


def box_count_graph(a: Number, n: int, method: str = "column") -> int:
    """Number of occupied mesh-size 3^-n boxes over the graph: sum over j of C(n, j) 2^(n-j) boxes(j)."""
    _check_box_depth(a, n, method)
    boxes = _column_boxes(Fraction(a), n) if method == "column" else _grid_boxes(float_a(a), n)
    return sum(math.comb(n, j) * 2 ** (n - j) * boxes(j) for j in range(n + 1))


def _grid_sampling_levels(a: float, n: int) -> int:
    """Extra anchor levels so samples roughly resolve the per-column oscillation.

    A column spans about (3a)^n boxes, so matching it needs n*log(3a)/log 3
    extra levels; the total point budget caps the depth at larger n.  It
    fixes the anchors, the sample set the grid count is defined on.
    """
    needed = math.ceil(n * math.log(3.0 * a) / LOG3) + 1
    budget = max(2, 15 - n)  # keeps 3^(n + extra), the samples of all columns, around 1.4e7
    return max(2, min(needed, budget))


def _column_boxes(a: Fraction, n: int) -> Callable[[int], int]:
    """boxes(j) = max(1, ceil(a^(n-j) (2a-1)^j 3^n)), on integers: a = p/q gives p^(n-j) (2p-q)^j 3^n / q^n.

    a is exact, the input's own value for a float, so no boundary count is
    rounded; the ceiling is a floor division of the negated numerator.
    """
    p, q = a.numerator, a.denominator
    scale, den = 3**n, q**n
    return lambda j: max(1, -(-(p ** (n - j)) * (2 * p - q) ** j * scale // den))


def _grid_boxes(a: float, n: int) -> Callable[[int], int]:
    """boxes(j) of the grid method: the greedy cover of the sampled points of the column 1^(n-j) 2^j.

    Samples are the cylinder anchors _grid_sampling_levels deeper plus the
    right endpoint, all exact graph points.  Covering the sampled points of one
    column with height-delta boxes greedily needs at most ceil(extent/delta)
    boxes, so this count never exceeds the column formula.

    The samples fl(fl(r*x) + t) over the sorted anchors x rise with x where
    r > 0 and fall where r < 0, rounding being monotone, so they are walked
    forwards or backwards; each box starts at the first sample above the last
    box's top, by binary search.  Every column with j twos has the ratio
    a^(n-j) (1-2a)^j, so its samples are a translate of these and need as many
    boxes in exact arithmetic.  In floats two translates could part at a tie
    within rounding: the sum equals tests/graph_oracle.box_count_grid_sorted
    (every column, sorted) on every case checked, not by construction.
    """
    tau, rho = projection_parts(a)
    anchors = np.sort(np.append(expand_level(tau, rho, _grid_sampling_levels(a, n)).t, 1.0))
    delta = 3.0**-n

    def boxes(j: int) -> int:
        t, r = fold_word(tau, rho, [1] * (n - j) + [2] * j)
        ys = (r * (anchors if r > 0 else anchors[::-1]) + t).tolist()
        count = start = 0
        while start < len(ys):
            count += 1
            start = bisect.bisect_right(ys, ys[start] + delta, start)
        return count

    return boxes


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


def _holds(t, r, below, above):
    """The closed y-interval between t and t + r holds the level with bounds (below, above), in kernel units.

    The interval's ends are min and max of t and t + r, no sign select on r:
    rounded addition is monotone, so fl(t + r) <= t exactly when r <= 0, and
    min/max pick the same end as the sign of r does, bit for bit on floats.
    """
    end = t + r
    hi = np.maximum(t, end)
    lo = np.minimum(t, end, out=end)
    mask = lo <= below
    mask &= above <= hi
    return mask


class _FrontierFull(Exception):
    """A batched prefix cover of several levels outgrew SPLIT_FRONTIER_CAP; it is retried in halves."""


class _EachLevel:
    """keep of a batched expand_level: the child of root i is tested against level ys[i].

    idx is the root of every entry, np.repeat(idx, 3)[mask] per depth.  With
    one level it stays None: the level's values broadcast, nothing is
    gathered, and the keep is the level's own cover's.  Several levels raise
    _FrontierFull before a depth below p whose children would pass
    SPLIT_FRONTIER_CAP entries.  Only this class tells one level from several.
    """

    def __init__(self, ys: Sequence, p: int):
        self.ys, self.p = ys, p
        self.idx = None if len(ys) == 1 else np.arange(len(ys))
        self.depth = 0

    @functools.cached_property
    def ratios(self) -> tuple:
        """(num, den, max num, max den) of the levels as exact integers, num and den object arrays, built once."""
        num, den = np.array([Fraction(y).as_integer_ratio() for y in self.ys], dtype=object).T
        return num, den, num.max(), den.max()

    def gather(self, per_level: np.ndarray, minus=0) -> np.ndarray:
        """Per frontier entry, its level's value less minus: one level's broadcast, several levels' offset in place."""
        if self.idx is None:
            return per_level - minus
        out = per_level[self.idx]
        out -= minus
        return out

    def sums(self, per_entry: np.ndarray):
        """The frontier entries' values summed per level."""
        if self.idx is None:
            return per_entry.sum()
        return np.bincount(self.idx, weights=per_entry, minlength=len(self.ys))

    def __call__(self, t, r, unit):
        self.depth += 1
        if self.idx is not None:
            self.idx = np.repeat(self.idx, 3)
        mask = _holds(t, r, *_z_bounds(self, unit))
        if self.idx is not None:
            self.idx = self.idx[mask]
            if self.depth < self.p and 3 * len(self.idx) > SPLIT_FRONTIER_CAP:
                raise _FrontierFull
        return mask


def _z_bounds(levels: _EachLevel, unit, t=0, r=1, prefix_unit=1) -> tuple:
    """(below, above) of z_u = S_u^-1(y) in the unit of the level it is tested on, per prefix u of the levels.

    An interval end e there has e <= z_u exactly when e <= below, and z_u <= e
    when above <= e.  The prefix maps are x -> (r x + t) / prefix_unit, one per
    frontier entry of `levels`.  The identity prefix, t = 0 and r = 1 over
    unit 1, gives z_u = y: bit for bit on floats, floor and ceil of y * unit
    on integers.  On integers z_u * unit = (y * prefix_unit - t) * unit / r,
    its floor and ceil taken by integer division, on int64 while the products
    stay below 2^63 and on Python ints beyond; a kept prefix has z_u in [0, 1]
    exactly there.  Floats divide, and z_u is clamped to [0, 1], which keeps a
    z_u rounded just outside it on the suffix ends 0 and 1.
    """
    if not isinstance(unit, int):
        z = levels.gather(np.asarray(levels.ys, dtype=float), t)
        z /= r
        np.clip(z, 0.0, 1.0, out=z)
        return z, z
    num, den, num_max, den_max = levels.ratios
    reach = num_max * prefix_unit + den_max * int(max(np.abs(t).max(initial=0), np.abs(r).max(initial=0)))
    if reach * unit < 2**63:  # bounds |top| and |bottom| below
        num, den = num.astype(np.int64), den.astype(np.int64)
    else:
        t, r = np.asarray(t, dtype=object), np.asarray(r, dtype=object)
    num, den = levels.gather(num), levels.gather(den)
    top = (num * prefix_unit - den * t) * unit
    bottom = den * r
    return top // bottom, -(-top // bottom)


def _suffix_depth(a: Number, levels: int, n: int) -> int:
    """The depth q of the sorted suffix level for `levels` levels at depth n.

    n itself up to LEVEL_SWEEP_DEPTH (no split); beyond it the smallest q >= 1
    with 3^q >= levels * (4a-1)^(n-q), at most LEVEL_SWEEP_DEPTH: the sorted
    level's 3^q words against the mean size of the depth-(n-q) prefix covers
    of all levels, (4a-1)^(n-q) each.
    """
    if n <= LEVEL_SWEEP_DEPTH:
        return n
    q = 1
    while q < LEVEL_SWEEP_DEPTH and 3**q < levels * (4 * a - 1) ** (n - q):
        q += 1
    return q


def _sorted_ends(parts: tuple, q: int) -> tuple:
    """(lo, hi, unit): the sorted lower and upper interval ends of the unpruned depth-q level.

    The level's t becomes lo in place and its r the upper ends before hi is
    taken, so only lo and hi outlive the call.  hi sorts on one helper thread
    while the calling thread sorts lo, whatever the CPU count: numpy sorts in
    place, with no array allocated, and releases the GIL for numeric levels.
    A failed sort is raised after the join as a serial loop raises it, lo's first.
    """
    level = expand_level(*parts, q)
    lo, end = level.t, level.r
    end += lo
    hi = np.maximum(lo, end)
    np.minimum(lo, end, out=lo)
    failed = []

    def sort_hi():
        try:
            hi.sort()
        except Exception as exc:
            failed.append(exc)

    helper = threading.Thread(target=sort_hi)
    helper.start()
    try:
        lo.sort()
    finally:
        helper.join()
    if failed:
        raise failed[0]
    return lo, hi, level.unit


def _level_counts(a: Number, ys: Sequence, n: int) -> list:
    """N_n(y) at the levels ys, split at the suffix depth _suffix_depth chooses from n and the level count."""
    return _split_counts(a, ys, n, _suffix_depth(a, len(ys), n))


def _split_counts(a: Number, ys: Sequence, n: int, q: int) -> list:
    """N_n(y) at the levels ys: N_q counted on one sorted depth-q level under the depth-(n-q) prefix covers.

    A depth-q word v has N_q's interval ends lo_v <= hi_v as _holds takes
    them, so N_q(z) = #{v : lo_v <= z} - #{v : hi_v < z}, two binary searches
    on the sorted ends, made with the keys in sorted order and scattered back.
    A depth-n word is w = u v with a prefix u of depth p = n - q, and y lies
    in I_w exactly when z_u = S_u^-1(y) lies in I_v, so N_n(y) = sum over u
    in cover_p(y) of N_q(z_u).  One batched expand_level finds the prefixes
    of all levels at once, one root per level, each child tested against its
    own level (_EachLevel); the z_u of all of them (_z_bounds) are searched
    together and summed per level over the root index.  At q = n the prefix
    is empty: each level keeps its identity root, z = y, and the same
    searches count the unsplit sweep.  The levels go in chunks, split only
    between levels, whose children stay within SPLIT_FRONTIER_CAP entries at
    every depth unless a chunk is a single level: a chunk that outgrows it
    is retried in halves, and the next chunks keep the smaller size.  Exact
    on rationals at every q; on floats see the module docstring.
    """
    parts = projection_parts(a)
    lo, hi, unit = _sorted_ends(parts, q)

    def count(below, above):
        order = np.argsort(below)  # keys searched in order stay in cache; above sorts with below
        found = np.searchsorted(lo, below[order], side="right")
        found -= np.searchsorted(hi, above[order], side="left")
        counts = np.empty_like(found)
        counts[order] = found
        return counts

    counts = np.zeros(len(ys), dtype=np.int64)
    start, size = 0, min(len(ys), SPLIT_FRONTIER_CAP // 3)
    while start < len(ys):
        chunk = ys[start : start + size]
        try:
            counts[start : start + len(chunk)] = _prefix_counts(parts, chunk, n - q, unit, count)
        except _FrontierFull:
            size = len(chunk) // 2
            continue
        start += len(chunk)
    return counts.tolist()


def _prefix_counts(parts: tuple, ys: Sequence, p: int, unit, count) -> np.ndarray:
    """Per level y, the sum of count(z_u) over its depth-p prefix cover, from one batched expand_level.

    A function of its own so that a chunk's arrays are gone before the next
    chunk expands.
    """
    levels = _EachLevel(ys, p)
    prefix = expand_level(*parts, p, levels, roots=len(ys))
    bounds = _z_bounds(levels, unit, prefix.t, prefix.r, prefix.unit)
    del prefix  # the prefixes' t, r and masks go before the searches build their counts
    return levels.sums(count(*bounds))


def _check_level(y: Number) -> None:
    if not (0 <= y <= 1):
        raise ParameterError(f"level y must lie in [0, 1], got {y}")


def _check_cover_depth(n: int) -> None:
    if not (1 <= n <= LEVEL_SET_DEPTH_CAP):
        raise DepthCapError(f"depth must lie in [1, {LEVEL_SET_DEPTH_CAP}], got {n}")


def level_set_cover(a: Number, y: Number, n: int) -> LevelSetCover:
    """Depth-n words whose closed y-interval contains y, by branch and bound.

    Exact rational interval arithmetic whenever both a and y are rational.
    The kept words are checked at every depth: once their t and r arrays
    pass COVER_BYTE_BUDGET bytes (16 per word on float64 and int64, a pointer
    each for Python ints) the cover is a BudgetError, before the next depth
    builds three children for each of them.
    """
    check_a(a)
    _check_level(y)
    _check_cover_depth(n)
    if not (isinstance(a, (Fraction, int)) and isinstance(y, (Fraction, int))):
        a, y = float_a(a), float(y)

    holds_y = _EachLevel([y], n)

    def keep(t, r, unit):
        mask = holds_y(t, r, unit)
        if np.count_nonzero(mask) * (t.itemsize + r.itemsize) > COVER_BYTE_BUDGET:
            raise BudgetError(f"depth-{n} cover of level y = {y} at a = {a} exceeds {COVER_BYTE_BUDGET} bytes")
        return mask

    level = expand_level(*projection_parts(a), n, keep)
    return LevelSetCover(a=a, y=y, depth=n, level=level)


@dataclass(frozen=True)
class LevelStatistics:
    estimates: np.ndarray  # dim_estimate per level, in level order
    quantiles: dict  # q10, q25, q50, q75, q90
    median: float


def level_statistics(a: Number, ys: Sequence[float], n: int) -> LevelStatistics:
    """Depth-n cover-count dimension estimates at the given levels, on float64, and their summary.

    a, every level and the depth are checked before any count.  Every depth
    is counted by _level_counts on one path: one sorted level of depth q under
    one batched branch-and-bound cover of every level's depth-(n-q) prefixes,
    in chunks of at most SPLIT_FRONTIER_CAP children per depth.  Up to depth
    12, q = n and the prefixes are empty, so each level is searched as it is;
    past 12, 3^q >= L (4a-1)^(n-q) for L levels, q <= 12.
    """
    a = float_a(a)
    if len(ys) == 0:
        raise ParameterError("level statistics need at least one level")
    for y in ys:
        _check_level(y)
    _check_cover_depth(n)
    est = np.array([_dim_estimate(c, a, float(y), n) for c, y in zip(_level_counts(a, ys, n), ys)])
    return LevelStatistics(est, *_summary(est))


def _summary(est: np.ndarray) -> tuple:
    """(quantiles q10 to q90, median) of the estimates, np.quantile's default "linear" rule and np.median bit for bit.

    With s the n sorted estimates, v = (n-1) q, i = floor(v) and g = v - i, a
    quantile interpolates lo = s[i] and hi = s[min(i+1, n-1)] as numpy's _lerp
    does: hi - (hi-lo)(1-g) where g >= 0.5, else lo + (hi-lo) g.  The median
    is the middle of s, or the mean of its two middle values.  np.quantile
    itself calls np.unique, whose first call imports numpy.ma.
    """
    s = np.sort(est).tolist()
    n = len(s)
    quantiles = {}
    for q in (0.1, 0.25, 0.5, 0.75, 0.9):
        v = (n - 1) * q
        i = math.floor(v)
        g = v - i
        lo, hi = s[i], s[min(i + 1, n - 1)]
        d = hi - lo
        quantiles[f"q{int(100 * q)}"] = hi - d * (1 - g) if g >= 0.5 else lo + d * g
    return quantiles, s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2


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
    """(prob, alias) of Walker's alias method for the weights' magnitudes, by Vose's construction.

    A draw takes a uniform column i of the n entries and keeps i with
    probability prob[i], else takes alias[i]; entry i then carries total mass
    prob[i] + sum over j with alias[j] = i, j != i, of 1 - prob[j], which is
    n * w_i / sum(w).  The weights are rounded to integer units, 2^bits for
    the largest with bits = min(49, 62 - bit length of n), so every sum stays
    below 2^62 and the construction on the units is exact: each prob is
    rounded once, by its final division.  Equal magnitudes, as in every
    subsystem table, are found before any units and give stride-0 arrays,
    prob 1 and alias 0 in every column, whose draw is the column.
    """
    n = len(weights)
    lo, hi = weights.min(), weights.max()
    if lo == hi or (lo == -hi and np.all(np.abs(weights) == hi)):
        return np.broadcast_to(1.0, n), np.broadcast_to(np.intp(0), n)
    mass = np.abs(weights)  # the weights' magnitudes, then their units, then n units
    mass *= 2.0 ** min(49, 62 - n.bit_length()) / mass.max()
    mass = np.rint(mass, out=mass).astype(np.int64)
    full = int(mass.sum())  # the content of one column; entry i brings n times its units
    mass *= n
    prob = np.ones(n)  # the columns left when one list runs dry hold exactly `full`
    alias = np.arange(n)
    small = np.flatnonzero(mass < full).tolist()
    large = np.flatnonzero(mass >= full).tolist()
    mass = mass.tolist()
    while small and large:
        s, g = small.pop(), large.pop()
        prob[s], alias[s] = mass[s] / full, g
        mass[g] -= full - mass[s]
        (small if mass[g] < full else large).append(g)
    return prob, alias


def _block_table(tau: Sequence, rho: Sequence, k: int) -> tuple:
    """(t, r, prob, alias) of the N^k maps of a k-symbol block, in lexicographic order, weighted by |r|.

    k >= 2 takes the kernel's depth-k level; k = 1 keeps the maps themselves, uncopied.
    """
    if k == 1:
        t, r = np.asarray(tau, dtype=float), np.asarray(rho, dtype=float)
    else:
        level = expand_level(tau, rho, k)
        t, r = level.t, level.r
    return (t, r, *_alias_table(r))


def _selection_step(t: np.ndarray, r: np.ndarray, prob: np.ndarray, alias: np.ndarray) -> tuple:
    """(n, prob, r, t) of one block table as _sample_words selects from it.

    Weighted maps are stacked over their aliases' maps: index c + n is column
    c's alias.  Equal weights keep the n maps and no coin (prob None); equal
    ratios become one float, the same bits as every entry.
    """
    n = len(t)
    if prob.strides[0]:
        return n, prob, np.concatenate([r, r[alias]]), np.concatenate([t, t[alias]])
    return n, None, float(r[0]) if r.min() == r.max() else r, t


def _block_steps(tau: Sequence, rho: Sequence, depth: int) -> list:
    """The selection steps of a depth-`depth` word of the float maps x -> rho_s x + tau_s, outermost first.

    Blocks of k symbols (see the module docstring) share one table and step,
    and a shorter remainder block keeps the depth exact.
    """
    k = 1
    while len(rho) ** (k + 1) <= 3**SAMPLE_BLOCK:
        k += 1
    blocks, rem = divmod(depth, k)
    steps = [_selection_step(*_block_table(tau, rho, k))] * blocks if blocks else []
    if rem:
        steps.append(_selection_step(*_block_table(tau, rho, rem)))
    return steps


def _sample_words(steps: list, count: int, rng: np.random.Generator) -> np.ndarray:
    """count points of i.i.d. words drawn through the selection steps of _block_steps, applied to 0.

    Map s has weight |rho_s| / sum |rho|.  A uniform u gives the column c =
    floor(n u) and the stacked index c + n [n u - c >= prob[c]], then two
    gathers compose the map.  The points advance SAMPLE_CHUNK at a time, each
    operation writing into scratch allocated once per call.
    """
    pts = np.zeros(count)
    size = min(SAMPLE_CHUNK, count)
    scratch = np.empty(size), np.empty(size), np.empty(size, np.intp), np.empty(size, np.intp), np.empty(size, bool)
    for lo in range(0, count, SAMPLE_CHUNK):
        x = pts[lo : lo + SAMPLE_CHUNK]  # a view: the chunk is composed in place
        u, g, c, k, b = (a[: len(x)] for a in scratch)
        # each step applies its block map outermost: the steps' symbols form one i.i.d. word of the depth
        for n, prob, r, t in steps:
            rng.random(out=u)
            u *= n
            np.floor(u, out=g)
            c[...] = g  # floor(n u) >= 0, so the cast is the truncation astype(np.intp) gives
            if prob is not None:  # the coin n u - c, exact, against prob[c]; the alias sits n entries on
                u -= g
                np.greater_equal(u, np.take(prob, c, out=g, mode="clip"), out=b)
                c += np.multiply(b, n, out=k)
            x *= r if type(r) is float else np.take(r, c, out=g, mode="clip")
            x += np.take(t, c, out=g, mode="clip")
    return pts


def _check_count(count: int) -> None:
    """The draw count lies in [1, SAMPLE_COUNT_CAP]."""
    if count < 1:
        raise ParameterError(f"sampling needs count >= 1, got {count}")
    if count > SAMPLE_COUNT_CAP:
        raise BudgetError(f"sample count {count} exceeds cap {SAMPLE_COUNT_CAP}")


def sample_measure(a: float, count: int, depth: int, seed: int) -> MeasureSample:
    """Monte-Carlo draw from the y-projection of the natural measure: S_a with weights (a, 2a-1, a)/(4a-1).

    Each point is the composition along an i.i.d. weight-distributed random
    word of the given depth, applied to 0.  Deterministic per seed.  The
    weights are |rho_s|/(4a-1), so _sample_words draws it from S_a's maps.
    """
    a = float_a(a)
    _check_count(count)
    if depth < 0:
        raise ParameterError(f"sampling needs depth >= 0, got {depth}")
    if depth > SAMPLE_DEPTH_CAP:
        raise BudgetError(f"sample depth {depth} exceeds cap {SAMPLE_DEPTH_CAP}")
    pts = _sample_words(_block_steps(*projection_parts(a), depth), count, np.random.default_rng(seed))
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
    out = np.full(len(counts), np.nan)
    full = np.all(counts > 0, axis=1)
    if full.any():  # one fit, a column of log masses per point
        out[full] = np.polyfit(np.log(radii), np.log(counts[full] / sample.count).T, 1)[0]
    return out


# --- Fourier probe -----------------------------------------------------------------


def fourier_estimate(sample: MeasureSample, t_values: Sequence[float]) -> np.ndarray:
    """|mu_hat(t)| by Monte Carlo; standard error is at most 1/sqrt(count).

    Taylor-series fast DFT (Anderson and Dahleh 1996): in g = min(ceil(t_max
    span / 2), count) bins of half-width h, the sums of ((x - c_b)/h)^m / m!,
    m < M, give a bin's sum of e^(itx) as e^(itc_b) times a polynomial in
    ith, within 1/M! <= 2^-53 a point if |t| h <= 1; else the direct sum.
    """
    ts = np.asarray(t_values)
    if ts.ndim != 1 or ts.dtype.kind not in "biuf" or not np.isfinite(ts).all():
        raise ParameterError(f"fourier frequencies must be finite real numbers, got {t_values!r}")
    ts, xs, out = np.abs(ts), np.sort(sample.points), np.empty(len(ts))
    lo, span = xs[0], xs[-1] - xs[0]
    g = int(max(1, min(np.ceil(ts.max(initial=0) * span / 2), len(xs))))
    h, centres = span / (2 * g), lo + span / (2 * g) * np.arange(1, 2 * g, 2)
    sizes = np.diff(np.searchsorted(xs, centres[1:] - h), prepend=0, append=len(xs))  # points per bin
    xs -= np.repeat(centres, sizes)  # x - c_b rounds within 2^-53 |x - c_b|, so t x rounds as before
    xs /= h or 1.0
    centres, starts = centres[sizes > 0], (np.cumsum(sizes) - sizes)[sizes > 0]  # reduceat takes nonempty bins
    coeffs, power = np.empty((_TAYLOR_TERMS, len(starts))), np.ones_like(xs)
    for m in range(_TAYLOR_TERMS):  # highest power first, as np.polyval takes them; pairwise sums per bin
        coeffs[-1 - m] = np.add.reduceat(power, starts) / math.factorial(m)
        power *= xs
    del xs, power
    for k, t in enumerate(ts):
        if t * span <= 2 * g:  # |t| h <= 1
            out[k] = abs((np.exp(1j * t * centres) * np.polyval(coeffs, 1j * t * h)).sum()) / sample.count
        else:  # the bins capped at count: the direct sum
            out[k] = math.hypot(float(np.cos(t * sample.points).mean()), float(np.sin(t * sample.points).mean()))
    return out


def fourier_decay_fit(sample: MeasureSample, t_values: Sequence[float]) -> tuple:
    """(slope, intercept, points used) of the log-log decay fit.

    Magnitudes below three standard errors are noise and are dropped before
    fitting; fewer than two points left, or points at fewer than two distinct
    frequencies, through which no line is determined, is a ParameterError.
    """
    mags = fourier_estimate(sample, t_values)
    keep = mags > 3.0 / math.sqrt(sample.count)
    if keep.sum() < 2:
        raise ParameterError(
            f"decay fit needs >= 2 magnitudes above the noise floor 3/sqrt({sample.count}), got {int(keep.sum())}"
        )
    kept_t = np.asarray(t_values, dtype=float)[keep]
    if np.all(kept_t == kept_t[0]):
        raise ParameterError(f"decay fit needs >= 2 distinct frequencies, got {len(kept_t)} points at t = {kept_t[0]}")
    slope, intercept = np.polyfit(np.log(kept_t), np.log(mags[keep]), 1)
    return float(slope), float(intercept), int(keep.sum())


def ks_statistic(x: np.ndarray, y: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup |F_x - F_y|.

    Both draws are sorted inside one array and merged by one stable argsort
    (timsort merges the two sorted runs).  The sup is reached at the last
    value of a run of equal values, where cx and cy, the x and y draws up
    to it, give F_x = cx/nx and F_y = cy/ny.  Each temporary is freed as
    soon as it is done.
    """
    nx, ny = len(x), len(y)
    z = np.concatenate([x, y])
    z[:nx].sort()
    z[nx:].sort()
    order = np.argsort(z, kind="stable")
    z = z[order]
    last = np.empty(len(z), dtype=bool)  # z[i] ends its run of equal values
    np.not_equal(z[1:], z[:-1], out=last[:-1])
    last[-1] = True
    del z
    counts = np.cumsum(order < nx)
    del order
    cx = counts[last]
    del counts
    cy = np.flatnonzero(last)
    del last
    cy += 1
    cy -= cx
    gap = cx / nx
    del cx
    gap -= cy / ny
    return float(np.abs(gap, out=gap).max())
