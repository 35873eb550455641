"""Randomly shifted quadtree grids over planar point sets.

Geometry conventions:

- The root square has side 2*D, where D is the larger side of the box of
  the input and the diagonal point (t, t), t the midpoint of the largest
  birth and the smallest death: the input's own box if that meets the
  diagonal. It is placed with its lower-left corner at (min - D) and then
  translated by a uniform random shift in [0, D)^2, so it contains the box,
  and meets the diagonal, for every draw.
- Levels are indexed 0 (finest) through level_hi (the root); the cell side
  doubles with each level.
- Cell membership is half-open, [x0, x0+s) x [y0, y0+s), via floor indexing.
- The terminal test ("does the cell meet the diagonal y = x?") uses the
  closed square, so boundary contact counts as intersecting. The root is
  terminal: ShiftedQuadtree refuses a root that fails the test.
- _place is the one place that computes cell indices and terminality: one
  placement per point, its finest cell and the first level whose cell is
  terminal, level_hi at the latest. A point counts as terminal from that
  level up, so the embedding and the flowtree walk, which both read the
  placement, retire it at the same level. ShiftedQuadtree.place is its call
  for one tree; PlacedDiagrams places the points of many trees in one call.
- The finest level is chosen so its side is strictly below half the minimum
  separation: each occupied finest cell then holds one distinct point and
  cannot be terminal. max_levels_cap, at most MAX_LEVELS, guards
  near-duplicate inputs; when the cap binds, `truncated` is set and those
  guarantees lapse.

Trees never materialize cells; a placement addresses only the given points.
Only the shift depends on the seed: tree_geometry computes the rest once per
point set, TreeGeometry.tree adds one seed's shift, and build_tree is the two
in a row. _geometries computes the geometries of many point sets in one
pass, each bit for bit that of its set alone, and tree_geometry is its call
for one set. A geometry pass, like a placement, holds one ground metric:
every set of a _geometries call is measured under the metric it is given.
"""

from __future__ import annotations

import hashlib
import math
import operator
import struct
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ._rows import group_rows, set_major
from .diagram import GroundMetric, PersistenceDiagram

# Deepest supported tree. Cell indices then stay below 2**(MAX_LEVELS - 1),
# so a (level, ix) pair packs into level * 2**(MAX_LEVELS - 1) + ix < 2**53
# and every cell sort key is exact in float64.
MAX_LEVELS = 48


class OutsideRootError(ValueError):
    """A queried point lies outside the tree's root cell."""


@dataclass(frozen=True)
class TreeConfig:
    """Reproducible tree construction parameters."""

    seed: int
    max_levels_cap: int = 40
    ground_metric: GroundMetric = GroundMetric.L2

    def __post_init__(self):
        try:
            seed = operator.index(self.seed)
        except TypeError:
            seed = -1
        if seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if not 2 <= self.max_levels_cap <= MAX_LEVELS:
            raise ValueError(f"max_levels_cap must lie in [2, {MAX_LEVELS}]")


class ShiftedQuadtree:
    """Immutable shifted-grid hierarchy; all queries are pure."""

    __slots__ = (
        "origin",
        "root_side",
        "level_hi",
        "shift",
        "spread",
        "seed",
        "ground_metric",
        "min_separation",
        "truncated",
        "signature",
    )

    def __init__(
        self,
        origin: tuple[float, float],
        root_side: float,
        level_hi: int,
        shift: tuple[float, float],
        spread: float,
        seed: int,
        ground_metric: GroundMetric,
        min_separation: float,
        truncated: bool = False,
    ):
        if root_side <= 0:
            raise ValueError("root_side must be positive")
        if not 0 <= level_hi < MAX_LEVELS:
            raise ValueError(f"levels must lie in [0, {MAX_LEVELS - 1}]")
        self.origin = (float(origin[0]), float(origin[1]))
        self.root_side = float(root_side)
        # place's terminal test of the root cell, the whole square
        if not _meets_diagonal(*self.origin, self.root_side):
            raise ValueError("the root square must meet the diagonal")
        self.level_hi = int(level_hi)
        self.shift = (float(shift[0]), float(shift[1]))
        self.spread = float(spread)
        self.seed = int(seed)
        self.ground_metric = ground_metric
        self.min_separation = float(min_separation)
        self.truncated = bool(truncated)
        digest = hashlib.blake2b(
            struct.pack(
                "<ddddd2i",
                *self.origin,
                self.root_side,
                *self.shift,
                0,  # the finest level
                self.level_hi,
            )
            + ground_metric.value.encode(),
            digest_size=8,
        ).hexdigest()
        self.signature = f"qt:{self.seed}:{digest}"

    @property
    def num_levels(self) -> int:
        return self.level_hi + 1

    def levels(self) -> range:
        """Level indices from finest to coarsest, inclusive."""
        return range(self.level_hi + 1)

    def side(self, level: int) -> float:
        self._check_level(level)
        return self.root_side / (1 << (self.level_hi - level))

    def place(self, coords) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every point's finest cell and the first level its cell is terminal.

        Returns int64 arrays (ix, iy, terminal_level) over the rows of the
        (n, 2) coords array. The finest index is floor((x - origin) / side),
        clamped so the closed root's far edge falls in the last cell; its
        cell on level k is (ix >> k, iy >> k), its dyadic ancestor.
        terminal_level is the lowest level whose cell meets the diagonal,
        level_hi at the latest, since the root meets it; from it on the point
        counts as terminal, whatever the float test says higher up. Raises
        OutsideRootError if a point lies outside the closed root square.
        """
        coords = np.asarray(coords, dtype=float).reshape(-1, 2)
        return _place(coords, *self.origin, self.root_side, self.level_hi)

    def meta(self) -> dict:
        """Reproducibility metadata for reports."""
        return {
            "seed": self.seed,
            "signature": self.signature,
            "origin": list(self.origin),
            "root_side": self.root_side,
            "shift": list(self.shift),
            "levels": self.num_levels,
            "level_lo": 0,
            "level_hi": self.level_hi,
            "spread": self.spread,
            "min_separation": self.min_separation,
            "ground_metric": self.ground_metric.value,
            "truncated": self.truncated,
        }

    def _check_level(self, level: int) -> None:
        if not (0 <= level <= self.level_hi):
            raise ValueError(f"level {level} outside [0, {self.level_hi}]")

    def __repr__(self) -> str:
        return (
            f"ShiftedQuadtree(seed={self.seed}, root_side={self.root_side:.6g}, "
            f"levels={self.num_levels})"
        )


def _meets_diagonal(x0, y0, side):
    """Whether the closed square [x0, x0 + side] x [y0, y0 + side] meets
    the diagonal y = x; elementwise over arrays."""
    return (x0 <= y0 + side) & (y0 <= x0 + side)


# _place's divisor of a root side to the side k levels down, at index k, and
# 1 at the negative indices -MAX_LEVELS..-1, the levels above a row's root,
# whose test is then its root's
_HALVINGS = np.concatenate((2.0 ** np.arange(MAX_LEVELS), np.ones(MAX_LEVELS)))


def _place(coords: np.ndarray, ox, oy, root_side, level_hi):
    """ShiftedQuadtree.place of every row of coords, on a tree given by its
    root's origin (ox, oy), root_side and level_hi: each is one value for
    all rows or an array of one per row, so that one sweep over levels
    places the rows of many trees at once.

    The sweep runs down from below the deepest root, testing each row's
    cell with the side root_side / 2**(level_hi - level) that
    ShiftedQuadtree.side gives. A row of a shallower tree is tested on the
    levels above its root, and on its root level, with its root square,
    which meets the diagonal; so its lowest hit is level_hi at the latest,
    as if the sweep had started at its own root.
    """
    xs, ys = coords[:, 0], coords[:, 1]
    if ((xs < ox) | (xs > ox + root_side) | (ys < oy) | (ys > oy + root_side)).any():
        raise OutsideRootError("point outside root cell")
    s = root_side / _HALVINGS[level_hi]
    last = np.left_shift(1, level_hi) - 1
    ix = np.minimum(np.floor((xs - ox) / s).astype(np.int64), last)
    iy = np.minimum(np.floor((ys - oy) / s).astype(np.int64), last)
    top = int(np.max(level_hi, initial=0))
    terminal_level = np.full(len(ix), top, np.int64)
    # from below the deepest root down, so that a row's lowest hit is written last
    for level in range(top - 1, -1, -1):
        s = root_side / _HALVINGS[level_hi - level]
        hit = _meets_diagonal(ox + (ix >> level) * s, oy + (iy >> level) * s, s)
        terminal_level[hit] = level
    return ix, iy, terminal_level


def _min_separation(points: np.ndarray, metric: GroundMetric, starts: np.ndarray) -> np.ndarray:
    """Per set of rows, as _closest_pair takes them: the smallest of the
    pairwise distances between its distinct points and their distances to
    the diagonal, under metric."""
    # rounding is monotone, so the least product is the least lifetime's
    lifetimes = np.abs(points[:, 1] - points[:, 0])
    smallest = np.minimum.reduceat(lifetimes, starts) * metric.diagonal_factor
    with np.errstate(over="ignore"):  # far points differ by inf
        return _closest_pair(points, metric, smallest, starts)[0]


# Candidate pairs per point that the grid of _closest_pair may compare; the
# packing bound in its docstring
_PAIRS_PER_POINT = 112
_NO_CELL = np.iinfo(np.int64).max  # a key past every cell


def _reach(metric: GroundMetric, u: float) -> float:
    """An upper bound on the gap max(|x - x'|, |y - y'|) of two points whose
    distance, computed by metric.combine, is at most u. It is u itself, but
    for rounding and for L2 squares that are subnormal or underflow to 0."""
    if metric is not GroundMetric.L2:
        return u * (1.0 + 2.0**-30)
    # squares below 2**-1022 are subnormal, and a gap below 2**-537.5
    # squares to 0; math.hypot, which combine takes for large gaps, never
    # reads below the gap
    return max(u * (1.0 + 2.0**-30), min(1.23 * u, 2.0**-499), 2.0**-537)


def _axis_cells(v: np.ndarray, s: np.ndarray, new_set: np.ndarray) -> np.ndarray:
    """Grid indices of values v, ascending within each set of rows, for
    cells of side s[i] at row i; new_set marks each set's first row.

    A set's values are cut into runs wherever two neighbours lie more than
    s apart, and each set starts a run. A run is indexed by
    floor((v - first) / s) from its first value, and the next run starts 2
    past the last index of the one before, so cells of two runs are never
    adjacent. Every run index stays below its length, so the largest index
    is below 2 len(v).
    """
    cut = ((v[1:] - v[:-1] > s[1:]) | new_set[1:]).nonzero()[0] + 1
    # above side 1 the values are halved, so that v - first cannot overflow;
    # that is exact but for subnormal values, off by far less than s
    scale = np.where(s > 1.0, 0.5, 1.0)
    w = v * scale
    first = np.zeros(len(v), np.intp)
    first[cut] = cut
    np.maximum.accumulate(first, out=first)
    q = np.floor((w - w[first]) / (s * scale))
    offset = np.zeros(len(v))
    offset[cut] = q[cut - 1] + 2.0
    np.cumsum(offset, out=offset)
    return (q + offset).astype(np.int64)


def _closest_pair(points: np.ndarray, metric: GroundMetric, bound: np.ndarray, starts: np.ndarray):
    """For every set k of rows of points, from starts[k] up to the next
    set's start: min(bound[k], the least distance between two of its rows)
    under metric.combine(), exactly, and the number of grid pairs
    compared for it. starts ascend from 0, and no set is empty.

    **Search.** For one set, u, the smaller of its bound and the least
    distance between its consecutive rows, bounds the answer. The points
    are bucketed on a grid of side s, found per axis by _axis_cells, and
    each point is compared with the points of its own cell and of the four
    forward neighbour cells. s starts where every pair within distance u
    lies in adjacent cells, and is halved while the grid holds more than
    C n candidate pairs (C = _PAIRS_PER_POINT, n the set's rows).

    **Sets.** All sets share the one metric and one grid of cell keys: each
    set starts a new run on both axes, so no cell of a set meets one of
    another, and each set's cells are the ones it would have alone, moved by
    one offset per axis. Each set keeps its own side: a pass grids every
    set, and the sets over C n candidate pairs halve theirs for the next
    pass. A set within its C n is gridded again unchanged, so the last pass
    holds every set's final grid and its count, as the set alone would have
    them.

    **Cover.** A pair at distance d <= u has its gap t (the larger
    coordinate difference) at most its reach _reach(d) <= _reach(u):
    metric.combine never reads below the rounded gap (its math.hypot for
    large L2 gaps included), except that an L2 square can underflow. A pair
    with t <= s (1 - 2**-20) lies in the same run of each axis (a cut gap
    exceeds s) and in adjacent cells (each quotient is at most n and carries
    two roundings), so the starting grid holds the closest pair.

    **Packing.** Suppose a grid of side s holds more than C n candidate
    pairs, but the closest pair's reach is beyond s/2 (halving would lose
    it). Then every pair's gap is beyond s / (2 k): a distance is at most k
    times its gap, and the reach at most 1.23 times the distance, with k = 2
    (L1), 1 (Linf), sqrt 2 (L2), or k = 2 and factor 1.23 together where L2
    squares are subnormal (below 2**-499). A cell's true width is below
    s (1 + 2**-20), so it then holds at most 5 x 5 points, and its n points
    make at most n (24 / 2 + 4 * 25) = C n candidate pairs: a contradiction.
    So halving keeps the closest pair, and the minimum over the final grid's
    candidates is exact. The one exception is a closest pair at distance 0,
    whose gap can reach 2**-537.5 under L2 (an underflowing square), so
    halving stops at 1.125 * 2**-537 (2**-1074 under L1 and Linf); a grid
    there with more than C n candidates has, by the same count, a pair at
    distance 0, and 0 is returned, with a count of 0.

    **Cost.** At most C n pairs are compared per set, after at most
    2 + log2(s / max(answer, 2**-537)) passes of O(N log N) each, s the
    set's starting side and N the rows of all sets. Indices stay below 2 N
    per axis for any finite coordinates. The result is exact whenever it is
    below 2**1022 or infinite, for fewer than 2**29 rows.
    """
    n = len(points)
    ends = np.concatenate((starts[1:], [n]))
    set_of = np.repeat(np.arange(len(starts)), ends - starts)
    if ((points[1:, 0] < points[:-1, 0]) & (set_of[1:] == set_of[:-1])).any():
        # tree_geometry's sets are sorted
        points = points[np.lexsort((points[:, 0], set_of))]
    xs, ys = points[:, 0], points[:, 1]
    new_set = np.zeros(n, bool)
    new_set[starts] = True
    gaps = np.empty(n)
    gaps[1:] = metric.combine(xs[1:] - xs[:-1], ys[1:] - ys[:-1])
    gaps[new_set] = math.inf  # a set's first row follows no row of its own
    u = np.minimum(bound, np.minimum.reduceat(gaps, starts))
    floor = 1.125 * 2.0**-537 if metric is GroundMetric.L2 else 2.0**-1074
    reach = [_reach(metric, d) * (1.0 + 2.0**-19) for d in u.tolist()]
    s = np.clip(reach, 2.0**-1022, 2.0**1023)
    limit = _PAIRS_PER_POINT * (ends - starts)
    zero = np.zeros(len(starts), bool)  # the sets whose halving reached the floor
    y_order = set_major(np.argsort(ys), set_of)
    yv = ys[y_order]
    iy = np.empty(n, np.int64)
    while True:
        # rows are sorted by (set, x), so the keys are sorted by ix
        row_side = s[set_of]
        ix = _axis_cells(xs, row_side, new_set)
        iy[y_order] = _axis_cells(yv, row_side, new_set)
        stride = int(iy.max()) + 2  # (ix + 1, -1) and (ix, max + 1) hold no point
        key = ix * stride + iy
        order = np.argsort(key, kind="stable")
        key = key[order]
        new_cell = np.concatenate(([True], key[1:] != key[:-1]))
        cells = key[new_cell]
        bounds = np.append(new_cell.nonzero()[0], n)  # each cell's first rank
        size = bounds[1:] - bounds[:-1]
        # in key order, a point's candidates are two runs of ranks: the later
        # points of its cell and of the forward neighbour (ix, iy + 1), which
        # follows it; and the points of the cells (ix + 1, iy - 1 .. iy + 1),
        # the up to three cells from the first at or past (ix + 1, iy - 1)
        near = bounds[1:].copy()
        up = (cells[1:] == cells[:-1] + 1).nonzero()[0]
        near[up] = bounds[up + 2]
        right = np.searchsorted(cells, cells + (stride - 1))
        padded = np.append(cells, [_NO_CELL] * 3)
        last = cells + (stride + 1)
        right_end = right + (padded[right] <= last)
        right_end += (padded[right + 1] <= last) + (padded[right + 2] <= last)
        right, right_end = bounds[right], bounds[right_end]
        # every set holds the same ranks in key order as in row order
        cell_of = np.cumsum(new_cell) - 1
        count = np.add.reduceat(
            size * (size - 1) // 2 + size * (near - bounds[1:] + right_end - right),
            cell_of[starts],
        )
        over = (count > limit) & ~zero
        if not over.any():
            break
        half = s[over] * 0.5
        # a subnormal side rounds up, never down
        half = np.where(half * 2.0 != s[over], np.nextafter(half, math.inf), half)
        zero[over] = half < floor
        s[over] = np.where(half < floor, s[over], half)
    count[zero] = 0
    # every rank of each run, against the point that owns the run; a rank's
    # two runs in turn, so that the pairs come set by set
    rank = np.arange(n)
    run_start = np.stack((rank + 1, right[cell_of]), axis=1).reshape(-1)
    run_len = np.stack((near[cell_of], right_end[cell_of]), axis=1).reshape(-1) - run_start
    if zero.any():
        run_len *= np.repeat(~zero[set_of], 2)
    run_end = np.cumsum(run_len)
    a = order[np.repeat(rank, run_len[0::2] + run_len[1::2])]
    b = order[np.arange(run_end[-1]) + np.repeat(run_start - (run_end - run_len), run_len)]
    dist = metric.combine(xs[a] - xs[b], ys[a] - ys[b])
    # each set's pairs end with its last rank's
    pairs_end = run_end[2 * ends - 1]
    pairs_start = np.concatenate(([0], pairs_end[:-1]))
    has = pairs_end > pairs_start
    u[has] = np.minimum(u[has], np.minimum.reduceat(dist, pairs_start[has]))
    u[zero] = 0.0
    return u, count


@dataclass(frozen=True, eq=False)
class TreeGeometry:
    """The seed-independent part of a tree over one point set: box (with
    the diagonal point), minimum separation, root span, depth before the
    cap, and spread. Every seed's tree over the set is a cheap shift of it."""

    ground_metric: GroundMetric
    mins: np.ndarray
    span: float
    min_separation: float
    levels: int
    spread: float

    def tree(self, config: TreeConfig) -> ShiftedQuadtree:
        """The tree shifted by config.seed; equal to build_tree(points,
        config) over the point set this geometry was computed from."""
        if config.ground_metric is not self.ground_metric:
            raise ValueError("config.ground_metric differs from the geometry's")
        levels = min(self.levels, config.max_levels_cap)
        mins, span = self.mins, self.span
        shift = np.random.default_rng(config.seed).uniform(0.0, span, size=2)
        return ShiftedQuadtree(
            origin=(float(mins[0] - span + shift[0]), float(mins[1] - span + shift[1])),
            root_side=2.0 * span,
            level_hi=levels - 1,
            shift=(float(shift[0]), float(shift[1])),
            spread=self.spread,
            seed=config.seed,
            ground_metric=self.ground_metric,
            min_separation=self.min_separation,
            truncated=self.levels > config.max_levels_cap,
        )


def tree_geometry(points, metric: GroundMetric) -> TreeGeometry:
    """Seed-independent geometry of a non-empty planar point set.

    Depth adapts to the minimum separation so that the finest cell side is
    strictly below half of it; a tree's max_levels_cap may cut it short.
    Under L2, a set whose closest gap squares to 0 takes its Linf
    separation instead. It is the one-set call of the geometry routine that computes the
    geometries of many point sets in one pass (_geometries), as the
    evaluation harness does for its per-pair trees.
    """
    return _geometries([points], metric)[0]


def _geometries(point_sets, metric: GroundMetric) -> list[TreeGeometry]:
    """tree_geometry(points, metric) for every point set, from one pass.

    The sets are stacked, and the set joins the dedupe key and the
    closest-pair grid key (_closest_pair), so no set meets another; box,
    span and spread are per-set reductions of the stacked rows, and each
    set's depth comes from its own span and separation. So every geometry
    equals that of its set alone, bit for bit. An error is that of the
    first set that tree_geometry refuses, with its message.
    """
    arrays = []
    for k, points in enumerate(point_sets):
        pts = np.asarray(points, dtype=float)
        problem = None
        if pts.size == 0:
            problem = "cannot build a tree over an empty point set"
        elif not np.isfinite(pts).all():
            problem = "input points must have finite coordinates"
        if problem:
            _geometries(point_sets[:k], metric)  # an earlier set's error first
            raise ValueError(problem)
        arrays.append(pts.reshape(-1, 2))
    if not arrays:
        return []
    pts = np.concatenate(arrays)
    set_of = np.repeat(np.arange(len(arrays)), [len(a) for a in arrays])
    # each set's distinct points in (x, y) order, the first given of equal ones
    order, first = group_rows(pts[:, 0], pts[:, 1], set_of)
    distinct, distinct_set = pts[order[first]], set_of[order[first]]
    starts = np.flatnonzero(np.concatenate(([True], distinct_set[1:] != distinct_set[:-1])))

    delta_min = _min_separation(distinct, metric, starts)
    if metric is GroundMetric.L2 and not delta_min.all():
        # an L2 gap whose square underflows reads 0 (GroundMetric.combine);
        # a set with no point on the diagonal takes its Linf separation,
        # which is positive and, in exact arithmetic, at most its L2 one
        linf = _min_separation(distinct, GroundMetric.LINF, starts)
        delta_min = np.where(delta_min > 0.0, delta_min, linf)
    mins = np.minimum.reduceat(distinct, starts)
    maxs = np.maximum.reduceat(distinct, starts)
    # the box holds the diagonal point (t, t) so that the root meets the
    # diagonal; the clip keeps a rounded midpoint of subnormals inside
    lo, hi = np.minimum(maxs[:, 0], mins[:, 1]), np.maximum(maxs[:, 0], mins[:, 1])
    t = np.minimum(np.maximum(0.5 * lo + 0.5 * hi, lo), hi)[:, None]
    box_mins = np.minimum(mins, t)
    # a span past the float range is inf, refused below as an overflow
    with np.errstate(over="ignore"):
        spans = (np.maximum(maxs, t) - box_mins).max(axis=1).tolist()
        extent = maxs - mins

    levels = []
    for span, delta in zip(spans, delta_min.tolist()):
        if delta <= 0.0:
            raise ValueError("minimum separation is zero (a point lies on the diagonal)")
        root_side = 2.0 * span
        try:
            depth = max(2, int(math.floor(math.log2(root_side / delta))) + 3)
            while root_side / 2.0 ** (depth - 1) >= 0.5 * delta:
                depth += 1
        except OverflowError:
            raise ValueError(
                f"tree depth overflows: root side {root_side!r} over minimum "
                f"separation {delta!r} is out of floating-point range"
            ) from None
        levels.append(depth)

    spread = metric.combine(extent[:, 0], extent[:, 1]) / delta_min
    return [
        TreeGeometry(
            ground_metric=metric,
            mins=box_mins[k],
            span=spans[k],
            min_separation=float(delta_min[k]),
            levels=levels[k],
            spread=float(spread[k]),
        )
        for k in range(len(arrays))
    ]


def build_tree(points, config: TreeConfig) -> ShiftedQuadtree:
    """Build a randomly shifted quadtree over a non-empty planar point set.

    The shift is drawn from config.seed; identical (points, config) always
    produce an identical tree. Depth adapts to the minimum separation so that
    the finest cell side is strictly below half of it, unless
    config.max_levels_cap binds (then `truncated` is set on the result).
    Several seeds over one point set share tree_geometry(points, metric).
    """
    return tree_geometry(points, config.ground_metric).tree(config)


def union_coords(diagrams: Iterable[PersistenceDiagram]) -> np.ndarray:
    """Stacked coordinates of several diagrams, in diagram order: distinct
    within a diagram, but may repeat across diagrams (build_tree
    deduplicates)."""
    arrays = [d.coords() for d in diagrams if len(d) > 0]
    if not arrays:
        return np.zeros((0, 2))
    return np.vstack(arrays)

