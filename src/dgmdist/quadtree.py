"""Randomly shifted quadtree grids over planar point sets.

Geometry conventions:

- The root square has side 2*D, where D is the larger bounding-box side of
  the input (or the minimum separation for a single distinct point). It is
  placed with its lower-left corner at (min - D) and then translated by a
  uniform random shift in [0, D)^2, so it contains the input for every draw.
- Levels are indexed 0 (finest) through level_hi (the root); the cell side
  doubles with each level.
- Cell membership is half-open, [x0, x0+s) x [y0, y0+s), via floor indexing.
- The terminal test ("does the cell meet the diagonal y = x?") uses the
  closed square, so boundary contact counts as intersecting.
- ShiftedQuadtree.place is the one place that computes cell indices and
  terminality: one placement per point, its finest cell and the first level
  whose cell is terminal. A point counts as terminal from that level up, so
  the embedding and the flowtree walk, which both read the placement,
  retire it at the same level.
- The finest level is chosen so its side is strictly below half the minimum
  separation: each occupied finest cell then holds one distinct point and
  cannot be terminal. max_levels_cap, at most MAX_LEVELS, guards
  near-duplicate inputs; when the cap binds, `truncated` is set and those
  guarantees lapse.

Trees never materialize cells; a placement addresses only the given points.
Only the shift depends on the seed: tree_geometry computes the rest once per
point set, TreeGeometry.tree adds one seed's shift, and build_tree is the two
in a row.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.spatial import cKDTree

from ._rows import group_rows
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
        if self.seed < 0:
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
        terminal_level is the lowest level whose cell meets the diagonal, or
        level_hi + 1 where none does; from it on the point counts as
        terminal, whatever the float test says higher up. Raises
        OutsideRootError if a point lies outside the closed root square.
        """
        coords = np.asarray(coords, dtype=float).reshape(-1, 2)
        xs, ys = coords[:, 0], coords[:, 1]
        ox, oy = self.origin
        hi = self.root_side
        if ((xs < ox) | (xs > ox + hi) | (ys < oy) | (ys > oy + hi)).any():
            raise OutsideRootError("point outside root cell")
        s = self.side(0)
        last = (1 << self.level_hi) - 1
        ix = np.minimum(np.floor((xs - ox) / s).astype(np.int64), last)
        iy = np.minimum(np.floor((ys - oy) / s).astype(np.int64), last)
        terminal_level = np.full(len(ix), self.level_hi + 1, np.int64)
        # from the root down, so that a point's lowest hit is written last
        for level in reversed(self.levels()):
            s = self.side(level)
            x0 = ox + (ix >> level) * s
            y0 = oy + (iy >> level) * s
            terminal_level[(x0 <= y0 + s) & (y0 <= x0 + s)] = level
        return ix, iy, terminal_level

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


def _min_separation(points: np.ndarray, metric: GroundMetric) -> float:
    """Smallest of: pairwise distances between distinct points, and their
    distances to the diagonal, under the given metric."""
    diag = metric.diagonal_distances(points)
    smallest = float(diag.min())
    if len(points) > 1:
        kd = cKDTree(points)
        dists, _ = kd.query(points, k=2, p=metric.q)
        smallest = min(smallest, float(dists[:, 1].min()))
    return smallest


@dataclass(frozen=True, eq=False)
class TreeGeometry:
    """The seed-independent part of a tree over one point set: bounding box,
    minimum separation, root span, depth before the cap, and spread. Every
    seed's tree over the set is a cheap shift of it (see `tree`)."""

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
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise ValueError("cannot build a tree over an empty point set")
    pts = pts.reshape(-1, 2)
    if not np.isfinite(pts).all():
        raise ValueError("input points must have finite coordinates")
    order, starts = group_rows(pts[:, 0], pts[:, 1])
    distinct = pts[order[starts]]

    delta_min = _min_separation(distinct, metric)
    if delta_min <= 0.0:
        raise ValueError(
            "minimum separation is zero (a point lies on the diagonal)"
        )

    mins = distinct.min(axis=0)
    extent = distinct.max(axis=0) - mins
    span = float(extent.max())
    if span == 0.0:
        # single distinct point: scale the root to the diagonal distance
        span = delta_min
    root_side = 2.0 * span

    try:
        levels = max(2, int(math.floor(math.log2(root_side / delta_min))) + 3)
        while root_side / 2.0 ** (levels - 1) >= 0.5 * delta_min:
            levels += 1
    except OverflowError:
        raise ValueError(
            f"tree depth overflows: root side {root_side!r} over minimum "
            f"separation {delta_min!r} is out of floating-point range"
        ) from None

    if metric is GroundMetric.L1:
        diameter = float(extent.sum())
    elif metric is GroundMetric.L2:
        diameter = float(math.hypot(*extent))
    else:
        diameter = float(extent.max())
    return TreeGeometry(
        ground_metric=metric,
        mins=mins,
        span=span,
        min_separation=delta_min,
        levels=levels,
        spread=diameter / delta_min,
    )


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

