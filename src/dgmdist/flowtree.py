"""Greedy augmented matching on a shifted quadtree and the flowtree distance.

The matching sweeps levels finest to coarsest. Inside a non-terminal cell,
unmatched points from the two diagrams pair up cross-wise, walking both sides
in lexicographic (birth, death) order; the surplus side forwards to the parent
cell. Inside a terminal cell, every unmatched point immediately pairs with its
own diagonal projection. If mass survives a non-terminal root (possible when a
tight bounding box sits far from the diagonal), it is diagonal-matched there
anyway so the matching is always total; `root_fallback` records that.

The distance is the ground-metric cost of this matching, an upper bound on
the exact 1-Wasserstein distance for every tree.

One private kernel, _walk, runs the level sweep for any number of diagram
pairs at once: their points are stacked pair by pair and grouped by (pair,
cell), so each level costs a fixed number of array operations however many
pairs it carries. greedy_match walks one pair; flowtree_distances walks one
query against all its candidates and returns the same costs, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from ._rows import group_rows
from .diagram import GroundMetric, PersistenceDiagram
from .embedding import embed, l1_distance
from .quadtree import ShiftedQuadtree, TreeConfig, tree_geometry, union_coords

KIND_CROSS = "cross"
KIND_P_TO_DIAGONAL = "p_to_diagonal"
KIND_Q_TO_DIAGONAL = "q_to_diagonal"


@dataclass(frozen=True)
class MatchPair:
    """One matched unit group: cross pair or point-to-projection pair."""

    source: tuple[float, float]
    target: tuple[float, float]
    mass: int
    kind: str
    level: int
    distance: float  # per unit of mass, under the matching's ground metric


@dataclass(eq=False)
class AugmentedMatching:
    """Total matching of two diagrams with its cost and level accounting.

    The pairs are parallel arrays in matching order. `point` indexes `coords`
    (first's distinct points, then second's); `partner` is second's point of
    a cross pair and -1 for a pair of `point` with its diagonal projection;
    `mass`, `level` and `distance` (per unit of mass) complete each pair.
    `pairs` builds the MatchPair list from them on first access.

    level_residuals[i] = (level, unmatched mass remaining after that level's
    cells were processed, before any root fallback).
    """

    cost: float
    ground_metric: GroundMetric
    tree_signature: str
    coords: np.ndarray
    n_first: int
    point: np.ndarray
    partner: np.ndarray
    mass: np.ndarray
    level: np.ndarray
    distance: np.ndarray
    level_residuals: list[tuple[int, int]] = field(default_factory=list)
    root_fallback: bool = False

    @cached_property
    def pairs(self) -> list[MatchPair]:
        xy = [tuple(row) for row in self.coords.tolist()]
        pairs = []
        for i, j, mass, level, dist in zip(
            self.point.tolist(),
            self.partner.tolist(),
            self.mass.tolist(),
            self.level.tolist(),
            self.distance.tolist(),
        ):
            if j >= 0:
                pairs.append(MatchPair(xy[i], xy[j], mass, KIND_CROSS, level, dist))
                continue
            mid = 0.5 * (xy[i][0] + xy[i][1])
            if i < self.n_first:
                pair = MatchPair(xy[i], (mid, mid), mass, KIND_P_TO_DIAGONAL, level, dist)
            else:
                pair = MatchPair((mid, mid), xy[i], mass, KIND_Q_TO_DIAGONAL, level, dist)
            pairs.append(pair)
        return pairs


def _cross_walk(mass: np.ndarray, starts: np.ndarray, from_first: np.ndarray):
    """Greedy cross pairing inside every cell holding points of both diagrams.

    `mass` holds the live masses in walk order, `starts` the position where
    each cell begins and `from_first` marks first's points, which precede
    second's inside a cell. Walking both sides of a cell in order and pairing
    the smaller remaining mass is the north-west-corner rule, so it is
    computed for all cells at once: each side's cumulative masses, clipped to
    the cell's matched mass min(sum first, sum second) and offset by the mass
    matched in earlier cells, are interval ends on one global axis, and every
    interval between consecutive distinct ends is one pair. Returns the
    positions of each pair's two points and its mass, in walk order, and the
    mass each position has left.
    """
    ends = np.append(starts, len(mass))[1:]
    splits = starts + np.add.reduceat(from_first, starts, dtype=np.int64)
    mixed = (starts < splits) & (splits < ends)
    if not mixed.any():
        none = np.zeros(0, np.int64)
        return none, none, none, mass
    lo, mid, hi = starts[mixed], splits[mixed], ends[mixed]
    cum = np.concatenate(([0], np.cumsum(mass)))
    matched = np.minimum(cum[mid] - cum[lo], cum[hi] - cum[mid])
    offset = np.cumsum(matched) - matched

    def intervals(first, stop):
        # positions first[c] .. stop[c]-1 of every mixed cell c, and the
        # global [begin, end) of the mass each of them gets matched
        counts = stop - first
        cell = np.repeat(np.arange(len(first)), counts)
        pos = np.arange(counts.sum()) + np.repeat(first - (np.cumsum(counts) - counts), counts)
        base, cap, shift = cum[first][cell], matched[cell], offset[cell]
        begin = shift + np.minimum(cum[pos] - base, cap)
        end = shift + np.minimum(cum[pos + 1] - base, cap)
        return pos, begin, end

    pos_a, begin_a, end_a = intervals(lo, mid)
    pos_b, begin_b, end_b = intervals(mid, hi)
    breaks = np.unique(np.concatenate((end_a, end_b)))
    low = np.concatenate(([0], breaks))[:-1]
    a = pos_a[np.searchsorted(end_a, low, side="right")]
    b = pos_b[np.searchsorted(end_b, low, side="right")]
    left = mass.copy()
    left[pos_a] -= end_a - begin_a
    left[pos_b] -= end_b - begin_b
    return a, b, breaks - low, left


def _walk(
    tree: ShiftedQuadtree,
    coords: np.ndarray,
    mass: np.ndarray,
    pair: np.ndarray,
    from_first: np.ndarray,
):
    """The greedy matchings of several diagram pairs, one pass per level.

    Rows are stacked pair-major: pair p's first-diagram points, then its
    second-diagram points, each side in lexicographic order. `pair` holds
    each row's pair index (non-decreasing, below 2**(54 - tree.num_levels)),
    `from_first` marks first's points and `mass` is used up in place. Each
    pair is matched exactly as if walked alone: its points never share a
    cell with another pair's.

    Returns the matched pairs as (point, partner, mass, level) arrays in
    matching order (partner -1 for a diagonal pair), the unmatched mass
    after each level summed over the pairs, and whether any mass reached the
    root fallback.
    """
    walk = np.arange(len(mass))  # live points in the previous level's walk order
    pairs: list[tuple[np.ndarray, np.ndarray, np.ndarray, int]] = []
    residuals: list[tuple[int, int]] = []

    def to_diagonal(points: np.ndarray, level: int) -> None:
        pairs.append((points, np.full(len(points), -1), mass[points], level))
        mass[points] = 0

    for level, _, ix, iy, terminal in tree.level_pass(coords):
        if len(walk) == 0:
            residuals.append((level, 0))
            continue
        to_diagonal(walk[terminal[walk]], level)
        # sort by (pair, cell); within a cell first's points precede second's,
        # each side in lexicographic order. ix < 2**(level_hi - level), so the
        # packed (pair, ix) key orders like the tuple and stays below 2**53.
        live = np.flatnonzero(mass > 0)
        order, starts = group_rows(
            (pair[live] << (tree.level_hi - level)) + ix[live], iy[live]
        )
        live = live[order]
        a, b, take, left = _cross_walk(mass[live], starts, from_first[live])
        pairs.append((live[a], live[b], take, level))
        mass[live] = left
        walk = live[left > 0]
        residuals.append((level, int(left.sum())))

    root_fallback = len(walk) > 0
    to_diagonal(walk, tree.level_hi)
    point, partner, pair_mass, levels = zip(*pairs)
    matched = (np.concatenate(point), np.concatenate(partner), np.concatenate(pair_mass))
    return (*matched, np.repeat(levels, [len(p) for p in point])), residuals, root_fallback


def _pair_distances(coords, point, partner, metric: GroundMetric) -> np.ndarray:
    """Per-unit ground distance of every matched pair."""
    distance = np.abs(coords[point, 1] - coords[point, 0]) * metric.diagonal_factor
    cross = partner >= 0
    distance[cross] = metric.rowwise(coords[point[cross]], coords[partner[cross]])
    return distance


def greedy_match(
    tree: ShiftedQuadtree,
    first: PersistenceDiagram,
    second: PersistenceDiagram,
    metric: GroundMetric | None = None,
) -> AugmentedMatching:
    """Bottom-up greedy augmented matching of two diagrams on one tree.

    Deterministic given (tree, first, second); swapping the diagrams yields
    the mirrored pair multiset at identical cost. Runs in
    O((|first| + |second|) * levels) plus one sort per level of the walk,
    which flowtree_distances shares among many pairs.
    """
    metric = metric or tree.ground_metric
    # points of first, then of second, each in lexicographic order
    coords = np.vstack((first.coords(), second.coords()))
    mass = np.concatenate((first.multiplicities(), second.multiplicities()))
    n_first = len(first)
    (point, partner, pair_mass, level), residuals, root_fallback = _walk(
        tree,
        coords,
        mass,
        np.zeros(len(mass), np.int64),
        np.arange(len(mass)) < n_first,
    )
    distance = _pair_distances(coords, point, partner, metric)
    return AugmentedMatching(
        cost=math.fsum((pair_mass * distance).tolist()),
        ground_metric=metric,
        tree_signature=tree.signature,
        coords=coords,
        n_first=n_first,
        point=point,
        partner=partner,
        mass=pair_mass,
        level=level,
        distance=distance,
        level_residuals=residuals,
        root_fallback=root_fallback,
    )


def flowtree_distance(
    tree: ShiftedQuadtree,
    first: PersistenceDiagram,
    second: PersistenceDiagram,
    metric: GroundMetric | None = None,
) -> float:
    """Ground-metric cost of the greedy augmented matching."""
    return greedy_match(tree, first, second, metric).cost


def flowtree_distances(
    tree: ShiftedQuadtree,
    query: PersistenceDiagram,
    candidates: Sequence[PersistenceDiagram],
    metric: GroundMetric | None = None,
) -> list[float]:
    """flowtree_distance from one query to every candidate, in order.

    Equal (==) to [flowtree_distance(tree, query, c, metric) for c in
    candidates]; the pairs are walked together, one pass per level for up to
    2**(54 - tree.num_levels) candidates at a time, and each cost is one
    math.fsum over its own pairs, as for a single pair.
    """
    metric = metric or tree.ground_metric
    step = 1 << (54 - tree.num_levels)
    costs: list[float] = []
    for begin in range(0, len(candidates), step):
        batch = candidates[begin : begin + step]
        blocks = [d for c in batch for d in (query, c)]
        coords = np.vstack([d.coords() for d in blocks])
        mass = np.concatenate([d.multiplicities() for d in blocks])
        sizes = np.array([len(query) + len(c) for c in batch])
        pair = np.repeat(np.arange(len(batch)), sizes)
        first_end = np.repeat(np.cumsum(sizes) - sizes + len(query), sizes)
        from_first = np.arange(len(mass)) < first_end
        (point, partner, pair_mass, _), _, _ = _walk(tree, coords, mass, pair, from_first)
        products = pair_mass * _pair_distances(coords, point, partner, metric)
        owner = pair[point]
        products = products[np.argsort(owner, kind="stable")].tolist()
        ends = np.cumsum(np.bincount(owner, minlength=len(batch))).tolist()
        costs.extend(
            math.fsum(products[lo:hi]) for lo, hi in zip([0] + ends[:-1], ends)
        )
    return costs


def multi_tree_estimate(
    first: PersistenceDiagram,
    second: PersistenceDiagram,
    metric: GroundMetric,
    seeds: Sequence[int],
    reduce: str = "mean",
    method: str = "flowtree",
) -> tuple[float, list[dict]]:
    """Distance estimate over several independently shifted trees.

    Shifts one tree per seed over the union of both diagrams' points, whose
    seed-independent geometry is computed once, runs the tree method on each
    and reduces the per-tree estimates by mean (math.fsum) or min. Returns
    the estimate and one tree.meta() dict per seed; for flowtree each dict
    also records the matching's root_fallback.
    Two empty diagrams give (0.0, []) without building a tree. `dgmdist
    dist` prints exactly this result.
    """
    if not seeds:
        raise ValueError("at least one seed is required")
    if reduce not in ("mean", "min"):
        raise ValueError(f"reduce must be 'mean' or 'min', got {reduce!r}")
    if method not in ("flowtree", "embedding"):
        raise ValueError(f"method must be 'flowtree' or 'embedding', got {method!r}")
    if first.total_count == 0 and second.total_count == 0:
        return 0.0, []
    geometry = tree_geometry(union_coords((first, second)), metric)
    values = []
    tree_meta = []
    for seed in seeds:
        tree = geometry.tree(TreeConfig(seed=seed, ground_metric=metric))
        meta = tree.meta()
        if method == "flowtree":
            matching = greedy_match(tree, first, second, metric)
            values.append(matching.cost)
            meta["root_fallback"] = matching.root_fallback
        else:
            values.append(l1_distance(embed(tree, first), embed(tree, second)))
        tree_meta.append(meta)
    if reduce == "mean":
        return math.fsum(values) / len(values), tree_meta
    return min(values), tree_meta


def write_matching(matching: AugmentedMatching, path) -> None:
    """Audit dump: one "kind bx by dx dy mass cost" line per pair."""
    path = Path(path)
    lines = [
        f"{p.kind} {p.source[0]!r} {p.source[1]!r} "
        f"{p.target[0]!r} {p.target[1]!r} {p.mass} {p.mass * p.distance!r}"
        for p in matching.pairs
    ]
    path.write_text("\n".join(lines) + ("\n" if lines else ""))
