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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .diagram import GroundMetric, PersistenceDiagram
from .embedding import embed, l1_distance
from .quadtree import ShiftedQuadtree, TreeConfig, build_tree, union_coords

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


@dataclass
class AugmentedMatching:
    """Total matching of two diagrams with its cost and level accounting.

    level_residuals[i] = (level, unmatched mass remaining after that level's
    cells were processed, before any root fallback).
    """

    pairs: list[MatchPair]
    cost: float
    ground_metric: GroundMetric
    tree_signature: str
    level_residuals: list[tuple[int, int]] = field(default_factory=list)
    root_fallback: bool = False


def _diagonal_pair(
    x: float, y: float, mass: int, from_first: bool, level: int, metric: GroundMetric
) -> MatchPair:
    mid = 0.5 * (x + y)
    dist = abs(y - x) * metric.diagonal_factor
    if from_first:
        return MatchPair((x, y), (mid, mid), mass, KIND_P_TO_DIAGONAL, level, dist)
    return MatchPair((mid, mid), (x, y), mass, KIND_Q_TO_DIAGONAL, level, dist)


def _mixed_cells(cx: np.ndarray, cy: np.ndarray, from_first: np.ndarray):
    """(start, split, end) of each run of equal cells holding points of both
    diagrams, with first's points in [start, split) and second's in
    [split, end)."""
    if len(cx) == 0:
        return []
    starts = np.flatnonzero(np.r_[True, (cx[1:] != cx[:-1]) | (cy[1:] != cy[:-1])])
    ends = np.r_[starts[1:], len(cx)]
    splits = starts + np.add.reduceat(from_first, starts, dtype=np.int64)
    mixed = (starts < splits) & (splits < ends)
    return zip(starts[mixed].tolist(), splits[mixed].tolist(), ends[mixed].tolist())


def greedy_match(
    tree: ShiftedQuadtree,
    first: PersistenceDiagram,
    second: PersistenceDiagram,
    metric: GroundMetric | None = None,
) -> AugmentedMatching:
    """Bottom-up greedy augmented matching of two diagrams on one tree.

    Deterministic given (tree, first, second); swapping the diagrams yields
    the mirrored pair multiset at identical cost. Runs in
    O((|first| + |second|) * levels).
    """
    metric = metric or tree.ground_metric
    # points of first, then of second, each in lexicographic order
    coords = np.vstack((first.coords(), second.coords()))
    mass = np.concatenate((first.multiplicities(), second.multiplicities()))
    n_first = len(first)
    xs, ys = coords[:, 0].tolist(), coords[:, 1].tolist()
    live = np.arange(len(mass))
    pairs: list[MatchPair] = []
    residuals: list[tuple[int, int]] = []

    def to_diagonal(points: np.ndarray, level: int) -> None:
        for i, m in zip(points.tolist(), mass[points].tolist()):
            pairs.append(_diagonal_pair(xs[i], ys[i], m, i < n_first, level, metric))
        mass[points] = 0

    for level, _, ix, iy, terminal in tree.level_pass(coords):
        to_diagonal(live[terminal[live]], level)
        live = live[~terminal[live]]
        # sort by cell; within a cell first's points precede second's, each
        # side in lexicographic order
        live = live[np.lexsort((live, iy[live], ix[live]))]
        members = live.tolist()
        left = mass[live].tolist()
        for i, split, end in _mixed_cells(ix[live], iy[live], live < n_first):
            j = split
            while i < split and j < end:
                a, b = members[i], members[j]
                take = left[i] if left[i] < left[j] else left[j]
                pairs.append(
                    MatchPair(
                        (xs[a], ys[a]),
                        (xs[b], ys[b]),
                        take,
                        KIND_CROSS,
                        level,
                        metric.distance((xs[a], ys[a]), (xs[b], ys[b])),
                    )
                )
                left[i] -= take
                left[j] -= take
                if left[i] == 0:
                    i += 1
                if left[j] == 0:
                    j += 1
        mass[live] = left
        live = live[mass[live] > 0]
        residuals.append((level, int(mass[live].sum())))

    root_fallback = len(live) > 0
    to_diagonal(live, tree.level_hi)

    cost = math.fsum(p.mass * p.distance for p in pairs)
    return AugmentedMatching(
        pairs=pairs,
        cost=cost,
        ground_metric=metric,
        tree_signature=tree.signature,
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


def multi_tree_estimate(
    first: PersistenceDiagram,
    second: PersistenceDiagram,
    metric: GroundMetric,
    seeds: Sequence[int],
    reduce: str = "mean",
    method: str = "flowtree",
) -> tuple[float, list[dict]]:
    """Distance estimate over several independently shifted trees.

    Builds one tree per seed over the union of both diagrams' points, runs
    the tree method on each and reduces the per-tree estimates by mean
    (math.fsum) or min. Returns the estimate and one tree.meta() dict per
    seed; for flowtree each dict also records the matching's root_fallback.
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
    points = union_coords((first, second))
    values = []
    tree_meta = []
    for seed in seeds:
        tree = build_tree(points, TreeConfig(seed=seed, ground_metric=metric))
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
