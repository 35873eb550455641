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
pairs it carries. It returns what it matched at each level, the pairs it
sends to the diagonal by row, not by cell; greedy_match, the one caller
that lists pairs, sorts them once afterwards. PlacedDiagrams.flowtree_row
walks one diagram against many and sums each pair's costs with math.fsum,
which gives the same value in any order, so it returns greedy_match's
costs bit for bit. The evaluation harness reads every flowtree distance,
single pairs included, from flowtree_row; greedy_match serves matchings
(dist, .match files). Every cost is taken under the tree's ground metric.

Placement. PlacedDiagrams places every point of its diagrams once
(ShiftedQuadtree.place: the finest cell, whose ancestor k levels up is the
index shifted right by k, and the first terminal level), so a walk computes
no cell formula. Before the sweep it also gives each row its meet level,
the first level at which the row's cell holds any point of the other
diagram of its pair, from the Morton order of the finest cells (see
PlacedDiagrams._meet_levels). At each level the walk then
- sends to the diagonal the live rows whose terminal level it is;
- sorts by (pair, cell) only the live rows at or past their meet level.

This changes no matching. Cross pairs form only in a cell that holds live
rows of both diagrams of a pair. Every live row of such a cell is at or
past its meet level, since the cell holds a point of the other diagram. So
each such cell is in the sort whole, with its rows in the same relative
order, and the cross walk pairs them as it would in a sort of all live
rows. The rows left out sit in cells holding no point of the other
diagram; the cross walk would leave their mass unchanged.
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
from .embedding import embed_all
from .quadtree import MAX_LEVELS, ShiftedQuadtree, TreeConfig, tree_geometry, union_coords

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
    ends = np.concatenate((starts[1:], [len(mass)]))
    splits = starts + np.add.reduceat(from_first, starts, dtype=np.int64)
    mixed = (starts < splits) & (splits < ends)
    if not mixed.any():
        none = np.zeros(0, np.int64)
        return none, none, none, mass
    lo, mid, hi = starts[mixed], splits[mixed], ends[mixed]
    cum = np.concatenate(([0], np.cumsum(mass)))
    matched = np.minimum(cum[mid] - cum[lo], cum[hi] - cum[mid])
    offset = np.cumsum(matched) - matched
    # one segment per side of every mixed cell, all first's sides before
    # all second's; each position of a segment gets the global interval of
    # mass [offset + min(cum[pos] - base, matched), offset + min(cum[pos + 1]
    # - base, matched)), base being the cumulative mass where its side begins
    first = np.concatenate((lo, mid))
    counts = np.concatenate((mid, hi)) - first
    seg = np.repeat(np.arange(len(first)), counts)
    pos = np.arange(len(seg)) + np.repeat(first - (np.cumsum(counts) - counts), counts)
    shift = np.concatenate((offset, offset))
    rebase = (shift - cum[first])[seg]
    cap = (shift + np.concatenate((matched, matched)))[seg]
    begin = np.minimum(cum[pos] + rebase, cap)
    end = np.minimum(cum[pos + 1] + rebase, cap)
    left = mass.copy()
    left[pos] -= end - begin
    n_first = len(seg) - (hi - mid).sum()
    # each side's ends ascend, so a stable sort merges two runs
    ends = np.sort(end, kind="stable")
    breaks = ends[np.concatenate((ends[:-1] != ends[1:], [True]))]
    low = np.concatenate(([0], breaks[:-1]))
    a = pos[np.searchsorted(end[:n_first], low, side="right")]
    b = pos[n_first + np.searchsorted(end[n_first:], low, side="right")]
    return a, b, breaks - low, left


def _spread(v: np.ndarray) -> np.ndarray:
    """Bits 0..23 of v moved to the even positions 0, 2, ..., 46."""
    v = (v | (v << 16)) & 0x0000FFFF0000FFFF
    v = (v | (v << 8)) & 0x00FF00FF00FF00FF
    v = (v | (v << 4)) & 0x0F0F0F0F0F0F0F0F
    v = (v | (v << 2)) & 0x3333333333333333
    return (v | (v << 1)) & 0x5555555555555555


class PlacedDiagrams:
    """Diagrams placed once on one tree (built over a superset of their
    points), for flowtree walks between any two of them.

    Holds the diagrams' stacked coords and multiplicities, diagram d's
    points at start[d]:start[d + 1]; tree.place of them; each point's rank
    in the Morton (Z-) order of its finest cell; and every diagram's points
    in that order as the sorted keys code_key = owner * n + rank, owner
    being the diagram of a point and by_code the point behind each key.
    """

    def __init__(self, tree: ShiftedQuadtree, diagrams: Sequence[PersistenceDiagram]):
        self.tree = tree
        self.coords = union_coords(diagrams)
        self.mass = np.concatenate(
            [d.multiplicities() for d in diagrams] + [np.zeros(0, np.int64)]
        )
        sizes = [len(d) for d in diagrams]
        self.start = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
        self.ix, self.iy, self.terminal_level = tree.place(self.coords)
        # cell indices are below 2**level_hi <= 2**47: their
        # Morton codes rank through one 48-bit word per 24 bits of index,
        # the high bits first
        low = (1 << 24) - 1
        shifts = range(24 * (max(tree.level_hi - 1, 0) // 24), -1, -24)
        parts = _spread(np.stack([(c >> s) & low for s in shifts for c in (self.ix, self.iy)]))
        n = len(self.mass)
        self.rank = np.empty(n, np.int64)
        self.rank[np.lexsort(((parts[0::2] << 1) | parts[1::2])[::-1])] = np.arange(n)
        self.owner = np.repeat(np.arange(len(sizes)), sizes)
        key = self.owner * n + self.rank
        self.by_code = np.argsort(key)
        self.code_key = key[self.by_code]

    def __len__(self) -> int:
        return len(self.start) - 1

    def flowtree_row(self, i: int, js: Sequence[int]) -> list[float]:
        """[flowtree_distance(tree, diagram i, diagram j) for j in js], bit
        for bit: the pairs are walked together, up to
        2**(54 - tree.num_levels) of them at a time, and each cost is one
        math.fsum over its own pairs, as for a single pair. Raises
        IndexError unless i and every j lie in range(len(self))."""
        js = np.asarray(js, dtype=np.int64).reshape(-1)
        inside = 0 <= i < len(self) and (len(js) == 0 or 0 <= js.min() <= js.max() < len(self))
        if not inside:
            raise IndexError(f"diagram indices must lie in range({len(self)})")
        step = 1 << (54 - self.tree.num_levels)
        costs: list[float] = []
        for begin in range(0, len(js), step):
            batch = js[begin : begin + step]
            (point, partner, pair, pair_mass, _), _, _ = _walk(self, i, batch)
            products = pair_mass * _pair_distances(self, point, partner)
            # the smallest unsigned type: a stable sort of it is a radix sort
            owner = pair.astype(np.min_scalar_type(len(batch)))
            products = products[np.argsort(owner, kind="stable")].tolist()
            ends = np.cumsum(np.bincount(owner, minlength=len(batch))).tolist()
            costs.extend(
                math.fsum(products[lo:hi]) for lo, hi in zip([0] + ends[:-1], ends)
            )
        return costs

    def _meet_levels(self, point: np.ndarray, other: np.ndarray) -> np.ndarray:
        """How many levels above the finest the cell of each given point
        first holds a point of diagram other[i]; MAX_LEVELS if none does.

        Two cells share their ancestor k levels up exactly when k is at
        least the bit length of (ix ^ ix') | (iy ^ iy'), half the length of
        their Morton codes' differing suffix, rounded up. Among the other
        diagram's codes, one with the longest prefix in common is next to
        the point's code in sorted order, so one search finds it.
        """
        n = len(self.mass)
        pos = np.searchsorted(self.code_key, other * n + self.rank[point])
        partner = self.by_code[np.stack((np.maximum(pos - 1, 0), np.minimum(pos, n - 1)))]
        apart = (self.ix[point] ^ self.ix[partner]) | (self.iy[point] ^ self.iy[partner])
        levels = np.frexp(apart.astype(float))[1]
        found = self.owner[partner] == other
        return np.where(found, levels, MAX_LEVELS).min(axis=0, initial=MAX_LEVELS)


def _by_level(values: np.ndarray, levels: int):
    """Rows grouped by a per-row level index: rows[bounds[k]:bounds[k + 1]]
    are those of value k, in row order."""
    rows = np.argsort(values.astype(np.int8), kind="stable")
    return rows, np.searchsorted(values[rows], np.arange(levels + 1))


def _walk(placed: PlacedDiagrams, i: int, js: np.ndarray):
    """The greedy matchings of the pairs (diagram i, diagram j) for j in js,
    one pass per level.

    Rows stack the pairs' points pair-major: pair p's points of diagram i,
    then those of diagram js[p], each side in lexicographic order, each with
    its multiplicity as mass. len(js) is below 2**(54 - tree.num_levels).
    Each pair is matched exactly as if walked alone: its points never share
    a cell with another pair's.

    Returns the matched pairs as (point, partner, pair, mass, level) arrays
    in the order the walk makes them: level by level, each level's diagonal
    pairs by row, then its cross pairs in walk order, and the root fallback
    last, by row. point and partner index placed's points (partner -1 for a
    diagonal pair) and pair indexes js. Also returns the unmatched mass
    after each level summed over the pairs, and whether any mass reached
    the root fallback.
    """
    tree = placed.tree
    levels = tree.num_levels
    n_first = placed.start[i + 1] - placed.start[i]
    sizes = n_first + placed.start[js + 1] - placed.start[js]
    pair = np.repeat(np.arange(len(js)), sizes)
    within = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    from_first = within < n_first
    point = within + np.where(from_first, placed.start[i], placed.start[js][pair] - n_first)
    mass = placed.mass[point]
    # pair index above the x cell index: the packed (pair, x) key of a
    # row's cell on level k is cell_x >> k, below 2**53 and ordered like
    # the tuple
    cell_x = (pair << (levels - 1)) + placed.ix[point]
    iy = placed.iy[point]
    retiring, retire_at = _by_level(placed.terminal_level[point], levels)
    meet = np.minimum(placed._meet_levels(point, np.where(from_first, js[pair], i)), levels)
    entering, enter_at = _by_level(meet, levels)
    active = np.zeros(0, np.int64)  # live rows past their meet level, in row order
    live_mass = int(mass.sum())
    no_partner = np.full(len(mass), -1)
    pairs: list[tuple[np.ndarray, np.ndarray, np.ndarray, int]] = []
    residuals: list[tuple[int, int]] = []

    def to_diagonal(rows: np.ndarray, level: int) -> int:
        sent = mass[rows]
        pairs.append((rows, no_partner[: len(rows)], sent, level))
        mass[rows] = 0
        return int(sent.sum())

    for level in tree.levels():
        if live_mass == 0:
            residuals.append((level, 0))
            continue
        rows = retiring[retire_at[level] : retire_at[level + 1]]
        live_mass -= to_diagonal(rows[mass[rows] > 0], level)
        entered = entering[enter_at[level] : enter_at[level + 1]]
        if len(entered):
            active = np.sort(np.concatenate((active, entered)))
        active = active[mass[active] > 0]
        if len(active):
            # sort by (pair, cell); within a cell first's points precede
            # second's, each side in lexicographic order
            order, starts = group_rows(cell_x[active] >> level, iy[active] >> level)
            rows = active[order]
            a, b, take, left = _cross_walk(mass[rows], starts, from_first[rows])
            pairs.append((rows[a], rows[b], take, level))
            mass[rows] = left
            live_mass -= 2 * int(take.sum())
        residuals.append((level, live_mass))

    rows = np.flatnonzero(mass > 0)
    root_fallback = len(rows) > 0
    to_diagonal(rows, tree.level_hi)
    rows, partners, masses, levels_of = zip(*pairs)
    level = np.repeat(levels_of, [len(r) for r in rows])
    row, partner = np.concatenate(rows), np.concatenate(partners)
    partner = np.where(partner >= 0, point[partner], -1)
    matched = (point[row], partner, pair[row], np.concatenate(masses), level)
    return matched, residuals, root_fallback


def _pair_distances(placed: PlacedDiagrams, point, partner) -> np.ndarray:
    """Per-unit distance of every matched pair under the tree's metric."""
    coords, metric = placed.coords, placed.tree.ground_metric
    distance = metric.diagonal_distances(coords[point])
    cross = partner >= 0
    distance[cross] = metric.rowwise(coords[point[cross]], coords[partner[cross]])
    return distance


def greedy_match(
    tree: ShiftedQuadtree, first: PersistenceDiagram, second: PersistenceDiagram
) -> AugmentedMatching:
    """Bottom-up greedy augmented matching of two diagrams on one tree,
    costed under tree.ground_metric.

    Deterministic given (tree, first, second); swapping the diagrams yields
    the mirrored pair multiset at identical cost. Runs in
    O((|first| + |second|) * levels) plus, per level, a sort of the points
    that can still be cross-matched there; PlacedDiagrams.flowtree_row shares
    each level's array operations among many pairs.

    Pair order: level by level, finest first. Within level k come first the
    points sent to the diagonal at their terminal level, by their cell one
    level down, (ix >> (k - 1), iy >> (k - 1)), then by point (at the finest
    level by point alone); then the cross pairs, in walk order; last, at the
    root, the fallback diagonal pairs, in point order.
    """
    placed = PlacedDiagrams(tree, (first, second))
    (point, partner, _, pair_mass, level), residuals, root_fallback = _walk(
        placed, 0, np.array([1])
    )
    # a stable sort: pairs with equal keys keep the order _walk made them
    # in; a fallback point has no terminal level
    terminal = (partner < 0) & (level > 0) & (placed.terminal_level[point] == level)
    down = np.maximum(level - 1, 0)
    order = np.lexsort(
        (
            (placed.iy[point] >> down) * terminal,
            (placed.ix[point] >> down) * terminal,
            ~terminal,
            level,
        )
    )
    point, partner, pair_mass, level = point[order], partner[order], pair_mass[order], level[order]
    distance = _pair_distances(placed, point, partner)
    return AugmentedMatching(
        cost=math.fsum((pair_mass * distance).tolist()),
        ground_metric=tree.ground_metric,
        tree_signature=tree.signature,
        coords=placed.coords,
        n_first=len(first),
        point=point,
        partner=partner,
        mass=pair_mass,
        level=level,
        distance=distance,
        level_residuals=residuals,
        root_fallback=root_fallback,
    )


def flowtree_distance(
    tree: ShiftedQuadtree, first: PersistenceDiagram, second: PersistenceDiagram
) -> float:
    """Cost of the greedy augmented matching under tree.ground_metric."""
    return greedy_match(tree, first, second).cost


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
    and reduces the per-tree estimates by mean (math.fsum) or min: flowtree
    is greedy_match's cost, embedding the row of a two-diagram embed_all
    index (the exact tree cost of the cell counts, rounded once). Returns
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
            matching = greedy_match(tree, first, second)
            values.append(matching.cost)
            meta["root_fallback"] = matching.root_fallback
        else:
            values.append(embed_all(tree, (first, second)).l1_row(0, [1])[0])
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
