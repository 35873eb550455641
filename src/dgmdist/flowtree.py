"""Greedy augmented matching on a shifted quadtree, and the two distances
read from it: the flowtree distance and the embedding distance.

The matching sweeps levels finest to coarsest. Inside a non-terminal cell,
unmatched points from the two diagrams pair up cross-wise, walking both sides
in lexicographic (birth, death) order; the surplus side forwards to the parent
cell. Inside a terminal cell, every unmatched point immediately pairs with its
own diagonal projection. The root meets the diagonal (see quadtree.py), so
every point is sent to the diagonal at the latest there and the matching is
always total.

One walk, two costs. The flowtree distance is the matching's cost in the
ground metric, an upper bound on the exact 1-Wasserstein distance for every
tree. The embedding distance is the sum over levels of side * residual: the
cell side side(k) = root_side * 2**(k - level_hi) times the pair's mass the
walk leaves unmatched after level k. It is the L1 distance of the two
diagrams' embedding vectors (see embedding.py), and also the matching's
cost in the tree metric, since a unit matched at level e is residual on
levels 0..e-1. The walk keeps each pair's residuals, so the sum is formed
exactly in Python ints and rounded once.

One private kernel, _walk, runs the level sweep for any number of jobs at
once, a job being a pair of diagrams on one tree, and the jobs of one sweep
may lie on different trees: their points are stacked job by job and grouped
by (job, cell), so each level costs a fixed number of array operations
however many jobs it carries, and a job on a shallower tree is done at its
own root. _matchings feeds it: it stacks the jobs' rows in small setup
chunks (_batches), retires in closed form every row that cannot
cross-match (see Placement), and hands the rows of consecutive whole
chunks to one walk, up to _BATCH_ROWS walked rows and below 2**63 mass
unless the walk is one chunk: limits that keep _walk's keys and masses
exact and its memory bounded. Each walk gives one _Walk record of what its
jobs matched: the retired rows, which go to the diagonal whole, the pairs
the walk made, sorted by job, and each job's residual after every level.
greedy_match, the one caller that lists pairs, matches one job and sorts
its pairs once afterwards.
PlacedDiagrams.distances reads both costs of any list of jobs from the
same records: the flowtree cost is one math.fsum over the job's own pairs,
which gives the same value in any order, so greedy_match's cost bit for
bit; the embedding cost reads the job's residuals with its own tree's
side. flowtree_row and embedding_row are one diagram against many on one
tree, multi_tree_estimate (dist) is one job per tree, and the evaluation
harness reads every tree distance of a call from one distances call. Every
flowtree cost is taken under the trees' one ground metric.

Grouping. A level sorts its rows by one int64 key (_rows.group_cells):
the job, then the cell's x and y indices on that level, then the row's
position among the level's rows. The keys are unique, so a plain sort
gives the stable (job, cell) order, each cell's rows in row order. The
walk numbers its jobs with walked rows densely, at most _BATCH_ROWS of
them or a single job, so the packed (job, cell x) part stays below 2**60;
only where the whole key would pass 63 bits, on the fine levels of deep
trees, does a level take np.lexsort's stable sort of the (job, cell x)
and y columns instead.

Pairs are formed only when read. Each level gives every sorted row its
interval of cross-matched mass on one axis and the mass it has left
(_cell_match), and a job's residual after the level is the mass its rows
have left. Only a walk whose caller reads the flowtree cost turns the
intervals into pair arrays (_cross_walk), gathers them and sorts them by
job; an embedding-only distances call forms none.

Placement. PlacedDiagrams places every point of its diagrams once, each
diagram on its tree, all trees in one sweep over levels (quadtree._place,
as ShiftedQuadtree.place: the finest cell, whose ancestor k levels up is
the index shifted right by k, and the first terminal level), so a walk
computes no cell formula. Before the sweep each
row gets its meet level, the first level at which the row's cell holds any
point of the other diagram of its job, from the Morton order of the finest
cells (see PlacedDiagrams._meet_levels). A row whose terminal level comes
at or before its meet level is retired: it goes to the diagonal whole, at
its terminal level, and counts as its job's residual on every level below
that. Only the other rows are walked. At each level the walk then, picking
rows by mask in row order,
- sends to the diagonal the live rows whose terminal level it is;
- sorts by (job, cell) only the live rows at or past their meet level.

This changes no matching. Cross pairs form only in a cell that holds live
rows of both diagrams of a job. Every live row of such a cell is at or
past its meet level, since the cell holds a point of the other diagram. So
each such cell is in the sort whole, with its rows in the same relative
order, and the cross walk pairs them as it would in a sort of all live
rows. The rows left out sit in cells holding no point of the other
diagram; the cross walk would leave their mass unchanged. A retired row is
one of them on every level below its terminal level, and at that level it
goes to the diagonal before the level's cross walk, as every terminal row
does; so it never meets the cross walk, and its whole mass goes to the
diagonal there.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from ._rows import group_cells
from .diagram import GroundMetric, PersistenceDiagram
from .quadtree import (
    MAX_LEVELS,
    ShiftedQuadtree,
    TreeConfig,
    _place,
    tree_geometry,
    union_coords,
)

KIND_CROSS = "cross"
KIND_P_TO_DIAGONAL = "p_to_diagonal"
KIND_Q_TO_DIAGONAL = "q_to_diagonal"

# walked rows one walk takes, and rows one setup chunk stacks, unless a single
# job holds more: a walk keeps about a hundred bytes per walked row, and more
# rows amortize its per-level costs no further. It also bounds the jobs a
# walk numbers densely in its cell keys, so it must stay at most 2**16 for
# keys of 48-level trees below 2**63
_BATCH_ROWS = 1 << 13


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

    level_residuals[k] = (level k, unmatched mass remaining after that
    level's cells were processed): this pair's column of the walk's
    residual array. The sum of side * residual over them is the embedding
    distance.
    """

    # no mass survives the root, which meets the diagonal; read by
    # perfbench/spans.py until its per-layer names are re-pointed (ROADMAP
    # item 7)
    root_fallback = False

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


def _cell_match(mass: np.ndarray, starts: np.ndarray, from_first: np.ndarray):
    """Greedy cross matching inside every cell, as masses.

    `mass` holds the live masses in walk order, `starts` the position where
    each cell begins and `from_first` marks first's points, which precede
    second's inside a cell. Walking both sides of a cell in order and pairing
    the smaller remaining mass is the north-west-corner rule, so it is
    computed for all cells at once: a cell matches min(sum first, sum
    second), 0 if it holds one side only, and each row's interval [begin,
    end) on one global axis is its side's cumulative mass before and after
    it, clipped to the cell's matched mass and offset by the mass matched in
    earlier cells. Returns the mass each row has left and every row's begin
    and end, for _cross_walk.
    """
    ends = np.concatenate((starts[1:], [len(mass)]))
    splits = starts + np.add.reduceat(from_first, starts, dtype=np.int64)
    cum = np.concatenate(([0], mass.cumsum()))
    matched = np.minimum(cum[splits] - cum[starts], cum[ends] - cum[splits])
    offset = matched.cumsum() - matched
    # a row's shift is its cell's offset less the cumulative mass where the
    # row's own side of the cell begins
    cell = np.repeat(np.arange(len(starts)), ends - starts)
    shift = offset[cell] - cum[np.where(from_first, starts[cell], splits[cell])]
    cap = (offset + matched)[cell]
    begin = np.minimum(cum[:-1] + shift, cap)
    end = np.minimum(cum[1:] + shift, cap)
    return mass - (end - begin), begin, end


def _cross_walk(begin: np.ndarray, end: np.ndarray, from_first: np.ndarray):
    """The pairs of _cell_match's rows, from their intervals: every interval
    between consecutive distinct ends of the rows with a non-empty interval
    is one pair. Returns the positions of each pair's two points and its
    mass, in walk order."""
    crossed = end > begin
    a, b = (crossed & from_first).nonzero()[0], (crossed & ~from_first).nonzero()[0]
    if not len(a):
        return a, b, a
    # each side's ends ascend, so a stable sort merges two runs
    ends = np.sort(np.concatenate((end[a], end[b])), kind="stable")
    breaks = ends[np.concatenate((ends[:-1] != ends[1:], [True]))]
    low = np.concatenate(([0], breaks[:-1]))
    a = a[np.searchsorted(end[a], low, side="right")]
    b = b[np.searchsorted(end[b], low, side="right")]
    return a, b, breaks - low


def _spread(v: np.ndarray) -> np.ndarray:
    """Bits 0..23 of v moved to the even positions 0, 2, ..., 46."""
    v = (v | (v << 16)) & 0x0000FFFF0000FFFF
    v = (v | (v << 8)) & 0x00FF00FF00FF00FF
    v = (v | (v << 4)) & 0x0F0F0F0F0F0F0F0F
    v = (v | (v << 2)) & 0x3333333333333333
    return (v | (v << 1)) & 0x5555555555555555


class PlacedDiagrams:
    """Diagrams placed once, each on its tree, for flowtree walks between any
    two diagrams on one tree.

    tree is one ShiftedQuadtree for every diagram, or a sequence of one tree
    per diagram, the same object for diagrams that share a tree; each tree
    is built over a superset of its diagrams' points, and all of them share
    one ground metric. trees lists the distinct trees in order of first use
    and tree_of[d] is diagram d's.

    Holds the diagrams' stacked coords and multiplicities, diagram d's
    points at start[d]:start[d + 1] and its total multiplicity totals[d], a
    Python int; ShiftedQuadtree.place of them, each point on its diagram's
    tree; each point's rank in the Morton (Z-) order of its finest cell,
    which orders the points of any one tree as their codes; and every
    diagram's points in that order as the sorted keys code_key = owner * n
    + rank, owner being the diagram of a point and by_code the point behind
    each key.
    """

    def __init__(
        self,
        tree: ShiftedQuadtree | Sequence[ShiftedQuadtree],
        diagrams: Sequence[PersistenceDiagram],
    ):
        trees = [tree] * len(diagrams) if isinstance(tree, ShiftedQuadtree) else list(tree)
        if len(trees) != len(diagrams):
            raise ValueError("give one tree per diagram")
        index: dict[int, int] = {}
        tree_of = [index.setdefault(id(t), len(index)) for t in trees]
        self.tree_of = np.array(tree_of, np.int64)
        self.trees = list({id(t): t for t in trees}.values())
        if len({t.ground_metric for t in self.trees}) > 1:
            raise ValueError("the trees must share one ground metric")
        # the deepest tree's levels: every walk runs them, a job on a
        # shallower tree retiring at its own root
        self.levels = max((t.num_levels for t in self.trees), default=1)
        self.coords = union_coords(diagrams)
        self.mass = np.concatenate(
            [d.multiplicities() for d in diagrams] + [np.zeros(0, np.int64)]
        )
        sizes = [len(d) for d in diagrams]
        self.totals = [d.total_count for d in diagrams]
        self.start = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))

        # every point on its diagram's tree in one sweep: each tree parameter
        # is one value for all rows when every diagram's tree shares it
        def per_row(values):
            if len(set(values)) > 1:
                return np.repeat(values, sizes)
            return values[0] if values else 0

        self.ix, self.iy, self.terminal_level = _place(
            self.coords,
            per_row([t.origin[0] for t in trees]),
            per_row([t.origin[1] for t in trees]),
            per_row([t.root_side for t in trees]),
            per_row([t.level_hi for t in trees]),
        )
        n = len(self.mass)
        # cell indices are below 2**level_hi <= 2**47: their
        # Morton codes rank through one 48-bit word per 24 bits of index,
        # the high bits first
        low = (1 << 24) - 1
        shifts = range(24 * (max(self.levels - 2, 0) // 24), -1, -24)
        parts = _spread(np.stack([(c >> s) & low for s in shifts for c in (self.ix, self.iy)]))
        self.rank = np.empty(n, np.int64)
        self.rank[np.lexsort(((parts[0::2] << 1) | parts[1::2])[::-1])] = np.arange(n)
        self.owner = np.repeat(np.arange(len(sizes)), sizes)
        key = self.owner * n + self.rank
        self.by_code = np.argsort(key)
        self.code_key = key[self.by_code]

    @cached_property
    def _diagonal_cost(self) -> np.ndarray:
        """Each point's cost of going to the diagonal whole: its
        multiplicity times its distance to the diagonal."""
        return self.mass * self.trees[0].ground_metric.diagonal_distances(self.coords)

    def __len__(self) -> int:
        return len(self.start) - 1

    def distances(
        self, first, second, methods: Sequence[str] = ("flowtree", "embedding")
    ) -> dict[str, list[float]]:
        """The tree distances of the pairs (diagram first[p], diagram
        second[p]), by each method, from walks of many pairs at once.

        Each pair's flowtree distance is its matching's cost in the ground
        metric, one math.fsum over its own pairs: flowtree_distance on its
        tree, bit for bit. Its embedding distance is the sum over levels k
        of side(k) * r_k, r_k being the pair's mass the walk leaves
        unmatched after level k (see the module docstring), formed on its
        tree as root_side * sum(r_k * 2**k) / 2**level_hi in Python ints
        and rounded once. Both costs are read from the same matchings
        (_matchings).

        Raises TypeError unless every index is an integer, IndexError unless
        it lies in range(len(self)), and ValueError if a pair's diagrams lie
        on different trees or a method is not flowtree or embedding.
        """
        unknown = set(methods) - {"flowtree", "embedding"}
        if unknown:
            raise ValueError(f"unknown tree method {sorted(unknown)[0]!r}")
        first, second = (np.asarray(a).reshape(-1) for a in (first, second))
        if len(first) != len(second):
            raise ValueError("first and second must hold one index per pair")
        if len(first) and {first.dtype.kind, second.dtype.kind} - {"i", "u"}:
            raise TypeError(f"diagram indices must be integers, got {first.dtype}, {second.dtype}")
        first, second = first.astype(np.int64), second.astype(np.int64)
        both = np.concatenate((first, second))
        if len(both) and not 0 <= both.min() <= both.max() < len(self):
            raise IndexError(f"diagram indices must lie in range({len(self)})")
        if (self.tree_of[first] != self.tree_of[second]).any():
            raise ValueError("the diagrams of a pair must share a tree")

        costs: dict[str, list[float]] = {method: [] for method in methods}
        scales = []
        for tree in self.trees:
            p, q = float(tree.root_side).as_integer_ratio()
            scales.append((p, q << tree.level_hi))
        for walk in _matchings(self, first, second, "flowtree" in costs):
            if walk.pairs is not None:
                # each job's products: its retired rows', then its walked pairs'
                point, partner, job, pair_mass, _ = walk.pairs
                products = self._diagonal_cost[walk.retired]
                walked = pair_mass * _pair_distances(self, point, partner)
                ends = np.cumsum(walk.retired_count).tolist()
                walked_ends = np.cumsum(np.bincount(job, minlength=walk.hi - walk.lo)).tolist()
                costs["flowtree"].extend(
                    math.fsum(chain(products[a:b].tolist(), walked[c:d].tolist()))
                    for a, b, c, d in zip([0, *ends], ends, [0, *walked_ends], walked_ends)
                )
            if "embedding" in costs:
                job_trees = self.tree_of[first[walk.lo : walk.hi]].tolist()
                for t, column in zip(job_trees, walk.residual.T.tolist()):
                    p, scale = scales[t]
                    costs["embedding"].append(
                        p * sum(r << k for k, r in enumerate(column)) / scale
                    )
        return costs

    def flowtree_row(self, i: int, js: Sequence[int]) -> list[float]:
        """[flowtree_distance(tree, diagram i, diagram j) for j in js], bit
        for bit: distances of the pairs (i, j). Raises TypeError unless i
        and every j are integers, IndexError unless they lie in
        range(len(self)), and ValueError unless they share i's tree."""
        return self.distances(*self._row(i, js), ("flowtree",))["flowtree"]

    def embedding_row(self, i: int, js: Sequence[int]) -> list[float]:
        """The embedding distance from diagram i to each diagram of js:
        distances of the pairs (i, j). Raises as flowtree_row does."""
        return self.distances(*self._row(i, js), ("embedding",))["embedding"]

    def _row(self, i: int, js: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """The pairs (i, j) for j in js, as distances takes them."""
        i = operator.index(i)
        if not 0 <= i < len(self):
            raise IndexError(f"diagram indices must lie in range({len(self)})")
        js = np.asarray(js).reshape(-1)
        return np.full(len(js), i), js

    def _batches(self, first: np.ndarray, second: np.ndarray) -> list[tuple[int, int, int]]:
        """The jobs (first[p], second[p]) cut into consecutive setup chunks
        [lo, hi) for _matchings, as (lo, hi, mass), mass being the chunk's
        total multiplicity, a Python int. Unless it is a single job, a chunk
        holds at most _BATCH_ROWS rows and less than 2**63 multiplicity, so
        that its int64 cumulative masses cannot wrap (a single job's wrapped
        differences cancel); _matchings joins chunks into walks within the
        same limits, counting walked rows only."""
        start, totals = self.start, self.totals
        rows = (start[first + 1] - start[first] + start[second + 1] - start[second]).tolist()
        chunks, lo, mass, size = [], 0, 0, 0
        for k, (a, b, job_rows) in enumerate(zip(first.tolist(), second.tolist(), rows)):
            job_mass = totals[a] + totals[b]
            if k > lo and (mass + job_mass >= 1 << 63 or size + job_rows > _BATCH_ROWS):
                chunks.append((lo, k, mass))
                lo, mass, size = k, 0, 0
            mass += job_mass
            size += job_rows
        return chunks + [(lo, len(first), mass)] if len(first) else []

    def _meet_levels(self, point: np.ndarray, other: np.ndarray) -> np.ndarray:
        """How many levels above the finest the cell of each given point
        first holds a point of diagram other[i], on the same tree; MAX_LEVELS
        if none does.

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


class _Rows(NamedTuple):
    """Rows of the jobs of a setup chunk or a walk, in row order, job being
    the index of a row's job among all jobs: each retired row's job and
    point, and each walked row's job, point in the placement, whether it is
    a point of the job's first diagram, and meet level."""

    retired_job: np.ndarray
    retired: np.ndarray
    job: np.ndarray
    point: np.ndarray
    from_first: np.ndarray
    meet: np.ndarray


class _Walk(NamedTuple):
    """What one walk matched for the jobs [lo, hi), job by job.

    retired holds the points of the jobs' retired rows, in row order, each
    paired whole with the diagonal at its terminal level, and retired_count
    each job's number of them. pairs are the (point, partner, job, mass,
    level) arrays of the pairs the walk made, job counting from lo, by job
    and each job's in the order the walk made them (see _walk), or None if
    the caller reads no pairs. residual[k, p] is job lo + p's mass left
    unmatched after level k, retired rows included, exact in uint64.
    """

    lo: int
    hi: int
    retired: np.ndarray
    retired_count: np.ndarray
    pairs: tuple | None
    residual: np.ndarray


def _chunk(placed: PlacedDiagrams, first: np.ndarray, second: np.ndarray, lo: int, hi: int):
    """The _Rows of the jobs (diagram first[p], diagram second[p]) for p in
    [lo, hi).

    Rows stack the jobs' points job-major: job p's points of diagram
    first[p], then those of diagram second[p], each side in lexicographic
    order. A row whose terminal level comes at or before its meet level is
    retired: it can meet no point of the other diagram before it goes to
    the diagonal (see the module docstring). The meet levels are searched
    with each side's points in Morton order, by_code's order, so that the
    keys ascend along each side, and scattered back to row order.
    """
    first, second = first[lo:hi], second[lo:hi]
    start = placed.start
    n_first = start[first + 1] - start[first]
    sizes = n_first + start[second + 1] - start[second]
    job = np.repeat(np.arange(hi - lo), sizes)
    within = np.arange(sizes.sum()) - np.repeat(sizes.cumsum() - sizes, sizes)
    from_first = within < n_first[job]
    point = within + np.where(from_first, start[first][job], (start[second] - n_first)[job])
    # by_code[start[d] + i] is diagram d's i-th point in Morton order; a
    # side's rows hold consecutive points, so point coded[r] is in row
    # r + coded[r] - point[r]
    coded = placed.by_code[point]
    found = placed._meet_levels(coded, np.where(from_first, second[job], first[job]))
    meet = np.empty_like(found)
    meet[np.arange(len(point)) + coded - point] = found
    walked = meet < placed.terminal_level[point]
    retired = (~walked).nonzero()[0]
    walked = walked.nonzero()[0]
    job += lo
    return _Rows(
        job[retired], point[retired], job[walked], point[walked], from_first[walked], meet[walked]
    )


def _matchings(
    placed: PlacedDiagrams, first: np.ndarray, second: np.ndarray, pairs: bool = True
) -> Iterator[_Walk]:
    """The greedy matchings of the jobs (diagram first[p], diagram
    second[p]), each on its diagrams' tree, as one _Walk per walk, in job
    order; unless pairs is set, the walks form no pair.

    The jobs are stacked in the setup chunks of PlacedDiagrams._batches.
    The rows of consecutive whole chunks go to one walk, as long as it
    holds at most _BATCH_ROWS walked rows and less than 2**63 multiplicity,
    or is one chunk.
    """
    parts: list[_Rows] = []
    lo = mass = rows = 0
    for start, hi, chunk_mass in placed._batches(first, second):
        chunk = _chunk(placed, first, second, start, hi)
        mass, rows = mass + chunk_mass, rows + len(chunk.job)
        if parts and (mass >= 1 << 63 or rows > _BATCH_ROWS):
            yield _walk(placed, lo, start, parts, pairs)
            lo, mass, rows = start, chunk_mass, len(chunk.job)
        parts.append(chunk)
    if parts:
        yield _walk(placed, lo, len(first), parts, pairs)


def _walk(placed: PlacedDiagrams, lo: int, hi: int, parts: list[_Rows], pairs: bool) -> _Walk:
    """The level sweep of the jobs [lo, hi), each on its diagrams' tree,
    over the walked rows of parts, each with its multiplicity as mass.
    Empties parts, so that the walk holds the rows once.

    Each job is matched exactly as if walked alone: its points never share a
    cell with another job's, and a job on a tree shallower than
    placed.levels is done at its own root.

    A job's residual after a level is the mass its rows have left then,
    retired rows included; it is 0 from the job's root on, where every row
    is terminal. If pairs is set, the walk's pairs are made level by level,
    each level's diagonal pairs by row, then its cross pairs in walk order,
    and sorted by job stably. point and partner index placed's points
    (partner -1 for a diagonal pair).
    """
    levels, jobs = placed.levels, hi - lo
    # each job's retired rows and the mass it retires at every level, part
    # by part, so that the temporaries of the many retired rows stay small
    retiring = np.zeros((levels, jobs), np.uint64)
    retired_count = np.zeros(jobs, np.int64)
    for part in parts:
        job, mass = part.retired_job - lo, placed.mass[part.retired].astype(np.uint64)
        retired_count += np.bincount(job, minlength=jobs)
        np.add.at(retiring.reshape(-1), placed.terminal_level[part.retired] * jobs + job, mass)
    # the retired mass still unmatched after every level; each level adds the
    # mass the walked rows have left
    residual = np.zeros((levels, jobs), np.uint64)
    residual[:-1] = np.cumsum(retiring[:0:-1], axis=0)[::-1]
    retired = np.concatenate([part.retired for part in parts])
    job, point, from_first, meet = (np.concatenate(c) for c in zip(*(p[2:] for p in parts)))
    parts.clear()
    # the row where each job with walked rows begins, and those jobs numbered densely
    job_starts = np.concatenate(([0], np.flatnonzero(job[1:] != job[:-1]) + 1))[: len(job)]
    job_ends = np.concatenate((job_starts[1:], [len(job)]))
    dense = np.repeat(np.arange(len(job_starts)), job_ends - job_starts)
    walked_jobs = job[job_starts] - lo
    mass = placed.mass[point]
    # each job's mass left, exact: masses are non-negative, a job's total below 2**64
    live = np.add.reduceat(mass.view(np.uint64), job_starts)
    # the dense job index above the x cell index: the packed (job, x) key of
    # a row's cell on level k is cell_x >> k, ordered like the tuple and
    # below 2**(job_bits + levels - 1 - k) <= 2**60, since a walk holds at
    # most _BATCH_ROWS jobs with walked rows, or one job
    cell_x = (dense << (levels - 1)) + placed.ix[point]
    iy = placed.iy[point]
    job_bits = (len(walked_jobs) - 1).bit_length()
    terminal = placed.terminal_level[point]
    no_partner = np.full(len(mass), -1)
    # an empty first entry, for walks without rows
    made = [(no_partner[:0], no_partner[:0], mass[:0], 0)]
    for level in range(levels):
        if not live.any():
            break
        rows = ((terminal == level) & (mass > 0)).nonzero()[0]
        if pairs:
            made.append((rows, no_partner[: len(rows)], mass[rows], level))
        mass[rows] = 0
        # the live rows at or past their meet level, in row order
        rows = ((meet <= level) & (mass > 0)).nonzero()[0]
        if len(rows):
            # sort by (job, cell); within a cell first's points precede
            # second's, each side in lexicographic order
            bits = levels - 1 - level
            order, cell_starts = group_cells(
                cell_x[rows] >> level, iy[rows] >> level, job_bits + bits, bits
            )
            rows = rows[order]
            side = from_first[rows]
            left, begin, end = _cell_match(mass[rows], cell_starts, side)
            if pairs:
                a, b, take = _cross_walk(begin, end, side)
                made.append((rows[a], rows[b], take, level))
            mass[rows] = left
        live = np.add.reduceat(mass.view(np.uint64), job_starts)
        residual[level, walked_jobs] += live
    if not pairs:
        return _Walk(lo, hi, retired, retired_count, None, residual)

    rows, partners, masses, levels_of = zip(*made)
    row = np.concatenate(rows)
    # the smallest unsigned type: a stable sort of it is a radix sort
    order = np.argsort(dense[row].astype(np.min_scalar_type(len(walked_jobs))), kind="stable")
    row, partner = row[order], np.concatenate(partners)[order]
    level = np.repeat(levels_of, [len(r) for r in rows])[order]
    partner = np.where(partner >= 0, point[partner], -1)
    made = (point[row], partner, job[row] - lo, np.concatenate(masses)[order], level)
    return _Walk(lo, hi, retired, retired_count, made, residual)


def _pair_distances(placed: PlacedDiagrams, point, partner) -> np.ndarray:
    """Per-unit distance of every matched pair under the trees' metric."""
    coords, metric = placed.coords, placed.trees[0].ground_metric
    distance = metric.diagonal_distances(coords[point])
    cross = partner >= 0
    a, b = point[cross], partner[cross]
    xs, ys = coords[:, 0], coords[:, 1]
    distance[cross] = metric.combine(xs[a] - xs[b], ys[a] - ys[b])
    return distance


def greedy_match(
    tree: ShiftedQuadtree, first: PersistenceDiagram, second: PersistenceDiagram
) -> AugmentedMatching:
    """Bottom-up greedy augmented matching of two diagrams on one tree,
    costed under tree.ground_metric.

    Deterministic given (tree, first, second); swapping the diagrams yields
    the mirrored pair multiset at identical cost. Runs in
    O((|first| + |second|) * levels) plus, per level, a sort of the points
    that can still be cross-matched there; PlacedDiagrams.distances shares
    each level's array operations among many jobs.

    Pair order: level by level, finest first. Within level k come first the
    points sent to the diagonal at their terminal level, by their cell one
    level down, (ix >> (k - 1), iy >> (k - 1)), then by point (at the finest
    level by point alone); then the cross pairs, in walk order.
    """
    placed = PlacedDiagrams(tree, (first, second))
    (walk,) = _matchings(placed, np.array([0]), np.array([1]))
    point, partner, _, pair_mass, level = walk.pairs
    retired = walk.retired
    point = np.concatenate((retired, point))
    partner = np.concatenate((np.full(len(retired), -1), partner))
    pair_mass = np.concatenate((placed.mass[retired], pair_mass))
    level = np.concatenate((placed.terminal_level[retired], level))
    # a stable sort: pairs with equal keys keep their order, the retired
    # rows' diagonal pairs first, by row. The two kinds of diagonal pairs of
    # a level never share a cell one level down: a walked row's cell there
    # holds a point of the other diagram, so a retired row in it would have
    # met that point. On the finest level every diagonal pair is retired.
    terminal = (partner < 0) & (level > 0)
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
        level_residuals=list(zip(tree.levels(), walk.residual[:, 0].tolist())),
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
    and reduces the per-tree estimates by mean (math.fsum) or min. The pair
    is placed on every tree and walked once per tree in one sweep
    (PlacedDiagrams.distances): flowtree reads each tree's greedy_match
    cost, bit for bit, embedding the same walk's exact sum of side *
    residual, rounded once. Returns the estimate and one tree.meta() dict
    per seed. Two empty diagrams give (0.0, []) without building a tree.
    `dgmdist dist` prints exactly this result.
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
    trees = [geometry.tree(TreeConfig(seed=seed, ground_metric=metric)) for seed in seeds]
    placed = PlacedDiagrams([t for t in trees for _ in "ab"], [first, second] * len(trees))
    pairs = 2 * np.arange(len(trees))
    values = placed.distances(pairs, pairs + 1, (method,))[method]
    tree_meta = [tree.meta() for tree in trees]
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
