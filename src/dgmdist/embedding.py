"""Sparse level-weighted cell-count vectors, their L1 distance, and an index
for one-vs-many L1 queries.

A diagram maps to one coordinate per occupied, non-terminal quadtree cell,
valued at (cell side) * (point count with multiplicity). A point stops
counting at its first cell meeting the diagonal, the level at which the
flowtree walk retires it, which makes the plain L1 distance between two
such vectors the tree-metric transport cost with diagonal absorption: on
one tree, the walk's sum of side * residual. A vector is a sorted (level,
ix, iy) int64 array with a parallel value array.

One private kernel, _cell_entries, embeds any number of stacked diagrams
from one ShiftedQuadtree.place call: each level sorts the points of all of
them still counted by cell once and keeps each (cell, diagram) entry's
integer count. embed_all stores the result as an EmbeddingIndex, and embed
is a one-diagram index's vector.

EmbeddingIndex.l1_row gives the embedding distance of two diagrams from
integer counts alone. On the level k above the finest, the L1 distance of
their counts is N_k = S_i + S_j - 2 M_k, with S a diagram's count sum on
the level and M_k the sum of min(count_i, count_j) over the cells both
occupy there. The cell side there is root_side * 2**(k - top), top the
root's k, so the distance is root_side * sum_k(2**k * N_k) / 2**top: one
exact rational, formed in Python ints and rounded once by their correctly
rounded true division. The index keeps each diagram's sum_k(2**k * S) as
one int and gathers the M_k from the cells diagram i shares.

l1_distance sums the absolute differences of two stored float vectors (as
read from .vec files) with math.fsum. Each stored value is already the
rounded product side * count, so it can differ from the index's value in
the last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ._rows import group_rows
from .diagram import PersistenceDiagram
from .quadtree import MAX_LEVELS, ShiftedQuadtree, union_coords


class TreeMismatchError(ValueError):
    """Vectors from different trees were compared."""


@dataclass(eq=False)
class EmbeddingVector:
    """Sparse embedding bound to one tree via its signature.

    cells holds (level, ix, iy) rows in lexicographic order and values the
    matching side*count coordinates; zero values and terminal cells never
    appear. Two vectors are == when all four fields are equal.
    """

    tree_signature: str
    cells: np.ndarray
    values: np.ndarray
    total_mass: int | None = None

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmbeddingVector):
            return NotImplemented
        return (
            self.tree_signature == other.tree_signature
            and self.total_mass == other.total_mass
            and np.array_equal(self.cells, other.cells)
            and np.array_equal(self.values, other.values)
        )


@dataclass(frozen=True, eq=False)
class _Cells:
    """The occupied non-terminal cells of several diagrams, numbered in
    (level, ix, iy) order.

    Cells level_start[k]:level_start[k + 1] lie on level level_lo + k, cell
    c holds point rep[c], and point p lies in cell (ix0[p], iy0[p]) of the
    finest level. A cell costs one point index instead of a (level, ix, iy)
    row until rows() spells it out.
    """

    level_lo: int
    level_start: list[int]
    rep: np.ndarray
    ix0: np.ndarray
    iy0: np.ndarray

    def rows(self, ids: np.ndarray) -> np.ndarray:
        """The (level, ix, iy) rows of increasing cell ids: the cell k levels
        above a point's finest cell is its finest index shifted right by k,
        as ShiftedQuadtree.place defines it."""
        out = np.empty((len(ids), 3), np.int64)
        bounds = np.searchsorted(ids, self.level_start).tolist()
        for k, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            rep = self.rep[ids[a:b]]
            out[a:b, 0] = self.level_lo + k
            out[a:b, 1] = self.ix0[rep] >> k
            out[a:b, 2] = self.iy0[rep] >> k
        return out


def _cell_entries(tree: ShiftedQuadtree, coords, mults, owner, n: int):
    """The embedding entries of stacked diagrams, from one placement.

    Rows of `coords` carry multiplicities `mults` and their diagram index
    `owner`, non-decreasing and below n. Each level groups the points whose
    terminal level lies above it by cell in one stable sort, so the points
    of a cell stay in diagram order and each (cell, diagram) run of them is
    one entry, holding the run's integer point count.

    Returns the cells as _Cells, one point per cell; each entry's count and
    diagram, cell by cell and in diagram order within a cell; the position
    of each cell's first entry followed by the entry count; and each
    diagram's count sum per level, as a levels x diagrams int64 array.
    """
    # a point adds at most one cell and one entry per level: arrays of that
    # bound are filled in place and cut to size at the end, so only pages
    # written to are ever resident
    bound = len(coords) * tree.num_levels
    position = np.int32 if bound < 2**31 else np.int64
    counts = np.empty(bound, np.int64)
    reps, owners = np.empty(bound, position), np.empty(bound, owner.dtype)
    firsts = np.empty(bound + 1, position)
    level_sums = np.zeros((tree.num_levels, n), np.int64)
    level_start = [0]
    count = 0
    ix0, iy0, terminal_level = tree.place(coords)
    for k, level in enumerate(tree.levels()):
        live = np.flatnonzero(terminal_level > level)  # in row order
        order, starts = group_rows(ix0[live] >> k, iy0[live] >> k)
        rows = live[order]
        cell, end = level_start[-1], level_start[-1] + len(starts)
        level_start.append(end)
        reps[cell:end] = rows[starts]
        own = owner[rows]
        split = np.zeros(len(own), bool)
        split[starts] = True
        split[1:] |= own[1:] != own[:-1]
        runs = np.flatnonzero(split)
        entries = slice(count, count + len(runs))
        owners[entries] = own[runs]
        counts[entries] = np.add.reduceat(mults[rows], runs)
        np.add.at(level_sums[k], owners[entries], counts[entries])
        firsts[cell:end] = count + np.searchsorted(runs, starts)
        count += len(runs)
    counts.resize(count, refcheck=False)
    reps.resize(level_start[-1], refcheck=False)
    owners.resize(count, refcheck=False)
    firsts[level_start[-1]] = count
    firsts.resize(level_start[-1] + 1, refcheck=False)
    cells = _Cells(tree.level_lo, level_start, reps, ix0, iy0)
    return cells, counts, owners, firsts, level_sums


def embed(tree: ShiftedQuadtree, diagram: PersistenceDiagram) -> EmbeddingVector:
    """Embed a diagram on a tree built over a superset of its points."""
    return embed_all(tree, [diagram]).vector(0)


@dataclass(eq=False)
class EmbeddingIndex:
    """The embeddings of several diagrams on one tree, stored cell by cell.

    `cells` numbers every occupied non-terminal cell once. The entries of
    cell c lie at positions cell_start[c]:cell_start[c + 1] of `owner`
    (their diagram, increasing) and `counts` (their point count with
    multiplicity). positions[i] lists diagram i's entry positions in cell
    order and total_masses[i] its total multiplicity. sides[k] is the cell
    side k levels above the finest, and weights[i] the exact int
    sum_k(2**k * S), S diagram i's count sum on that level.
    """

    tree_signature: str
    cells: _Cells
    cell_start: np.ndarray
    owner: np.ndarray
    counts: np.ndarray
    positions: list[np.ndarray]
    sides: np.ndarray
    weights: list[int]
    total_masses: list[int]

    def __len__(self) -> int:
        return len(self.total_masses)

    def _entries(self, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Diagram i's entry positions, their cell ids and the number of
        levels those cells lie above the finest, in cell order."""
        if not 0 <= i < len(self):
            raise IndexError(f"diagram indices must lie in range({len(self)})")
        mine = self.positions[i]
        cell = np.searchsorted(self.cell_start, mine, side="right") - 1
        return mine, cell, np.searchsorted(self.cells.level_start, cell, side="right") - 1

    def vector(self, i: int) -> EmbeddingVector:
        """Diagram i's embedding: its cells, valued side * count."""
        mine, cell, k = self._entries(i)
        return EmbeddingVector(
            tree_signature=self.tree_signature,
            cells=self.cells.rows(cell),
            values=self.sides[k] * self.counts[mine],
            total_mass=self.total_masses[i],
        )

    def l1_row(self, i: int, js: Sequence[int]) -> list[float]:
        """The embedding distance from diagram i to each diagram of js: the
        exact tree cost of their counts (see the module docstring), rounded
        once, at a cost of the cells i shares with each j. Raises IndexError
        unless i and every j lie in range(len(self))."""
        js = np.asarray(js, dtype=np.int64).reshape(-1)
        if len(js) and not (0 <= js.min() and js.max() < len(self)):
            raise IndexError(f"diagram indices must lie in range({len(self)})")
        mine, cell, level = self._entries(i)
        first = self.cell_start[cell]
        sizes = self.cell_start[cell + 1] - first
        # every entry of every cell of diagram i, its own entries included,
        # ordered by diagram and, as i's cells are, by level within one
        pos = np.arange(sizes.sum()) + np.repeat(first - (np.cumsum(sizes) - sizes), sizes)
        order = np.argsort(self.owner[pos], kind="stable")
        pos = pos[order]
        owner = self.owner[pos]
        level = np.repeat(level, sizes)[order]
        shared = np.minimum(np.repeat(self.counts[mine], sizes)[order], self.counts[pos])
        split = np.ones(len(pos), bool)
        split[1:] = (owner[1:] != owner[:-1]) | (level[1:] != level[:-1])
        runs = np.flatnonzero(split)
        # overlap[j] = sum_k(2**k * M), M the sum of min(count_i, count_j)
        # over the cells i and j share on level k: an int64 sum bounded by
        # j's count sum, weighted exactly in Python ints
        overlap: dict[int, int] = {}
        for j, k, m in zip(
            owner[runs].tolist(), level[runs].tolist(), np.add.reduceat(shared, runs).tolist()
        ):
            overlap[j] = overlap.get(j, 0) + (m << k)
        p, q = float(self.sides[-1]).as_integer_ratio()
        scale = q << (len(self.sides) - 1)
        own = self.weights[i]
        return [
            p * (own + self.weights[j] - 2 * overlap.get(j, 0)) / scale
            for j in js.tolist()
        ]


def embed_all(tree: ShiftedQuadtree, diagrams: Sequence[PersistenceDiagram]) -> EmbeddingIndex:
    """Embed several diagrams on one tree (built over a superset of their
    points) from one placement; index.vector(i) == embed(tree, diagrams[i])."""
    diagrams = list(diagrams)
    coords = union_coords(diagrams)
    mults = np.concatenate([d.multiplicities() for d in diagrams] + [np.zeros(0, np.int64)])
    # the smallest unsigned type: a stable sort of it is a radix sort
    owner = np.repeat(
        np.arange(len(diagrams), dtype=np.min_scalar_type(len(diagrams))),
        [len(d) for d in diagrams],
    )
    cells, counts, entry_owner, cell_start, level_sums = _cell_entries(
        tree, coords, mults, owner, len(diagrams)
    )
    return EmbeddingIndex(
        tree_signature=tree.signature,
        cells=cells,
        cell_start=cell_start,
        owner=entry_owner,
        counts=counts,
        positions=_positions_by_owner(entry_owner, len(diagrams), cell_start.dtype),
        sides=np.array([tree.side(level) for level in tree.levels()]),
        weights=[sum(s << k for k, s in enumerate(col)) for col in level_sums.T.tolist()],
        total_masses=[d.total_count for d in diagrams],
    )


def _positions_by_owner(owner: np.ndarray, n: int, position) -> list[np.ndarray]:
    """The positions of each of owner's n values, increasing: a stable
    argsort of owner split by value, taken 2**14 entries at a time so that
    no int64 array as long as owner is made."""
    pieces: list[list[np.ndarray]] = [[] for _ in range(n)]
    block = 1 << 14
    for lo in range(0, len(owner), block):
        chunk = owner[lo : lo + block]
        order = (np.argsort(chunk, kind="stable") + lo).astype(position)
        bounds = np.concatenate(([0], np.cumsum(np.bincount(chunk, minlength=n)))).tolist()
        for piece, a, b in zip(pieces, bounds[:-1], bounds[1:]):
            piece.append(order[a:b])
    return [np.concatenate(piece + [np.zeros(0, position)]) for piece in pieces]


def l1_distance(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """L1 distance between two embeddings of the same tree: math.fsum of
    the absolute differences of their stored values."""
    if a.tree_signature != b.tree_signature:
        raise TreeMismatchError(
            f"vectors come from different trees: "
            f"{a.tree_signature} vs {b.tree_signature}"
        )
    cells = np.concatenate((a.cells, b.cells))
    # (level, ix) packs into one exact integer since ix < 2**(MAX_LEVELS - 1)
    order, starts = group_rows((cells[:, 0] << (MAX_LEVELS - 1)) + cells[:, 1], cells[:, 2])
    values = np.concatenate((a.values, -b.values))
    diffs = np.add.reduceat(values[order], starts)
    return math.fsum(np.abs(diffs).tolist())


def write_vector(vector: EmbeddingVector, path) -> None:
    """Export format: signature header, then sorted "level ix iy value" lines."""
    path = Path(path)
    lines = [vector.tree_signature]
    lines.extend(
        f"{level} {ix} {iy} {v!r}"
        for (level, ix, iy), v in zip(vector.cells.tolist(), vector.values.tolist())
    )
    path.write_text("\n".join(lines) + "\n")


def read_vector(path) -> EmbeddingVector:
    """Parse a vector file; raises ValueError, naming the file and line, for
    a malformed line, a cell no tree of at most MAX_LEVELS levels has, a
    cell that repeats or breaks (level, ix, iy) order, or a value that is
    not a finite non-negative number."""
    path = Path(path)
    limit = 1 << (MAX_LEVELS - 1)
    with path.open() as fh:
        signature = fh.readline().strip()
        if not signature:
            raise ValueError(f"{path.name}: missing tree signature header")
        cells: list[tuple[int, int, int]] = []
        values: list[float] = []
        for lineno, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 4:
                raise ValueError(f"{path.name}: malformed entry at line {lineno}")
            try:
                cell = (int(fields[0]), int(fields[1]), int(fields[2]))
                value = float(fields[3])
            except ValueError:
                raise ValueError(f"{path.name}: malformed entry at line {lineno}") from None
            level, ix, iy = cell
            if not (0 <= level < MAX_LEVELS and 0 <= ix < limit and 0 <= iy < limit):
                raise ValueError(f"{path.name}: cell out of range at line {lineno}")
            if cells and cell <= cells[-1]:
                raise ValueError(f"{path.name}: cell repeated or out of order at line {lineno}")
            if not 0.0 <= value < math.inf:  # nan fails both comparisons
                raise ValueError(
                    f"{path.name}: value not finite and non-negative at line {lineno}"
                )
            cells.append(cell)
            values.append(value)
    return EmbeddingVector(
        tree_signature=signature,
        cells=np.array(cells, dtype=np.int64).reshape(-1, 3),
        values=np.array(values, dtype=float),
    )
