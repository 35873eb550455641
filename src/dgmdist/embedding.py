"""Sparse level-weighted cell-count vectors, their L1 distance, and an index
for one-vs-many L1 queries.

A diagram maps to one coordinate per occupied, non-terminal quadtree cell,
valued at (cell side) * (point count with multiplicity). Cells meeting the
diagonal are dropped, which makes the plain L1 distance between two such
vectors the tree-metric transport cost with diagonal absorption. A vector is
a sorted (level, ix, iy) int64 array with a parallel value array; the
distance groups the two vectors' cells in one sort and sums the absolute
differences exactly with math.fsum.

One private kernel, _cell_entries, embeds any number of stacked diagrams in
one level pass: each level sorts the non-terminal points of all of them by
cell once. embed runs it on one diagram; embed_all runs it on many and keeps
the result as an EmbeddingIndex, stored cell by cell.

EmbeddingIndex.l1_row(i, js) equals l1_distance(vector(i), vector(j)) for
each j bit for bit, at a cost of the cells i and j share:

- l1_distance returns math.fsum of the multiset M: q_j for each cell only q
  holds, c_j for each cell only c holds, and |fl(q_j - c_j)| for each shared
  cell. math.fsum rounds the exact sum of its inputs once, correctly.
- The index keeps, per diagram, an exact expansion E of its value sum: floats
  whose exact sum is the exact sum of the values. It is built by appending
  math.fsum(values - terms) to the terms until that returns 0.0 (two terms on
  typical inputs).
- E_q + E_c + [|fl(q_j - c_j)|, -q_j, -c_j for each shared cell j] has the
  exact sum of M: a shared cell's q_j and c_j, counted once in E_q and E_c,
  cancel exactly against -q_j and -c_j. Its math.fsum is the same real
  number rounded once, so the same float, and nothing is rounded before
  that sum: the |q| + |c| - 2 sum(min) cancellation never occurs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ._rows import group_rows
from .diagram import PersistenceDiagram
from .quadtree import MAX_LEVELS, ShiftedQuadtree


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
        as ShiftedQuadtree.level_pass defines it."""
        out = np.empty((len(ids), 3), np.int64)
        bounds = np.searchsorted(ids, self.level_start).tolist()
        for k, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            rep = self.rep[ids[a:b]]
            out[a:b, 0] = self.level_lo + k
            out[a:b, 1] = self.ix0[rep] >> k
            out[a:b, 2] = self.iy0[rep] >> k
        return out


def _cell_entries(tree: ShiftedQuadtree, coords, mults, owner=None):
    """The embedding entries of stacked diagrams, in one level pass.

    Rows of `coords` carry multiplicities `mults` and, for several diagrams,
    their diagram index `owner`, non-decreasing (None: one diagram). Each
    level groups its non-terminal points by cell in one stable sort, so the
    points of a cell stay in diagram order and each (cell, diagram) run of
    them is one entry, valued side * count.

    Returns the cells and each entry's value, cell by cell and in diagram
    order within a cell. One diagram's entries are its cells, returned as
    its vector's (level, ix, iy) rows, with None and None. Several diagrams'
    cells are returned as _Cells, one point per cell, with each entry's
    diagram and the position of each cell's first entry followed by the
    entry count.
    """
    # a point adds at most one cell and one entry per level: arrays of that
    # bound are filled in place and cut to size at the end, so only pages
    # written to are ever resident. One diagram's cell rows are joined from
    # per-level pieces instead: spelling them out from _Cells afterwards
    # measured about 1 MB more peak memory on perfbench's dist-uniform
    bound = len(coords) * tree.num_levels
    position = np.int32 if bound < 2**31 else np.int64
    values = np.empty(bound)
    if owner is None:
        rows = []
    else:
        reps, owners = np.empty(bound, position), np.empty(bound, owner.dtype)
        firsts = np.empty(bound + 1, position)
    level_start = [0]
    count = 0
    for level, side, ix, iy, terminal in tree.level_pass(coords):
        if level == tree.level_lo:
            ix0, iy0 = ix, iy
        live = np.flatnonzero(~terminal)
        order, starts = group_rows(ix[live], iy[live])
        live = live[order]
        cell, end = level_start[-1], level_start[-1] + len(starts)
        level_start.append(end)
        runs = starts
        if owner is None:
            first = live[starts]
            rows.append(
                np.column_stack((np.full(len(first), level, np.int64), ix[first], iy[first]))
            )
        else:
            reps[cell:end] = live[starts]
            own = owner[live]
            split = np.zeros(len(own), bool)
            split[starts] = True
            split[1:] |= own[1:] != own[:-1]
            runs = np.flatnonzero(split)
            owners[count : count + len(runs)] = own[runs]
            firsts[cell:end] = count + np.searchsorted(runs, starts)
        values[count : count + len(runs)] = side * np.add.reduceat(mults[live], runs)
        count += len(runs)
    values.resize(count, refcheck=False)
    if owner is None:
        return np.concatenate(rows), values, None, None
    reps.resize(level_start[-1], refcheck=False)
    owners.resize(count, refcheck=False)
    firsts[level_start[-1]] = count
    firsts.resize(level_start[-1] + 1, refcheck=False)
    return _Cells(tree.level_lo, level_start, reps, ix0, iy0), values, owners, firsts


def embed(tree: ShiftedQuadtree, diagram: PersistenceDiagram) -> EmbeddingVector:
    """Embed a diagram on a tree built over a superset of its points."""
    cells, values, _, _ = _cell_entries(tree, diagram.coords(), diagram.multiplicities())
    return EmbeddingVector(
        tree_signature=tree.signature,
        cells=cells,
        values=values,
        total_mass=diagram.total_count,
    )


def _exact_sum(values: list[float]) -> list[float]:
    """Floats whose exact sum is the exact sum of values."""
    terms: list[float] = []
    while (rest := math.fsum(values + [-t for t in terms])) != 0.0:
        terms.append(rest)
    return terms


@dataclass(eq=False)
class EmbeddingIndex:
    """The embeddings of several diagrams on one tree, stored cell by cell.

    `cells` numbers every occupied non-terminal cell once. The entries of
    cell c lie at positions cell_start[c]:cell_start[c + 1] of `owner`
    (their diagram, increasing) and `values`. positions[i] lists diagram
    i's entry positions in cell order, sums[i] is the exact expansion of
    its value sum (see the module docstring) and total_masses[i] its total
    multiplicity.
    """

    tree_signature: str
    cells: _Cells
    cell_start: np.ndarray
    owner: np.ndarray
    values: np.ndarray
    positions: list[np.ndarray]
    sums: list[list[float]]
    total_masses: list[int]

    def __len__(self) -> int:
        return len(self.total_masses)

    def _entries(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Diagram i's entry positions and their cell ids, in cell order."""
        mine = self.positions[i]
        return mine, np.searchsorted(self.cell_start, mine, side="right") - 1

    def vector(self, i: int) -> EmbeddingVector:
        """Diagram i's embedding, == to embed(tree, diagram i)."""
        mine, cell = self._entries(i)
        return EmbeddingVector(
            tree_signature=self.tree_signature,
            cells=self.cells.rows(cell),
            values=self.values[mine],
            total_mass=self.total_masses[i],
        )

    def l1_row(self, i: int, js: Sequence[int]) -> list[float]:
        """[l1_distance(self.vector(i), self.vector(j)) for j in js], bit for
        bit, summed from the exact sums and the cells i shares with each j.
        Raises IndexError unless every j lies in range(len(self))."""
        js = np.asarray(js, dtype=np.int64).reshape(-1)
        if len(js) and not (0 <= js.min() and js.max() < len(self)):
            raise IndexError(f"diagram indices must lie in range({len(self)})")
        mine, cell = self._entries(i)
        first = self.cell_start[cell]
        counts = self.cell_start[cell + 1] - first
        # every entry of every cell of diagram i, its own entries included
        pos = np.arange(counts.sum()) + np.repeat(first - (np.cumsum(counts) - counts), counts)
        owner = self.owner[pos]
        order = np.argsort(owner, kind="stable")
        owner = owner[order]
        q = np.repeat(self.values[mine], counts)[order]
        c = self.values[pos[order]]
        terms = np.column_stack((np.abs(q - c), -q, -c))
        lo = np.searchsorted(owner, js, side="left").tolist()
        hi = np.searchsorted(owner, js, side="right").tolist()
        own = self.sums[i]
        return [
            math.fsum(own + self.sums[j] + terms[a:b].ravel().tolist())
            for j, a, b in zip(js.tolist(), lo, hi)
        ]


def embed_all(tree: ShiftedQuadtree, diagrams: Sequence[PersistenceDiagram]) -> EmbeddingIndex:
    """Embed several diagrams on one tree (built over a superset of their
    points) in one level pass; index.vector(i) == embed(tree, diagrams[i])."""
    diagrams = list(diagrams)
    coords = np.concatenate([d.coords() for d in diagrams] + [np.zeros((0, 2))])
    mults = np.concatenate([d.multiplicities() for d in diagrams] + [np.zeros(0, np.int64)])
    # the smallest unsigned type: a stable sort of it is a radix sort
    owner = np.repeat(
        np.arange(len(diagrams), dtype=np.min_scalar_type(len(diagrams))),
        [len(d) for d in diagrams],
    )
    cells, values, entry_owner, cell_start = _cell_entries(tree, coords, mults, owner)
    positions = _positions_by_owner(entry_owner, len(diagrams), cell_start.dtype)
    return EmbeddingIndex(
        tree_signature=tree.signature,
        cells=cells,
        cell_start=cell_start,
        owner=entry_owner,
        values=values,
        positions=positions,
        sums=[_exact_sum(values[p].tolist()) for p in positions],
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
    """L1 distance between two embeddings of the same tree."""
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
    """Parse a vector file; raises ValueError for a malformed line or a cell
    no tree of at most MAX_LEVELS levels has."""
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
            level, ix, iy = int(fields[0]), int(fields[1]), int(fields[2])
            if not (0 <= level < MAX_LEVELS and 0 <= ix < limit and 0 <= iy < limit):
                raise ValueError(f"{path.name}: cell out of range at line {lineno}")
            cells.append((level, ix, iy))
            values.append(float(fields[3]))
    return EmbeddingVector(
        tree_signature=signature,
        cells=np.array(cells, dtype=np.int64).reshape(-1, 3),
        values=np.array(values, dtype=float),
    )
