"""Sparse level-weighted cell-count vectors and their L1 distance.

A diagram maps to one coordinate per occupied, non-terminal quadtree cell,
valued at (cell side) * (point count with multiplicity). A point stops
counting at its first cell meeting the diagonal, the level at which the
flowtree walk retires it, which makes the plain L1 distance between two
such vectors the tree-metric transport cost with diagonal absorption: on
one tree, the walk's sum of side * residual. A vector is a sorted (level,
ix, iy) int64 array with a parallel value array; embed builds one, level by
level, from one ShiftedQuadtree.place call.

The embedding distance itself is not read from vectors:
PlacedDiagrams.embedding_row (flowtree.py) reads it from the flowtree walk,
which keeps each pair's residual, the mass it leaves unmatched after every
level. Every unit is matched by the root, which meets the diagonal, so the
sum of side * residual is finite; it is formed exactly in Python ints and
rounded once.

l1_distance sums the absolute differences of two stored float vectors (as
read from .vec files) with math.fsum. Each stored value is already the
rounded product side * count, so it can differ from embedding_row's value
in the last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

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


def embed(tree: ShiftedQuadtree, diagram: PersistenceDiagram) -> EmbeddingVector:
    """Embed a diagram on a tree built over a superset of its points: on each
    level, its points whose terminal level lies above it, grouped by cell,
    give one entry per cell."""
    ix, iy, terminal_level = tree.place(diagram.coords())
    mults = diagram.multiplicities()
    cells, values = [np.zeros((0, 3), np.int64)], [np.zeros(0)]
    for level in tree.levels():
        live = np.flatnonzero(terminal_level > level)
        if not len(live):
            break
        x, y = ix[live] >> level, iy[live] >> level
        order, starts = group_rows(x, y)
        first = order[starts]
        cells.append(np.column_stack((np.full(len(first), level), x[first], y[first])))
        values.append(tree.side(level) * np.add.reduceat(mults[live][order], starts))
    return EmbeddingVector(
        tree_signature=tree.signature,
        cells=np.concatenate(cells),
        values=np.concatenate(values),
        total_mass=diagram.total_count,
    )


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
