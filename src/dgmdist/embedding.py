"""Sparse level-weighted cell-count vectors and their L1 distance.

A diagram maps to one coordinate per occupied, non-terminal quadtree cell,
valued at (cell side) * (point count with multiplicity). Cells meeting the
diagonal are dropped, which makes the plain L1 distance between two such
vectors the tree-metric transport cost with diagonal absorption. A vector is
a sorted (level, ix, iy) int64 array with a parallel value array; the
distance groups the two vectors' cells in one sort and sums the absolute
differences exactly with math.fsum.
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


@dataclass
class EmbeddingVector:
    """Sparse embedding bound to one tree via its signature.

    cells holds (level, ix, iy) rows in lexicographic order and values the
    matching side*count coordinates; zero values and terminal cells never
    appear.
    """

    tree_signature: str
    cells: np.ndarray
    values: np.ndarray
    total_mass: int | None = None

    def __len__(self) -> int:
        return len(self.values)


def embed(tree: ShiftedQuadtree, diagram: PersistenceDiagram) -> EmbeddingVector:
    """Embed a diagram on a tree built over a superset of its points."""
    mults = diagram.multiplicities()
    cells, values = [], []
    for level, side, ix, iy, terminal in tree.level_pass(diagram.coords()):
        keep = ~terminal
        ix, iy = ix[keep], iy[keep]
        order, starts = group_rows(ix, iy)
        first = order[starts]
        cells.append(
            np.column_stack((np.full(len(first), level, np.int64), ix[first], iy[first]))
        )
        values.append(side * np.add.reduceat(mults[keep][order], starts))
    return EmbeddingVector(
        tree_signature=tree.signature,
        cells=np.concatenate(cells),
        values=np.concatenate(values),
        total_mass=diagram.total_count,
    )


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
