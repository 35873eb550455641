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

from .diagram import PersistenceDiagram
from .quadtree import ShiftedQuadtree


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


def _sum_by_key(keys: np.ndarray, weights: np.ndarray):
    """Distinct rows of keys in lexicographic order, with summed weights.

    Rows with equal keys are summed in their input order.
    """
    if len(keys) == 0:
        return keys, weights
    order = np.lexsort(keys.T[::-1])
    keys, weights = keys[order], weights[order]
    starts = np.flatnonzero(np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)])
    return keys[starts], np.add.reduceat(weights, starts)


def embed(tree: ShiftedQuadtree, diagram: PersistenceDiagram) -> EmbeddingVector:
    """Embed a diagram on a tree built over a superset of its points."""
    mults = diagram.multiplicities()
    cells, values = [], []
    for level, side, ix, iy, terminal in tree.level_pass(diagram.coords()):
        keep = ~terminal
        cell, count = _sum_by_key(np.column_stack((ix[keep], iy[keep])), mults[keep])
        cells.append(np.column_stack((np.full(len(cell), level, np.int64), cell)))
        values.append(side * count)
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
    _, diffs = _sum_by_key(
        np.concatenate((a.cells, b.cells)), np.concatenate((a.values, -b.values))
    )
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
    path = Path(path)
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
            cells.append((int(fields[0]), int(fields[1]), int(fields[2])))
            values.append(float(fields[3]))
    return EmbeddingVector(
        tree_signature=signature,
        cells=np.array(cells, dtype=np.int64).reshape(-1, 3),
        values=np.array(values, dtype=float),
    )
