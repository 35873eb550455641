"""Reference oracles for the columnar implementations and the exact solver.

The first half holds pure-Python copies of the embedding (cell counts and
side * count values), the float L1 distance of two stored vectors, the
exact embedding distance of two diagrams and the greedy flowtree matching.
They address cells point by point with their own floor index formula and
terminal test and read only ``tree.origin``, ``tree.side()`` and
``tree.levels()``. The index is the
floor of the rounded quotient (x - origin) / side, as in the library;
Python's ``//`` on floats floors the exact quotient instead and can land one
cell lower when the rounded quotient is an integer.

Results use plain tuples: an embedding is a sorted list of
((level, ix, iy), value) or ((level, ix, iy), count), and a pair is
(source, target, mass, kind, level, distance).

Ground distances are computed here, not by ``GroundMetric``: point by point
in Python floats (``ground_distance``), or as a matrix by scipy's ``cdist``
(``ground_matrix``). Both follow the library's rule: cdist's float
operations, except that an L2 distance whose larger coordinate difference
reaches 2**511, where cdist's square can overflow, is ``math.hypot``'s.

The second half holds three exact-distance paths independent of
``exact_distance``: the dense (m+n)² projection-augmented assignment, a
brute-force enumerator over all partial matchings for tiny instances, and
optimal transport between the augmented sets under the unmodified ground
metric, which is within a factor 2 of the exact distance.

Then come two independent minimum separations for the tree's depth: a
brute force over every pair by ``ground_matrix``, and the scipy ``cKDTree``
query the library used before its own search, which shares cdist's L2
overflow.

The last part is the line-by-line diagram file parser the library used
before its bulk parse, kept frozen as the oracle for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from dgmdist.diagram import (
    _INT64_MAX,
    DiagramParseError,
    GroundMetric,
    InvalidPointError,
    PersistenceDiagram,
    _open_utf8,
)
from dgmdist.exact import DEFAULT_SIZE_CAP, SizeCapError


def _grid(tree, level):
    """(side, cells per axis) at a level."""
    side = tree.side(level)
    return side, int(tree.side(max(tree.levels())) / side)


def _cell(tree, x, y, side, n):
    ox, oy = tree.origin
    ix = min(int(math.floor((x - ox) / side)), n - 1)
    iy = min(int(math.floor((y - oy) / side)), n - 1)
    return ix, iy


def _terminal(tree, ix, iy, side):
    x0 = tree.origin[0] + ix * side
    y0 = tree.origin[1] + iy * side
    return x0 <= y0 + side and y0 <= x0 + side


def _check_inside(tree, points):
    ox, oy = tree.origin
    hi = tree.side(max(tree.levels()))
    for x, y in points:
        if not (ox <= x <= ox + hi and oy <= y <= oy + hi):
            raise ValueError(f"point ({x}, {y}) outside tree root")


def counts(tree, diagram):
    """Sorted ((level, ix, iy), count) entries of the clear cells. A point
    counts up to the level below its first cell that meets the diagonal;
    greedy_match sends it to the diagonal there."""
    points = [(p.birth, p.death, p.multiplicity) for p in diagram.points]
    _check_inside(tree, [(x, y) for x, y, _ in points])
    entries = []
    for level in tree.levels():
        side, n = _grid(tree, level)
        by_cell: dict[tuple[int, int], int] = {}
        live = []
        for x, y, m in points:
            cell = _cell(tree, x, y, side, n)
            if not _terminal(tree, *cell, side):
                by_cell[cell] = by_cell.get(cell, 0) + m
                live.append((x, y, m))
        points = live
        entries.extend(((level, ix, iy), count) for (ix, iy), count in sorted(by_cell.items()))
    return entries


def embed(tree, diagram):
    """Sorted ((level, ix, iy), side * count) entries of the clear cells."""
    return [(cell, tree.side(cell[0]) * count) for cell, count in counts(tree, diagram)]


def count_distance(tree, ca, cb):
    """Sum of side * |count difference| over the cells of two counts()
    lists, in exact Fraction arithmetic, rounded to float once."""
    diffs = dict(ca)
    for cell, count in cb:
        diffs[cell] = diffs.get(cell, 0) - count
    per_level: dict[int, int] = {}
    for (level, _, _), diff in diffs.items():
        per_level[level] = per_level.get(level, 0) + abs(diff)
    return float(sum(Fraction(tree.side(level)) * total for level, total in per_level.items()))


def embedding_cost(tree, first, second):
    """The embedding distance of two diagrams: side * |count difference|
    over the clear cells, summed exactly and rounded once."""
    return count_distance(tree, counts(tree, first), counts(tree, second))


def l1_distance(ea, eb):
    """Linear merge of two sorted entry lists."""
    diffs = []
    i = j = 0
    while i < len(ea) and j < len(eb):
        ka, va = ea[i]
        kb, vb = eb[j]
        if ka == kb:
            diffs.append(abs(va - vb))
            i += 1
            j += 1
        elif ka < kb:
            diffs.append(abs(va))
            i += 1
        else:
            diffs.append(abs(vb))
            j += 1
    diffs.extend(abs(v) for _, v in ea[i:])
    diffs.extend(abs(v) for _, v in eb[j:])
    return math.fsum(diffs)


def _diagonal_pair(x, y, mass, from_first, level, metric):
    mid = 0.5 * (x + y)
    dist = abs(y - x) * metric.diagonal_factor
    if from_first:
        return ((x, y), (mid, mid), mass, "p_to_diagonal", level, dist)
    return ((mid, mid), (x, y), mass, "q_to_diagonal", level, dist)


def greedy_match(tree, first, second, metric):
    """(pairs, cost, level_residuals, root_fallback) of the greedy matching.

    Each level buckets the live points by cell. A terminal cell sends all of
    them to the diagonal; any other cell pairs first's and second's points
    cross-wise, both walked in lexicographic order, and forwards the surplus.
    """
    p_live = [[p.birth, p.death, p.multiplicity] for p in first.points]
    q_live = [[p.birth, p.death, p.multiplicity] for p in second.points]
    _check_inside(tree, [(e[0], e[1]) for e in p_live + q_live])
    pairs = []
    residuals = []
    for level in tree.levels():
        side, n = _grid(tree, level)
        buckets: dict[tuple[int, int], tuple[list, list]] = {}
        for side_idx, entries in enumerate((p_live, q_live)):
            for e in entries:
                cell = _cell(tree, e[0], e[1], side, n)
                buckets.setdefault(cell, ([], []))[side_idx].append(e)
        for (ix, iy), (ps, qs) in buckets.items():
            if _terminal(tree, ix, iy, side):
                for e in ps:
                    pairs.append(_diagonal_pair(e[0], e[1], e[2], True, level, metric))
                    e[2] = 0
                for e in qs:
                    pairs.append(_diagonal_pair(e[0], e[1], e[2], False, level, metric))
                    e[2] = 0
                continue
            i = j = 0
            while i < len(ps) and j < len(qs):
                a, b = ps[i], qs[j]
                take = min(a[2], b[2])
                dist = ground_distance((a[0], a[1]), (b[0], b[1]), metric)
                pairs.append(((a[0], a[1]), (b[0], b[1]), take, "cross", level, dist))
                a[2] -= take
                b[2] -= take
                if a[2] == 0:
                    i += 1
                if b[2] == 0:
                    j += 1
        p_live = [e for e in p_live if e[2] > 0]
        q_live = [e for e in q_live if e[2] > 0]
        residuals.append((level, sum(e[2] for e in p_live + q_live)))

    root_fallback = bool(p_live or q_live)
    top = max(tree.levels())
    for e in p_live:
        pairs.append(_diagonal_pair(e[0], e[1], e[2], True, top, metric))
    for e in q_live:
        pairs.append(_diagonal_pair(e[0], e[1], e[2], False, top, metric))
    cost = math.fsum(mass * dist for _, _, mass, _, _, dist in pairs)
    return pairs, cost, residuals, root_fallback


@dataclass
class AssignmentProblem:
    """Square assignment instance; rows/cols are points then diagonal slots."""

    size: int
    cost: np.ndarray


def _expanded(diagram):
    """Points repeated by multiplicity, as an (n, 2) array."""
    if len(diagram) == 0:
        return np.zeros((0, 2))
    return np.repeat(diagram.coords(), diagram.multiplicities(), axis=0)


def _diagonal_distances(points, metric):
    return np.abs(points[:, 1] - points[:, 0]) * metric.diagonal_factor


def build_assignment(first, second, metric, size_cap=DEFAULT_SIZE_CAP):
    """Cost matrix of the projection-augmented assignment problem.

    Rows: expanded first-diagram points, then one diagonal slot per expanded
    second-diagram point. Columns: the mirror image. Point-to-diagonal cost
    is the point's own diagonal distance; diagonal-to-diagonal is zero.
    """
    m = first.total_count
    n = second.total_count
    if m + n > size_cap:
        raise SizeCapError(
            f"expanded instance size {m + n} exceeds cap {size_cap}"
        )
    p = _expanded(first)
    q = _expanded(second)
    cost = np.zeros((m + n, m + n))
    if m and n:
        cost[:m, :n] = ground_matrix(p, q, metric)
    if m:
        cost[:m, n:] = _diagonal_distances(p, metric)[:, None]
    if n:
        cost[m:, :n] = _diagonal_distances(q, metric)[None, :]
    return AssignmentProblem(size=m + n, cost=cost)


def dense_distance(first, second, metric, size_cap=DEFAULT_SIZE_CAP):
    """Exact distance as the minimum-cost perfect matching of the dense
    (m+n)² augmented problem."""
    problem = build_assignment(first, second, metric, size_cap)
    if problem.size == 0:
        return 0.0
    rows, cols = linear_sum_assignment(problem.cost)
    return float(problem.cost[rows, cols].sum())


def brute_force_distance(first, second, metric, max_units=8):
    """Minimum cost over all augmented matchings, by direct enumeration.

    Each first-diagram unit goes to an unused second-diagram unit or to its
    own projection; leftover second-diagram units go to their projections.
    Intentionally independent of the assignment solver.
    """
    p = _expanded(first)
    q = _expanded(second)
    if len(p) + len(q) > max_units:
        raise SizeCapError(
            f"expanded instance size {len(p) + len(q)} exceeds brute-force bound {max_units}"
        )
    p_diag = _diagonal_distances(p, metric) if len(p) else np.zeros(0)
    q_diag = _diagonal_distances(q, metric) if len(q) else np.zeros(0)
    cross = ground_matrix(p, q, metric)

    best = math.inf

    def explore(i, used, acc):
        nonlocal best
        if acc >= best:
            return
        if i == len(p):
            total = acc
            for j in range(len(q)):
                if not used & (1 << j):
                    total += q_diag[j]
            if total < best:
                best = total
            return
        explore(i + 1, used, acc + p_diag[i])
        for j in range(len(q)):
            if not used & (1 << j):
                explore(i + 1, used | (1 << j), acc + cross[i, j])

    explore(0, 0, 0.0)
    return float(best)


def ot_augmented(first, second, metric, size_cap=DEFAULT_SIZE_CAP):
    """Optimal transport between the projection-augmented multisets under the
    unmodified ground metric (diagonal-to-diagonal pays its true distance).

    Both augmented sets carry the same total mass, so with unit expansion the
    transport reduces to an assignment.
    """
    m = first.total_count
    n = second.total_count
    if m + n > size_cap:
        raise SizeCapError(
            f"expanded instance size {m + n} exceeds cap {size_cap}"
        )
    if m + n == 0:
        return 0.0
    p = _expanded(first)
    q = _expanded(second)

    def project(points):
        mid = 0.5 * (points[:, 0] + points[:, 1])
        return np.stack([mid, mid], axis=1)

    first_aug = np.vstack([p, project(q)]) if n else p
    second_aug = np.vstack([q, project(p)]) if m else q
    cost = ground_matrix(first_aug, second_aug, metric)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


_CDIST_NAME = {"l1": "cityblock", "l2": "euclidean", "linf": "chebyshev"}
_KD_P = {"l1": 1.0, "l2": 2.0, "linf": math.inf}
# from this larger |coordinate difference| on, an L2 square may overflow
L2_OVERFLOW = 2.0**511


def cdist_matrix(a, b, metric):
    """scipy's cdist distance matrix under the metric."""
    return cdist(a, b, metric=_CDIST_NAME[metric.value])


def l2_overflow_mask(a, b):
    """Which entries of the distance matrix of two (n, 2) arrays have a
    larger |coordinate difference| of 2**511 or more."""
    a = np.asarray(a, dtype=float).reshape(-1, 2)
    b = np.asarray(b, dtype=float).reshape(-1, 2)
    with np.errstate(over="ignore"):
        dx = np.abs(np.subtract.outer(a[:, 0], b[:, 0]))
        dy = np.abs(np.subtract.outer(a[:, 1], b[:, 1]))
    return np.maximum(dx, dy) >= L2_OVERFLOW


def ground_distance(a, b, metric):
    """Distance between two points in Python floats: |dx| + |dy|,
    max(|dx|, |dy|), or sqrt(dx*dx + dy*dy) below the L2 overflow range and
    math.hypot(dx, dy) in it."""
    dx = abs(a[0] - b[0])
    dy = abs(a[1] - b[1])
    if metric is GroundMetric.L1:
        return dx + dy
    if metric is GroundMetric.LINF:
        return max(dx, dy)
    if max(dx, dy) < L2_OVERFLOW:
        return math.sqrt(dx * dx + dy * dy)
    return math.hypot(dx, dy)


def ground_matrix(a, b, metric):
    """Distance matrix of two (n, 2) arrays: cdist's, but for L2 entries in
    the overflow range, which are math.hypot of their differences."""
    a = np.asarray(a, dtype=float).reshape(-1, 2)
    b = np.asarray(b, dtype=float).reshape(-1, 2)
    d = cdist_matrix(a, b, metric)
    if metric is GroundMetric.L2:
        for i, j in zip(*l2_overflow_mask(a, b).nonzero()):
            (ax, ay), (bx, by) = a[i].tolist(), b[j].tolist()
            d[i, j] = math.hypot(ax - bx, ay - by)
    return d


def closest_pair(points, metric):
    """Least distance between two rows of an (n, 2) array, over every pair;
    inf with fewer than two rows."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(points) < 2:
        return math.inf
    d = ground_matrix(points, points, metric)
    return float(d[np.triu_indices(len(points), 1)].min())


def min_separation(points, metric):
    """Smallest diagonal distance and distance between two rows, brute force."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    return min(float(_diagonal_distances(points, metric).min()), closest_pair(points, metric))


def kd_min_separation(points, metric):
    """The same minimum by a cKDTree query of each row's second neighbour;
    in the L2 overflow range it reads cdist's overflowed squares."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    smallest = float(_diagonal_distances(points, metric).min())
    if len(points) > 1:
        dists, _ = cKDTree(points).query(points, k=2, p=_KD_P[metric.value])
        smallest = min(smallest, float(dists[:, 1].min()))
    return smallest


def line_scan_diagram(path):
    """The diagram in a text file, read line by line, with the errors and
    line numbers of the library's load_diagram."""
    path = Path(path)
    births: list[float] = []
    deaths: list[float] = []
    mults: list[int] = []
    with _open_utf8(path, DiagramParseError) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) not in (2, 3):
                raise DiagramParseError(
                    f"{path.name}: expected 'birth death [multiplicity]' at line {lineno}"
                )
            try:
                birth = float(fields[0])
                death = float(fields[1])
            except ValueError:
                raise DiagramParseError(
                    f"{path.name}: malformed number at line {lineno}"
                ) from None
            if not (math.isfinite(birth) and math.isfinite(death)):
                raise InvalidPointError(f"{path.name}: non-finite value at line {lineno}")
            if death <= birth:
                raise InvalidPointError(f"{path.name}: death <= birth at line {lineno}")
            mult = 1
            if len(fields) == 3:
                try:
                    mult = int(fields[2])
                except ValueError:
                    raise DiagramParseError(
                        f"{path.name}: malformed multiplicity at line {lineno}"
                    ) from None
                if mult < 1:
                    raise InvalidPointError(
                        f"{path.name}: multiplicity < 1 at line {lineno}"
                    )
                if mult > _INT64_MAX:
                    raise InvalidPointError(
                        f"{path.name}: multiplicity does not fit in int64 at line {lineno}"
                    )
            births.append(birth)
            deaths.append(death)
            mults.append(mult)
    try:
        return PersistenceDiagram._from_columns(births, deaths, mults)
    except OverflowError as exc:
        raise InvalidPointError(f"{path.name}: {exc}") from None
