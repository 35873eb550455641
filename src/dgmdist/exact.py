"""Exact 1-Wasserstein distance as one reduced rectangular assignment.

A partial matching between diagrams P and Q pairs some points cross-wise,
at their ground distance d, and sends every other point to the diagonal, at
its diagonal distance δ. W1 is the least cost of such a matching.

**Cancellation.** The multiset the two diagrams share (per coincident point,
the smaller of its two multiplicities) is removed first. This keeps W1:
given an optimal matching in which a copy a of a shared point is not matched
to its twin b, say a goes to x and b comes from y, re-match a–b at cost 0
and y–x instead. Then d(y, x) ≤ d(y, b) + d(a, x) by the triangle
inequality, and δ(y) ≤ d(y, b) + δ(b) because the diagonal distance is
1-Lipschitz, so no case costs more. It also makes exact_distance(a, a)
exactly 0.0, where near-duplicate points could otherwise steer the solver to
a different matching of equal float cost.

**Reduction.** What is left is expanded by multiplicity into m ≤ n points
p (the smaller side, as rows) and q (the larger side, as columns), and one
m×n assignment is solved with cost

    C[i, j] = min(d(p_i, q_j) − δ_q[j], δ_p[i]).

Its minimum plus Σ δ_q is W1. Each row assignment is a partial matching of
equal cost: a row at the δ_p entry goes to the diagonal, and so does every
column not crossed. Each partial matching is a row assignment of equal cost,
since m ≤ n leaves a free column for every row sent to the diagonal.

**Value.** The assignment's objective carries the −Σ δ_q cancellation, so it
is not returned. The matching is rebuilt instead: row i is crossed iff
d − δ_q[j] < δ_p[i], the same float comparison the min made, and the result
is the math.fsum of the crossed d, the diagonal δ_p and the uncrossed δ_q.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment

from ._rows import group_rows
from .diagram import GroundMetric, PersistenceDiagram

DEFAULT_SIZE_CAP = 4000


class SizeCapError(ValueError):
    """Instance too large for the exact solver; use an approximation."""


def _unshared(
    first: PersistenceDiagram, second: PersistenceDiagram
) -> tuple[np.ndarray, np.ndarray]:
    """Each diagram's points, repeated by multiplicity, once the multiset the
    two share is removed."""
    coords = np.concatenate((first.coords(), second.coords()))
    mults = np.concatenate((first.multiplicities(), second.multiplicities()))
    order, starts = group_rows(coords[:, 0], coords[:, 1])
    if len(starts) < len(coords):
        # each diagram's points are distinct, so a run of two is one point of
        # each diagram, first's ahead of second's in the stable order
        shared = np.flatnonzero(np.diff(np.append(starts, len(coords))) == 2)
        a, b = order[starts[shared]], order[starts[shared] + 1]
        common = np.minimum(mults[a], mults[b])
        mults = mults.copy()
        mults[a] -= common
        mults[b] -= common
    split = len(first)
    return (
        np.repeat(coords[:split], mults[:split], axis=0),
        np.repeat(coords[split:], mults[split:], axis=0),
    )


def exact_distance(
    first: PersistenceDiagram, second: PersistenceDiagram, metric: GroundMetric
) -> float:
    """Exact 1-Wasserstein distance (minimum over partial matchings).

    Raises SizeCapError if the two diagrams hold more than DEFAULT_SIZE_CAP
    points together, counted with multiplicity.
    """
    total = first.total_count + second.total_count
    if total > DEFAULT_SIZE_CAP:
        raise SizeCapError(f"expanded instance size {total} exceeds cap {DEFAULT_SIZE_CAP}")
    p, q = _unshared(first, second)
    if len(p) > len(q):
        p, q = q, p
    dp = metric.diagonal_distances(p)
    dq = metric.diagonal_distances(q)
    if len(p) == 0:
        return math.fsum(dq.tolist())
    d = metric.pairwise(p, q)
    cost = d - dq
    np.minimum(cost, dp[:, None], out=cost)
    # m <= n assigns every row, so the row indices are 0..m-1 in order
    _, cols = linear_sum_assignment(cost)
    matched = d[np.arange(len(p)), cols]
    cross = matched - dq[cols] < dp
    uncrossed = np.ones(len(q), bool)
    uncrossed[cols[cross]] = False
    return math.fsum(np.where(cross, matched, dp).tolist() + dq[uncrossed].tolist())
