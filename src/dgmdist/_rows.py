"""One-key sorting of row pairs, shared by every module that groups points or
cells.

A row (a, b) is packed into one complex128 key, which numpy orders
lexicographically by (real, imag). Float64 values keep their order, and
integers convert exactly as long as their magnitude is below 2**53; callers
keep their keys inside that range.
"""

from __future__ import annotations

import numpy as np


def group_rows(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Stable lexicographic order of the rows (a[i], b[i]), and the position
    in that order where each run of equal rows starts.

    Equal rows keep their input order, so the first row of a run is the
    first one given; -0.0 and 0.0 count as equal.
    """
    key = np.empty(len(a), np.complex128)
    key.real = a
    key.imag = b
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.concatenate(([len(key) > 0], key[1:] != key[:-1])))
    return order, starts
