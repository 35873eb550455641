"""One-key sorting of row pairs, shared by every module that groups points or
cells.

group_rows packs a row (a, b) into one complex128 key, which numpy orders
lexicographically by (real, imag). Float64 values keep their order, and
integers convert exactly as long as their magnitude is below 2**53; callers
keep their keys inside that range.

group_cells does the same for non-negative int64 rows of known bit widths
through one int64 key that also holds the row's position, below the row:
the keys are unique, so a plain sort of them gives group_rows' stable order.
Rows too wide for one key take np.lexsort, which is stable and exact for any
int64 values: group_cells has no 2**53 bound.
"""

from __future__ import annotations

import numpy as np


def group_rows(a, b, sets=None) -> tuple[np.ndarray, np.ndarray]:
    """Stable lexicographic order of the rows (a[i], b[i]), and the position
    in that order where each run of equal rows starts.

    Equal rows keep their input order, so the first row of a run is the
    first one given; -0.0 and 0.0 count as equal. With sets, an array of
    small non-negative integers, the rows are (sets[i], a[i], b[i]): each
    set's rows come in the order they would have alone.
    """
    key = np.empty(len(a), np.complex128)
    key.real = a
    key.imag = b
    order = np.argsort(key, kind="stable")
    if sets is not None:
        order = set_major(order, sets)
        sets = sets[order]
    key = key[order]
    new = np.empty(len(key), bool)
    new[:1] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    if sets is not None:
        new[1:] |= sets[1:] != sets[:-1]
    return order, new.nonzero()[0]


def set_major(order: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """order, an ordering of rows, stably reordered by the rows' sets, small
    non-negative integers: each set's rows in the order it gave them."""
    sets = sets[order]
    top = int(sets.max(initial=0))
    if not top:  # one set
        return order
    # a stable sort of the smallest unsigned type is a radix sort
    return order[np.argsort(sets.astype(np.min_scalar_type(top)), kind="stable")]


def group_cells(a: np.ndarray, b: np.ndarray, a_bits: int, b_bits: int):
    """The stable lexicographic order of the int64 rows (a[i], b[i]), with
    0 <= a < 2**a_bits and 0 <= b < 2**b_bits, and the position in it where
    each run of equal rows starts: group_rows(a, b), bit for bit, wherever
    that is exact.

    The key of row i is (a[i], b[i], i) packed high to low. It takes
    a_bits + b_bits + bit_length(len(a) - 1) bits; past 63 the rows are
    sorted by np.lexsort instead.
    """
    n = len(a)
    pos_bits = (n - 1).bit_length()
    new = np.empty(n, bool)
    new[:1] = True
    if a_bits + b_bits + pos_bits > 63:
        order = np.lexsort((b, a))
        a, b = a[order], b[order]
        new[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        return order, new.nonzero()[0]
    key = a << (b_bits + pos_bits)
    key |= b << pos_bits
    key |= np.arange(n)
    key.sort()
    cell = key >> pos_bits
    np.not_equal(cell[1:], cell[:-1], out=new[1:])
    key &= (1 << pos_bits) - 1
    return key, new.nonzero()[0]
