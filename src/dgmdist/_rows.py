"""One-key sorting of row pairs, shared by every module that groups points or
cells.

group_rows packs a row (a, b) into one complex128 key, which numpy orders
lexicographically by (real, imag). Float64 values keep their order, and
integers convert exactly as long as their magnitude is below 2**53; callers
keep their keys inside that range.

group_cells does the same for non-negative integer rows of known bit widths
through one int64 key that also holds the row's position, below the row:
the keys are unique, so a plain sort of them gives group_rows' stable order.
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


def group_cells(a: np.ndarray, b: np.ndarray, a_bits: int, b_bits: int):
    """group_rows(a, b) of int64 rows with 0 <= a < 2**a_bits and
    0 <= b < 2**b_bits, bit for bit.

    The key of row i is (a[i], b[i], i) packed high to low. It takes
    a_bits + b_bits + bit_length(len(a) - 1) bits; past 63 this calls
    group_rows, so a and b must then lie below 2**53.
    """
    n = len(a)
    pos_bits = (n - 1).bit_length()
    if a_bits + b_bits + pos_bits > 63:
        return group_rows(a, b)
    key = a << (b_bits + pos_bits)
    key |= b << pos_bits
    key |= np.arange(n)
    key.sort()
    cell = key >> pos_bits
    new = np.empty(n, bool)
    new[:1] = True
    np.not_equal(cell[1:], cell[:-1], out=new[1:])
    key &= (1 << pos_bits) - 1
    return key, new.nonzero()[0]
