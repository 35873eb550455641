"""Persistence diagram data model, diagonal geometry, file I/O and synthetic generators.

A diagram is an immutable multiset of (birth, death) points strictly above the
line y = x. Duplicate points are merged into integer multiplicities at
construction, and every downstream algorithm works on multiplicities rather
than expanded copies.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from ._rows import group_rows

_INT64_MAX = np.iinfo(np.int64).max


class DiagramError(ValueError):
    """Base class for diagram construction and parsing failures."""


class InvalidPointError(DiagramError):
    """A point violates death > birth, finiteness, or multiplicity >= 1."""


class DiagramParseError(DiagramError):
    """A diagram file line does not match the expected grammar."""


class GroundMetric(Enum):
    """Inner norm used for point-to-point costs: L1, L2 or L-infinity."""

    L1 = "l1"
    L2 = "l2"
    LINF = "linf"

    @property
    def diagonal_factor(self) -> float:
        """Distance from a point to its diagonal projection per unit lifetime."""
        return _DIAG_FACTOR[self.value]

    def distance(self, a: tuple[float, float], b: tuple[float, float]) -> float:
        """Distance between two points, by combine()."""
        with np.errstate(over="ignore"):
            d = np.subtract(a, b, dtype=float)
        return float(self.combine(d[:1], d[1:])[0])

    def diagonal_distances(self, coords: np.ndarray) -> np.ndarray:
        """Distance from each row of an (n, 2) coordinate array to the
        diagonal: |death - birth| * diagonal_factor."""
        return np.abs(coords[:, 1] - coords[:, 0]) * self.diagonal_factor

    def combine(self, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
        """Distances of coordinate differences dx and dy, written into dx,
        which is returned; dy is overwritten too. Every point-to-point
        distance of the package is computed here.

        The float operations are scipy's cdist and cKDTree ones: |dx| + |dy|,
        sqrt(dx*dx + dy*dy) or max(|dx|, |dy|), with one exception. An L2
        entry whose larger |difference| reaches 2**511, where the sum of
        squares could overflow, is math.hypot(dx, dy) instead, so an L2
        distance is finite wherever its differences are. An L2 difference
        whose square underflows still reads 0.
        """
        with np.errstate(over="ignore"):
            if self is GroundMetric.L2:
                large = None
                if dx.size and max(dx.max(), -dx.min(), dy.max(), -dy.min()) >= _L2_SAFE:
                    large = (np.abs(dx) >= _L2_SAFE) | (np.abs(dy) >= _L2_SAFE)
                    big = dx[large].tolist(), dy[large].tolist()
                np.multiply(dx, dx, out=dx)
                np.multiply(dy, dy, out=dy)
                np.add(dx, dy, out=dx)
                np.sqrt(dx, out=dx)
                if large is not None:
                    dx[large] = list(map(math.hypot, *big))
                return dx
            np.abs(dx, out=dx)
            np.abs(dy, out=dy)
            if self is GroundMetric.L1:
                return np.add(dx, dy, out=dx)
            return np.maximum(dx, dy, out=dx)

    def pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Distance matrix between two (n, 2) coordinate arrays, by combine().

        Blocks of rows are combined in place in the result, so that besides
        it only one block-sized buffer is allocated.
        """
        a = np.asarray(a, dtype=float).reshape(-1, 2)
        b = np.asarray(b, dtype=float).reshape(-1, 2)
        out = np.empty((len(a), len(b)))
        rows = max(1, _PAIRWISE_BLOCK // max(1, len(b)))
        dy = np.empty((min(rows, len(a)), len(b)))
        with np.errstate(over="ignore"):
            for i in range(0, len(a), rows):
                block = out[i : i + rows]
                np.subtract.outer(a[i : i + rows, 0], b[:, 0], out=block)
                np.subtract.outer(a[i : i + rows, 1], b[:, 1], out=dy[: len(block)])
                self.combine(block, dy[: len(block)])
        return out


# entries per row block of GroundMetric.pairwise (256 KB), so that its passes
# over a block run in cache
_PAIRWISE_BLOCK = 1 << 15
# below this larger |difference|, no L2 square or sum of two squares overflows
_L2_SAFE = 2.0**511
_DIAG_FACTOR = {"l1": 1.0, "l2": 2.0 ** -0.5, "linf": 0.5}


def _checked(birth, death, multiplicity=1) -> tuple[float, float, int]:
    """A point's (birth, death, multiplicity) as float, float, int, or
    InvalidPointError if it is not a valid persistence point. The
    multiplicity must equal an integer from 1 to 2**63 - 1: an integral
    float such as 3.0 is taken, 1.9, nan or inf is not."""
    try:
        birth, death = float(birth), float(death)
    except (TypeError, ValueError, OverflowError):
        raise InvalidPointError(
            f"coordinates must be numbers, got ({birth!r}, {death!r})"
        ) from None
    if not (math.isfinite(birth) and math.isfinite(death)):
        raise InvalidPointError(f"non-finite coordinates ({birth}, {death})")
    if death <= birth:
        raise InvalidPointError(f"death <= birth for point ({birth}, {death})")
    try:
        count = int(multiplicity)
    except (TypeError, ValueError, OverflowError):
        count = 0
    if count != multiplicity or not 1 <= count <= _INT64_MAX:
        raise InvalidPointError(
            f"multiplicity must be an integer from 1 to 2**63 - 1, got {multiplicity}"
        )
    return birth, death, count


@dataclass(frozen=True)
class PDPoint:
    """A persistence point: birth < death, with an integer multiplicity."""

    birth: float
    death: float
    multiplicity: int = 1

    def __post_init__(self):
        birth, death, multiplicity = _checked(self.birth, self.death, self.multiplicity)
        object.__setattr__(self, "birth", birth)
        object.__setattr__(self, "death", death)
        object.__setattr__(self, "multiplicity", multiplicity)

    @property
    def lifetime(self) -> float:
        return self.death - self.birth


class PersistenceDiagram:
    """Immutable, canonically sorted multiset of persistence points.

    The diagram is columnar: a read-only (n, 2) array of distinct points,
    sorted lexicographically by (birth, death), and a parallel array of
    multiplicities. Duplicates are merged at construction, so two diagrams
    describing the same multiset compare equal regardless of input order.
    PDPoint objects are built only when `points` or iteration asks for them.
    """

    __slots__ = ("_points", "_coords", "_mults", "_total")

    def __init__(self, points: Iterable = ()):
        rows = [
            (p.birth, p.death, p.multiplicity) if isinstance(p, PDPoint) else _checked(*p)
            for p in points
        ]
        births, deaths, mults = zip(*rows) if rows else ((), (), ())
        self._set_columns(births, deaths, mults)

    @classmethod
    def _from_columns(cls, births, deaths, mults) -> PersistenceDiagram:
        """Diagram of already validated points given as three columns."""
        diagram = cls.__new__(cls)
        diagram._set_columns(births, deaths, mults)
        return diagram

    def _set_columns(self, births, deaths, mults) -> None:
        births = np.asarray(births, dtype=float)
        deaths = np.asarray(deaths, dtype=float)
        mults = np.asarray(mults, dtype=np.int64)
        # summed as Python ints: merged multiplicities are int64 and must not wrap
        total = sum(mults.tolist())
        if total > _INT64_MAX:
            raise OverflowError(f"total multiplicity {total} does not fit in int64")
        order, starts = group_rows(births, deaths)
        first = order[starts]
        self._coords = np.column_stack((births[first], deaths[first]))
        self._coords.setflags(write=False)
        self._mults = np.add.reduceat(mults[order], starts)
        self._mults.setflags(write=False)
        self._total = total
        self._points = None

    @property
    def points(self) -> tuple[PDPoint, ...]:
        """Distinct points in canonical order, built on first access."""
        if self._points is None:
            self._points = tuple(
                PDPoint(b, d, m)
                for (b, d), m in zip(self._coords.tolist(), self._mults.tolist())
            )
        return self._points

    @property
    def total_count(self) -> int:
        """Number of points counted with multiplicity."""
        return self._total

    def coords(self) -> np.ndarray:
        """Distinct points as a read-only (n, 2) float array."""
        return self._coords

    def multiplicities(self) -> np.ndarray:
        return self._mults

    def __len__(self) -> int:
        return len(self._mults)

    def __iter__(self) -> Iterator[PDPoint]:
        return iter(self.points)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PersistenceDiagram):
            return NotImplemented
        return np.array_equal(self._coords, other._coords) and np.array_equal(
            self._mults, other._mults
        )

    def __hash__(self) -> int:
        # float hashing maps -0.0 and 0.0 alike, as equality does
        return hash((tuple(self._coords.ravel().tolist()), tuple(self._mults.tolist())))

    def __repr__(self) -> str:
        return f"PersistenceDiagram({len(self)} distinct, total {self._total})"


@contextmanager
def _open_utf8(path: Path, error: type[Exception]):
    """path opened as UTF-8 text less one leading byte-order mark, whatever
    the locale. Bytes that are not UTF-8 raise error, naming the file and the
    line they sit on."""
    try:
        with path.open(encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError:
        # the decoder reads ahead, so find the line in the file's bytes, BOM included
        data = path.read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            lineno = data.count(b"\n", 0, exc.start) + 1
            raise error(f"{path.name}: not UTF-8 text at line {lineno}") from None
        raise error(f"{path.name}: not UTF-8 text") from None


# a comment runs from '#' to the end of its line
_COMMENT = re.compile("#[^\n]*")


def load_diagram(path) -> PersistenceDiagram:
    """Parse a text diagram file: one "birth death [multiplicity]" per line.

    The file is read as UTF-8, whatever the locale. '#' starts a comment,
    blank lines are ignored. Raises InvalidPointError for points with death
    <= birth, non-finite values or multiplicity < 1 or past int64, and
    DiagramParseError for anything that does not tokenize or decode; both
    carry the offending line number. Multiplicities that sum past int64
    raise InvalidPointError too.

    The whole file is checked and converted in bulk; only a file that
    breaks a rule is then read line by line, to name its first bad line.
    """
    path = Path(path)
    with _open_utf8(path, DiagramParseError) as fh:
        text = fh.read()
    columns = _bulk_columns(_COMMENT.sub("", text) if "#" in text else text)
    if columns is None:
        raise _line_error(path.name, text)
    try:
        return PersistenceDiagram._from_columns(*columns)
    except OverflowError as exc:
        raise InvalidPointError(f"{path.name}: {exc}") from None


def _bulk_columns(text: str):
    """(births, deaths, multiplicities) of a comment-free file text, with
    one conversion call per column kind, or None if any line breaks a rule.

    Lines end at "\n" only (str.splitlines would also break at \x0c or
    \x85, which separate fields), and fields split as str.split() does.
    Coordinates go through float(), multiplicities through int(), as the
    line scan reads them.
    """
    rows = [fields for fields in map(str.split, text.split("\n")) if fields]
    widths = set(map(len, rows))
    if not widths <= {2, 3}:
        return None
    if 3 in widths:
        try:
            mults = np.array([int(row[2]) if len(row) == 3 else 1 for row in rows], np.int64)
        except (ValueError, OverflowError):
            return None
        if not (mults >= 1).all():
            return None
        rows = [row[:2] for row in rows]
    else:
        mults = np.ones(len(rows), dtype=np.int64)
    try:
        values = np.array(list(chain.from_iterable(rows)), dtype=float).reshape(-1, 2)
    except ValueError:
        return None
    births, deaths = values[:, 0], values[:, 1]
    if not (np.isfinite(values).all() and (deaths > births).all()):
        return None
    return births, deaths, mults


def _line_error(name: str, text: str) -> DiagramError:
    """The error for the first line of a file's text, numbered from 1, that
    breaks a rule: the report for a file the bulk parse rejected."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) not in (2, 3):
            return DiagramParseError(
                f"{name}: expected 'birth death [multiplicity]' at line {lineno}"
            )
        try:
            birth = float(fields[0])
            death = float(fields[1])
        except ValueError:
            return DiagramParseError(f"{name}: malformed number at line {lineno}")
        if not (math.isfinite(birth) and math.isfinite(death)):
            return InvalidPointError(f"{name}: non-finite value at line {lineno}")
        if death <= birth:
            return InvalidPointError(f"{name}: death <= birth at line {lineno}")
        if len(fields) == 3:
            try:
                mult = int(fields[2])
            except ValueError:
                return DiagramParseError(f"{name}: malformed multiplicity at line {lineno}")
            if mult < 1:
                return InvalidPointError(f"{name}: multiplicity < 1 at line {lineno}")
            if mult > _INT64_MAX:
                return InvalidPointError(
                    f"{name}: multiplicity does not fit in int64 at line {lineno}"
                )
    raise AssertionError(f"{name}: the bulk parse rejected a file with no bad line")


def save_diagram(diagram: PersistenceDiagram, path) -> None:
    """Write a diagram in the text format with full round-trip precision."""
    path = Path(path)
    lines = []
    for (birth, death), mult in zip(
        diagram.coords().tolist(), diagram.multiplicities().tolist()
    ):
        if mult == 1:
            lines.append(f"{birth!r} {death!r}")
        else:
            lines.append(f"{birth!r} {death!r} {mult}")
    path.write_text("\n".join(lines) + ("\n" if lines else ""))


def gen_uniform(max_size: int, seed: int) -> PersistenceDiagram:
    """Synthetic diagram: birth ~ U(0, 200), death ~ U(birth, 300).

    Produces at most max_size points (duplicates would merge) and is a pure
    function of (max_size, seed).
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    rng = np.random.default_rng(seed)
    births = rng.uniform(0.0, 200.0, max_size)
    deaths = rng.uniform(births, 300.0)
    bad = deaths <= births
    while bad.any():
        births[bad] = rng.uniform(0.0, 200.0, int(bad.sum()))
        deaths[bad] = rng.uniform(births[bad], 300.0)
        bad = deaths <= births
    return PersistenceDiagram._from_columns(births, deaths, np.ones(max_size, np.int64))


def gen_gaussian(max_size: int, seed: int) -> PersistenceDiagram:
    """Synthetic near-diagonal diagram: birth ~ U(0, 200), lifetime ~ |N(0, 1)|.

    Samples with lifetime below 1e-9 are rejected and redrawn so the minimum
    separation from the diagonal stays strictly positive.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    rng = np.random.default_rng(seed)
    births = rng.uniform(0.0, 200.0, max_size)
    lifetimes = np.abs(rng.normal(0.0, 1.0, max_size))
    bad = lifetimes < 1e-9
    while bad.any():
        n_bad = int(bad.sum())
        births[bad] = rng.uniform(0.0, 200.0, n_bad)
        lifetimes[bad] = np.abs(rng.normal(0.0, 1.0, n_bad))
        bad = lifetimes < 1e-9
    return PersistenceDiagram._from_columns(
        births, births + lifetimes, np.ones(max_size, np.int64)
    )
