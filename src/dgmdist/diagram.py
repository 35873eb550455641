"""Persistence diagram data model, diagonal geometry, file I/O and synthetic generators.

A diagram is an immutable multiset of (birth, death) points strictly above the
line y = x. Duplicate points are merged into integer multiplicities at
construction, and every downstream algorithm works on multiplicities rather
than expanded copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np
from scipy.spatial.distance import cdist

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
    def q(self) -> float:
        """Norm exponent: 1.0, 2.0 or math.inf (usable as Minkowski p)."""
        return _METRIC_Q[self.value]

    @property
    def diagonal_factor(self) -> float:
        """Distance from a point to its diagonal projection per unit lifetime."""
        return _DIAG_FACTOR[self.value]

    def distance(self, a: tuple[float, float], b: tuple[float, float]) -> float:
        dx = abs(a[0] - b[0])
        dy = abs(a[1] - b[1])
        if self is GroundMetric.L1:
            return dx + dy
        if self is GroundMetric.L2:
            return math.hypot(dx, dy)
        return dx if dx > dy else dy

    def rowwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """distance() of each row of one (n, 2) array to the same row of
        another, with the same float operations, so equal bit for bit."""
        dx = np.abs(a[:, 0] - b[:, 0])
        dy = np.abs(a[:, 1] - b[:, 1])
        if self is GroundMetric.L1:
            return dx + dy
        if self is GroundMetric.L2:
            return np.array(list(map(math.hypot, dx.tolist(), dy.tolist())), dtype=float)
        return np.where(dx > dy, dx, dy)

    def diagonal_distances(self, coords: np.ndarray) -> np.ndarray:
        """Distance from each row of an (n, 2) coordinate array to the
        diagonal: |death - birth| * diagonal_factor."""
        return np.abs(coords[:, 1] - coords[:, 0]) * self.diagonal_factor

    def pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Distance matrix between two (n, 2) coordinate arrays."""
        if a.size == 0 or b.size == 0:
            return np.zeros((len(a), len(b)))
        return cdist(a, b, metric=_CDIST_NAME[self.value])


_METRIC_Q = {"l1": 1.0, "l2": 2.0, "linf": math.inf}
_DIAG_FACTOR = {"l1": 1.0, "l2": 2.0 ** -0.5, "linf": 0.5}
_CDIST_NAME = {"l1": "cityblock", "l2": "euclidean", "linf": "chebyshev"}


def _checked(birth, death, multiplicity=1) -> tuple[float, float, int]:
    """A point's (birth, death, multiplicity) as float, float, int, or
    InvalidPointError if it is not a valid persistence point."""
    birth, death, multiplicity = float(birth), float(death), int(multiplicity)
    if not (math.isfinite(birth) and math.isfinite(death)):
        raise InvalidPointError(f"non-finite coordinates ({birth}, {death})")
    if death <= birth:
        raise InvalidPointError(f"death <= birth for point ({birth}, {death})")
    if multiplicity < 1:
        raise InvalidPointError(f"multiplicity must be >= 1, got {multiplicity}")
    return birth, death, multiplicity


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


def load_diagram(path) -> PersistenceDiagram:
    """Parse a text diagram file: one "birth death [multiplicity]" per line.

    '#' starts a comment, blank lines are ignored. Raises InvalidPointError
    for points with death <= birth, non-finite values or multiplicity < 1 or
    past int64, and DiagramParseError for anything that does not tokenize;
    both carry the offending line number. Multiplicities that sum past int64
    raise InvalidPointError too.
    """
    path = Path(path)
    births: list[float] = []
    deaths: list[float] = []
    mults: list[int] = []
    with path.open() as fh:
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
