"""Named diagram families for the property tests. A family draws a pool
of (birth, death) points and the largest multiplicity its diagrams carry;
``instances`` draws diagrams that pick points of one family's pool, a
ground metric and a tree config, with a bound on the units that keeps it in
reach of the brute-force oracle (8 units) or of the exact solver:

- ``uniform`` and ``gaussian``: ``gen_uniform``'s and ``gen_gaussian``'s
  laws at an offset of 0, -250 or 1e6;
- ``ulp``: one cluster a few ulps wide at those offsets, where the exact
  solver's reduced costs lose the distance (ROADMAP item 17);
- ``lattice``: a grid at offsets up to 1e11 on which points tie, with
  multiplicities up to 3 or up to 10^6;
- ``offset``: points at 1e6, -3e9 and 1e11, lifetimes from one ulp up,
  where cells fall below a coordinate's ulp;
- ``near_duplicate``: one-ulp twins, which truncate every tree at cap 40;
- ``small``: one or two pool points, diagrams empty or of one point.

A new family is one more entry of FAMILIES: a function of Hypothesis's
draw and a size bound that returns (pool, max_mult). Every invariant test
in test_invariants.py then runs on it, or names why it cannot.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from hypothesis import strategies as st

from dgmdist import (
    GroundMetric,
    PersistenceDiagram,
    ShiftedQuadtree,
    TreeConfig,
    build_tree,
    gen_gaussian,
    gen_uniform,
)

METRICS = list(GroundMetric)
SEEDS = st.integers(0, 2**32 - 1)
CAPS = (2, 3, 5, 12, 40)  # level caps down to 2, which truncate any pool
ANCHOR = (0.0, 1e-200)  # truncates the deepest tree a config allows
OFFSETS = (0.0, -250.0, 1e6)
SCALES = (1e-3, 1.0, 1e3)


def lists(elements, min_size, max_size):
    """Lists of min_size to max_size elements. st.lists averages about 6
    elements whatever max_size is, so past 12 the length is drawn first."""
    if max_size <= 12:
        return st.lists(elements, min_size=min_size, max_size=max_size)
    sizes = st.integers(min_size, max_size)
    return sizes.flatmap(lambda n: st.lists(elements, min_size=n, max_size=n))


def _law(generate):
    def family(draw, max_points):
        offset = draw(st.sampled_from(OFFSETS))
        coords = generate(draw(st.integers(1, max_points)), draw(SEEDS)).coords() + offset
        return coords.tolist(), 3

    return family


def _ulp(draw, max_points):
    # deaths from 2**-20 up: a cluster a few ulps around 0 would need a tree
    # deeper than the float range, which tree_geometry refuses
    offset = draw(st.sampled_from(OFFSETS))
    birth, death = offset + draw(st.floats(-8.0, -2.0)), offset + draw(st.floats(2**-20, 1.0))
    # one integer a point: 3 * its ulps off the birth + those off the death
    steps = (divmod(k, 3) for k in draw(lists(st.integers(0, 8), 1, max_points)))
    return [(birth - i * math.ulp(birth), death + j * math.ulp(death)) for i, j in steps], 3


def _lattice(draw, max_points):
    offset = draw(st.sampled_from([0.0, -250.0, 3e4, 1e11]))
    scale = draw(st.sampled_from(SCALES))
    # steps of 1/1000 of the scale, or of 1/10 or 1/2, on which points tie
    step = draw(st.sampled_from([1, 100, 500]))
    # one integer a point: its birth and lifetime in steps
    n, pool = 1000 // step, []
    for k in draw(lists(st.integers(0, (2 * n + 1) * n - 1), 1, max_points)):
        b, life = divmod(k, n)
        birth = offset + scale * ((b - n) * step) / 1000
        pool.append((birth, birth + scale * ((life + 1) * step) / 1000 + abs(birth) * 1e-9))
    return pool, draw(st.sampled_from([3, 10**6]))


def _offset(draw, max_points):
    offset = draw(st.sampled_from([1e6, -3e9, 1e11]))
    scale = draw(st.sampled_from([1e-4, 1.0, 1e3]))
    # a birth, and one integer: a lifetime of 1 to 16 ulps of the birth or
    # of 1 to 16 times the scale
    rows, pool = st.tuples(st.floats(-1.0, 1.0), st.integers(0, 31)), []
    for b, k in draw(lists(rows, 1, max_points)):
        birth, (short, steps) = offset + scale * b, divmod(k, 16)
        life = (steps + 1) * (math.ulp(birth) if short else scale)
        pool.append((birth, birth + life))
    return pool, 3


def _near_duplicate(draw, max_points):
    # births within 2**-900 of the scale from 0 read 0, and a coordinate of
    # 0 is not twinned: closer to 0, a tree would need more levels than the
    # float range allows, which tree_geometry refuses
    scale = draw(st.sampled_from(SCALES))
    rows, pool = st.tuples(st.floats(-1.0, 1.0), st.floats(1e-3, 1.0)), []
    for b, life in draw(lists(rows, 1, max_points)):
        b = b if abs(b) > 2**-900 else 0.0
        pool.append((scale * b, scale * b + scale * life))
    # twins one ulp down in the birth or up in the death
    for k in draw(lists(st.integers(0, 2 * len(pool) - 1), 1, len(pool))):
        (birth, death), down = pool[k // 2], k % 2
        if down and birth != 0.0 or death == 0.0:
            pool.append((math.nextafter(birth, -math.inf), death))
        else:
            pool.append((birth, math.nextafter(death, math.inf)))
    return pool, 3


# name -> family(draw, max_points): (a pool of up to max_points points, or
# twice that with near-duplicates, and the largest multiplicity of its
# diagrams)
FAMILIES = {
    "uniform": _law(gen_uniform),
    "gaussian": _law(gen_gaussian),
    "ulp": _ulp,
    "lattice": _lattice,
    "offset": _offset,
    "near_duplicate": _near_duplicate,
    "small": lambda draw, max_points: FAMILIES["uniform"](draw, min(2, max_points)),
}


class Instance(NamedTuple):
    """Diagrams drawn from one family's pool, a ground metric and a tree
    config; tree() builds the tree over the whole pool."""

    family: str
    points: list
    diagrams: tuple
    metric: GroundMetric
    config: TreeConfig

    first = property(lambda self: self.diagrams[0])
    second = property(lambda self: self.diagrams[1])

    def tree(self):
        return build_tree(self.points, self.config)


@st.composite
def points(draw, family=None, max_points=12):
    """A pool of (birth, death) points of one family, or of any."""
    family = family or draw(st.sampled_from(list(FAMILIES)))
    return FAMILIES[family](draw, max_points)[0]


def pick(pool, choices, budget=math.inf):
    """A diagram of the pool points chosen as (index, multiplicity - 1)
    pairs, and what is left of budget: the choices end where they would
    pass it."""
    rows = []
    for i, extra in choices:
        if budget < 1:
            break
        mult = min(int(extra) + 1, budget)
        budget -= mult
        rows.append((*pool[i], mult))
    return PersistenceDiagram(rows), budget


@st.composite
def instances(
    draw,
    family=None,
    count=2,
    max_count=None,
    max_units=math.inf,
    max_mults=None,
    max_points=12,
    max_picks=12,
    metrics=METRICS,
    caps=(40,),
):
    """An Instance of count diagrams (up to max_count) from one family, or
    from any, over a pool of up to max_points points: each picks up to
    max_picks of them (one in the small family) with multiplicities up to
    the family's largest, or up to one drawn from max_mults. Under
    max_units, the picks end where the diagrams would pass that many."""
    family = family or draw(st.sampled_from(list(FAMILIES)))
    pool, max_mult = FAMILIES[family](draw, max_points)
    if max_mults:
        max_mult = draw(st.sampled_from(max_mults))
    # a pick is one integer: its pool index * max_mult + multiplicity - 1
    choice = st.integers(0, len(pool) * max_mult - 1)
    picks = lists(choice, 0, 1 if family == "small" else max_picks)
    diagrams = []
    for _ in range(draw(st.integers(count, max_count or count))):
        choices = (divmod(k, max_mult) for k in draw(picks))
        diagram, max_units = pick(pool, choices, max_units)
        diagrams.append(diagram)
    metric = draw(st.sampled_from(metrics))
    config = TreeConfig(draw(SEEDS), draw(st.sampled_from(caps)), metric)
    return Instance(family, pool, tuple(diagrams), metric, config)


@st.composite
def aligned_grids(draw, max_levels):
    """(tree, steps, at): an unshifted tree of 2 to max_levels levels under
    any metric, at an offset up to 1e11, whose corners lie on the diagonal,
    and at(i, j), the point i and j half cells of the finest level from its
    origin, for i and j up to steps: cells touch the diagonal at corners,
    and lattice points sit on cell edges and the root's far edge."""
    levels = draw(st.integers(2, max_levels))
    side = 2.0 ** draw(st.integers(-3, 3))  # finest cell side
    offset = draw(st.sampled_from([0.0, -8.0, 1e11]))
    steps = 2**levels  # half-cell steps across the root
    tree = ShiftedQuadtree(
        origin=(offset, offset),
        root_side=steps * side / 2,
        level_hi=levels - 1,
        shift=(0.0, 0.0),
        spread=1.0,
        seed=0,
        ground_metric=draw(st.sampled_from(METRICS)),
        min_separation=side,
    )
    return tree, steps, lambda i, j: (offset + i * side / 2, offset + j * side / 2)
