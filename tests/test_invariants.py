"""The correctness invariants of ROADMAP aim 3, each one test parametrized
over every family of families.py: exact equals brute force, exact <=
flowtree on every tree, the sqrt(8) sandwich, the residual identity, and
the same results with the diagrams swapped or multiplicities merged. An
invariant that cannot run on a family says why (out_of_reach), and
test_matrix_is_complete checks that every invariant names every family
one way or the other.
"""

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings

import reference
from dgmdist import (
    GroundMetric,
    PersistenceDiagram,
    PlacedDiagrams,
    TreeConfig,
    exact_distance,
    flowtree_distance,
    greedy_match,
    multi_tree_estimate,
    union_coords,
)
from dgmdist.flowtree import KIND_P_TO_DIAGONAL, KIND_Q_TO_DIAGONAL
from families import FAMILIES, Instance, instances

L2 = GroundMetric.L2


def over_families(
    max_examples, at_least={}, wide={}, out_of_reach={}, xfail={}, examples={}, **bounds
):
    """Parametrize an invariant check(instance) over every family but those
    out_of_reach (family -> why). Each parametrization draws max_examples
    (or at_least[family]) instances of its family under bounds, with pools
    and picks of up to wide[family] points, then checks its pinned examples;
    a family in xfail must fail an assertion, for the reason given."""

    def decorate(check):
        xfails = {
            family: pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)
            for family, reason in xfail.items()
        }
        params = [
            pytest.param(family, marks=xfails.get(family, ()))
            for family in FAMILIES
            if family not in out_of_reach
        ]

        @pytest.mark.parametrize("family", params)
        def test(family):
            points, picks = wide.get(family, (12, 12))
            run = given(instances(family, max_points=points, max_picks=picks, **bounds))(check)
            settings(max_examples=at_least.get(family, max_examples))(run)()
            for case in examples.get(family, ()):
                check(case)

        test.__name__, test.__doc__ = check.__name__, check.__doc__
        test.out_of_reach = out_of_reach
        return test

    return decorate


def pinned(family, first, second, metric, seed=0):
    """An Instance of two given diagrams, its tree over their points."""
    points = union_coords((first, second)).tolist()
    return Instance(family, points, (first, second), metric, TreeConfig(seed, ground_metric=metric))


# exact reads 7.549516567451064e-15, brute force 5.773159728050814e-15
ULP_PAIR = pinned(
    "ulp",
    PersistenceDiagram(
        [(3.2684779754580884, 9.261497233738357), (3.2684779754580893, 9.261497233738355)]
    ),
    PersistenceDiagram(
        [(3.2684779754580884, 9.261497233738355), (3.2684779754580897, 9.26149723373836)]
    ),
    GroundMetric.L1,
)

# two singletons under L2 on 50 trees: a cross match costs 2, both to the
# diagonal 5 * sqrt(2)
SINGLETONS = [
    pinned("small", PersistenceDiagram([(0, 4)]), PersistenceDiagram([(0, 6)]), L2, seed)
    for seed in range(50)
]


@over_families(
    max_examples=40,
    at_least={"uniform": 150, "gaussian": 150},
    max_units=8,
    xfail={"ulp": "ROADMAP item 17: d - δ_q rounds to -δ_q below half an ulp of δ_q"},
    examples={"ulp": [ULP_PAIR]},
)
def test_exact_equals_brute_force(instance):
    # 1e-12 relative, with no absolute floor: the pinned ulp pair differs by
    # 1.8e-15, 31 % of its distance
    first, second, metric = instance.first, instance.second, instance.metric
    exact = exact_distance(first, second, metric)
    assert math.isclose(exact, reference.brute_force_distance(first, second, metric), rel_tol=1e-12)


@over_families(max_examples=25, examples={"small": SINGLETONS}, max_units=60)
def test_exact_at_most_flowtree_on_every_tree(instance):
    # on the instance's tree over the pool, and on four trees over the pair
    # alone, their minimum included
    first, second, metric = instance.first, instance.second, instance.metric
    exact = exact_distance(first, second, metric)
    assert exact <= flowtree_distance(instance.tree(), first, second) + 1e-9
    seeds = [instance.config.seed + k for k in range(4)]
    low, _ = multi_tree_estimate(first, second, metric, seeds, reduce="min")
    assert exact <= low + 1e-9


@over_families(
    max_examples=25,
    at_least={"lattice": 300},
    out_of_reach={
        "ulp": "a cluster a few ulps wide needs over 50 levels, past the cap",
        "near_duplicate": "the one-ulp twins truncate every tree at its cap",
    },
    wide={"uniform": (30, 15), "gaussian": (30, 15)},
    examples={"small": SINGLETONS},
    metrics=[L2],
)
def test_flowtree_within_sqrt8_of_embedding(instance):
    # the sandwich's upper half, flowtree <= sqrt(8) * embedding under L2,
    # in exact arithmetic with no tolerance: clusters far from the diagonal
    # compared with their spread included, since the root meets the diagonal
    tree, first, second = instance.tree(), instance.first, instance.second
    if instance.family == "offset":  # a lifetime of one ulp can pass the cap
        assume(not tree.truncated)
    assert not tree.truncated
    flowtree = Fraction(flowtree_distance(tree, first, second))
    embedding = Fraction(PlacedDiagrams(tree, [first, second]).embedding_row(0, [1])[0])
    assert flowtree**2 <= 8 * embedding**2


# a point a few ulps above the diagonal: on these untruncated trees its cell
# is terminal at some level and clear again at the next by the float test,
# which must not count it again after the walk has retired it
FAR_POINTS = [
    pinned("offset", PersistenceDiagram([(b, d)]), PersistenceDiagram([(b, d, 2)]), metric, seed)
    for metric, b, d, seed in [
        (GroundMetric.L1, 1e11, 1e11 + 1e-4, 33),
        (GroundMetric.L2, 1e9, 1e9 + 1e-6, 53),
        (GroundMetric.LINF, 1e11, 1e11 + 1e-4, 136),
    ]
]


def test_far_points_walk_every_level():
    assert not any(case.tree().truncated for case in FAR_POINTS)


@over_families(
    max_examples=25,
    at_least={"uniform": 110, "gaussian": 110, "offset": 300},
    wide={"uniform": (40, 20), "gaussian": (40, 20)},
    examples={"offset": FAR_POINTS},
)
def test_residual_identity(instance):
    # the two-diagram row is the greedy walk's sum of side * residual over
    # the levels, rounded once, and the reference's embedding cost
    tree, first, second = instance.tree(), instance.first, instance.second
    residuals = greedy_match(tree, first, second).level_residuals
    walk = float(sum(Fraction(tree.side(level)) * r for level, r in residuals))
    row = PlacedDiagrams(tree, [first, second]).embedding_row(0, [1])[0]
    assert row == walk
    assert row == reference.embedding_cost(tree, first, second)


def pairs(matching, mirror=False):
    """The matching's pairs, or the pairs the swapped walk forms for them."""
    if not mirror:
        return Counter((p.source, p.target, p.mass, p.kind, p.level) for p in matching.pairs)
    flip = {KIND_P_TO_DIAGONAL: KIND_Q_TO_DIAGONAL, KIND_Q_TO_DIAGONAL: KIND_P_TO_DIAGONAL}
    return Counter(
        (p.target, p.source, p.mass, flip.get(p.kind, p.kind), p.level) for p in matching.pairs
    )


@over_families(
    max_examples=25,
    at_least={"uniform": 75, "gaussian": 75},
    wide={"uniform": (68, 38), "gaussian": (68, 38)},
    max_units=400,
)
def test_swap_symmetry(instance):
    # exact to 1e-12 relative; the flowtree pairs mirror each other at equal
    # cost, and the embedding rows are equal
    tree, first, second, metric = instance.tree(), instance.first, instance.second, instance.metric
    assert exact_distance(first, second, metric) == pytest.approx(
        exact_distance(second, first, metric), rel=1e-12
    )
    forward, backward = greedy_match(tree, first, second), greedy_match(tree, second, first)
    assert forward.cost == backward.cost
    assert pairs(forward, mirror=True) == pairs(backward)
    placed = PlacedDiagrams(tree, [first, second])
    assert placed.embedding_row(0, [1]) == placed.embedding_row(1, [0])


@over_families(max_examples=25, max_units=60)
def test_merged_multiplicities(instance):
    # the first diagram listed with each multiplicity split over two rows,
    # in reverse order, through either constructor: the same diagram, and
    # every distance the same, bit for bit, on trees built from it
    first, second, metric = instance.first, instance.second, instance.metric
    rows = [
        (p.birth, p.death, part)
        for p in reversed(first.points)
        for part in (p.multiplicity // 2, p.multiplicity - p.multiplicity // 2)
        if part
    ]
    listed = PersistenceDiagram._from_columns(*(zip(*rows) if rows else ([], [], [])))
    assert PersistenceDiagram(rows) == listed == first and hash(listed) == hash(first)
    assert exact_distance(listed, second, metric) == exact_distance(first, second, metric)
    for method in ("flowtree", "embedding"):
        seeds = [instance.config.seed]
        assert multi_tree_estimate(listed, second, metric, seeds, method=method) == (
            multi_tree_estimate(first, second, metric, seeds, method=method)
        )


def test_matrix_is_complete():
    # every invariant of aim 3 runs on every family, or names why not
    tests = {name: test for name, test in globals().items() if hasattr(test, "out_of_reach")}
    assert len(tests) == 6
    for name, test in tests.items():
        (parametrize,) = [mark for mark in test.pytestmark if mark.name == "parametrize"]
        runs = [param.values[0] for param in parametrize.args[1]]
        assert sorted(runs + list(test.out_of_reach)) == sorted(FAMILIES), name
        assert all(test.out_of_reach.values()), name
