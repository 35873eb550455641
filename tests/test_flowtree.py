"""Tests for the greedy augmented matching and flowtree distance."""

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dgmdist.quadtree
import reference
from dgmdist import (
    MAX_LEVELS,
    GroundMetric,
    PersistenceDiagram,
    PlacedDiagrams,
    ShiftedQuadtree,
    TreeConfig,
    build_tree,
    exact_distance,
    gen_gaussian,
    gen_uniform,
    union_coords,
)
from dgmdist.embedding import embed, l1_distance
from dgmdist.flowtree import (
    KIND_CROSS,
    KIND_P_TO_DIAGONAL,
    KIND_Q_TO_DIAGONAL,
    flowtree_distance,
    greedy_match,
    multi_tree_estimate,
    write_matching,
)

from helpers import pair_tree, placed_levels, random_pair

SQRT2 = math.sqrt(2.0)


def consumed_mass(matching, side):
    """point -> matched mass for one diagram ('p' or 'q')."""
    totals = Counter()
    for pair in matching.pairs:
        if pair.kind == KIND_CROSS:
            point = pair.source if side == "p" else pair.target
        elif pair.kind == KIND_P_TO_DIAGONAL and side == "p":
            point = pair.source
        elif pair.kind == KIND_Q_TO_DIAGONAL and side == "q":
            point = pair.target
        else:
            continue
        totals[point] += pair.mass
    return totals


class TestGreedyMatch:
    def test_identical_diagrams_match_at_zero_cost(self):
        d = gen_uniform(12, 3)
        tree = pair_tree(d, d, seed=1)
        matching = greedy_match(tree, d, d)
        assert matching.cost == 0.0
        assert all(p.kind == KIND_CROSS for p in matching.pairs)
        assert all(p.source == p.target for p in matching.pairs)

    def test_single_point_versus_empty(self):
        d = PersistenceDiagram([(0, 4)])
        tree = build_tree(d.coords(), TreeConfig(seed=2))
        matching = greedy_match(tree, d, PersistenceDiagram())
        assert len(matching.pairs) == 1
        pair = matching.pairs[0]
        assert pair.kind == KIND_P_TO_DIAGONAL
        assert pair.source == (0.0, 4.0)
        assert pair.target == (2.0, 2.0)
        assert matching.cost == pytest.approx(2 * SQRT2)

    def test_every_point_fully_consumed(self):
        for seed in range(15):
            first, second = random_pair(seed, max_points=12)
            tree = pair_tree(first, second, seed=seed + 30)
            matching = greedy_match(tree, first, second)
            by_p = consumed_mass(matching, "p")
            by_q = consumed_mass(matching, "q")
            assert by_p == {
                (p.birth, p.death): p.multiplicity for p in first
            }
            assert by_q == {
                (p.birth, p.death): p.multiplicity for p in second
            }

    def test_pair_forms_are_legal(self):
        first, second = random_pair(21, max_points=10)
        tree = pair_tree(first, second, seed=4)
        p_points = {(p.birth, p.death) for p in first}
        q_points = {(p.birth, p.death) for p in second}
        for pair in greedy_match(tree, first, second).pairs:
            if pair.kind == KIND_CROSS:
                assert pair.source in p_points and pair.target in q_points
            elif pair.kind == KIND_P_TO_DIAGONAL:
                assert pair.source in p_points
                mid = 0.5 * (pair.source[0] + pair.source[1])
                assert pair.target == (mid, mid)
            else:
                assert pair.kind == KIND_Q_TO_DIAGONAL
                assert pair.target in q_points
                mid = 0.5 * (pair.target[0] + pair.target[1])
                assert pair.source == (mid, mid)

    def test_swap_mirrors_pairs_at_equal_cost(self):
        first, second = random_pair(13, max_points=10)
        tree = pair_tree(first, second, seed=5)
        forward = greedy_match(tree, first, second)
        backward = greedy_match(tree, second, first)
        assert forward.cost == backward.cost

        def canonical(matching, flip):
            flip_kind = {
                KIND_CROSS: KIND_CROSS,
                KIND_P_TO_DIAGONAL: KIND_Q_TO_DIAGONAL,
                KIND_Q_TO_DIAGONAL: KIND_P_TO_DIAGONAL,
            }
            out = []
            for p in matching.pairs:
                if flip:
                    out.append((p.target, p.source, p.mass, flip_kind[p.kind], p.level))
                else:
                    out.append((p.source, p.target, p.mass, p.kind, p.level))
            return Counter(out)

        assert canonical(forward, flip=False) == canonical(backward, flip=True)

    def test_level_cost_bound(self):
        # under L2, anything matched inside a level-l cell moves at most
        # side(l) * sqrt(2) per unit
        for seed in range(10):
            first, second = random_pair(seed + 40, max_points=10)
            tree = pair_tree(first, second, seed=seed)
            matching = greedy_match(tree, first, second)
            for pair in matching.pairs:
                assert pair.distance <= tree.side(pair.level) * SQRT2 * (1 + 1e-12)

    def test_residuals_never_increase(self):
        first, second = random_pair(17, max_points=12)
        tree = pair_tree(first, second, seed=6)
        residuals = [r for _, r in greedy_match(tree, first, second).level_residuals]
        assert all(a >= b for a, b in zip(residuals, residuals[1:]))

    def test_residuals_past_int64_totals(self):
        # the two diagrams' summed multiplicity passes 2**63: the residuals
        # are counted in Python ints, not wrapped int64 sums
        first = PersistenceDiagram([(0.0, 100.0, 2**63 - 1)])
        second = PersistenceDiagram([(0.5, 100.0, 2**63 - 1)])
        tree = build_tree(union_coords((first, second)), TreeConfig(seed=0))
        matching = greedy_match(tree, first, second)
        _, cost, residuals, _ = reference.greedy_match(tree, first, second, GroundMetric.L2)
        assert matching.level_residuals[0] == (0, 2 * (2**63 - 1))
        assert (matching.cost, matching.level_residuals) == (cost, residuals)

    def test_outside_point_rejected(self):
        d = PersistenceDiagram([(0, 4)])
        far = PersistenceDiagram([(50, 90)])
        tree = build_tree(d.coords(), TreeConfig(seed=0))
        with pytest.raises(ValueError):
            greedy_match(tree, d, far)


class TestFlowtreeDistance:
    def test_zero_on_identical(self):
        d = gen_uniform(9, 5)
        tree = pair_tree(d, d, seed=3)
        assert flowtree_distance(tree, d, d) == 0.0

    def test_versus_empty_pays_all_diagonal_distances(self):
        for seed in range(10):
            first, _ = random_pair(seed, max_points=10)
            empty = PersistenceDiagram()
            tree = build_tree(first.coords(), TreeConfig(seed=seed * 7))
            expected = math.fsum(
                p.multiplicity * p.lifetime / SQRT2 for p in first
            )
            assert flowtree_distance(tree, first, empty) == pytest.approx(expected)

    def test_upper_bounds_exact_on_every_tree(self):
        first = gen_uniform(6, 31)
        second = gen_uniform(6, 32)
        d_true = exact_distance(first, second, GroundMetric.L2)
        for seed in range(100):
            tree = pair_tree(first, second, seed=seed)
            assert d_true <= flowtree_distance(tree, first, second) + 1e-9

    def test_two_singletons_sandwiched_per_seed(self):
        first = PersistenceDiagram([(0, 4)])
        second = PersistenceDiagram([(0, 6)])
        d_true = exact_distance(first, second, GroundMetric.L2)
        for seed in range(50):
            tree = pair_tree(first, second, seed=seed)
            cost = flowtree_distance(tree, first, second)
            d_embed = l1_distance(embed(tree, first), embed(tree, second))
            assert d_true <= cost + 1e-9
            assert cost <= 2 * SQRT2 * d_embed + 1e-9

    def test_chained_below_embedding_distance(self):
        for seed in range(20):
            first, second = random_pair(seed + 60, max_points=15)
            tree = pair_tree(first, second, seed=seed)
            matching = greedy_match(tree, first, second)
            if tree.truncated:
                continue
            d_embed = l1_distance(embed(tree, first), embed(tree, second))
            assert matching.cost <= 2 * SQRT2 * d_embed + 1e-9

    def test_supports_all_ground_metrics(self):
        first, second = random_pair(3, max_points=8)
        for metric in GroundMetric:
            tree = pair_tree(first, second, seed=2, metric=metric)
            cost = flowtree_distance(tree, first, second)
            assert cost >= exact_distance(first, second, metric) - 1e-9


    def test_builds_no_pair_objects(self, monkeypatch):
        # the cost comes from the pair arrays; MatchPairs are built only
        # when .pairs is read
        first, second = gen_uniform(200, 1), gen_uniform(200, 2)
        tree = pair_tree(first, second, 3)
        expected = greedy_match(tree, first, second).pairs

        def refuse(*args, **kwargs):
            raise AssertionError("MatchPair built")

        monkeypatch.setattr("dgmdist.flowtree.MatchPair", refuse)
        flowtree_distance(tree, first, second)
        multi_tree_estimate(first, second, GroundMetric.L2, [3, 4])
        matching = greedy_match(tree, first, second)
        monkeypatch.undo()
        assert matching.pairs == expected


@st.composite
def l2_pairs(draw):
    """(tree, first, second): an L2 pair on an untruncated tree over its own
    points. The points come from a shared pool on a grid of 1/1000 of the
    scale, at offsets up to 1e11; multiplicities run up to 3 or up to 10^6,
    and the second diagram may be empty."""
    offset = draw(st.sampled_from([0.0, -250.0, 3e4, 1e11]))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    raw = draw(
        st.lists(st.tuples(st.integers(-1000, 1000), st.integers(1, 1000)), min_size=1, max_size=10)
    )
    pool = []
    for b, life in raw:
        birth = offset + scale * b / 1000
        pool.append((birth, birth + scale * life / 1000 + abs(birth) * 1e-9))
    max_mult = draw(st.sampled_from([3, 10**6]))

    def diagram(min_size):
        picks = draw(
            st.lists(
                st.tuples(st.integers(0, len(pool) - 1), st.integers(1, max_mult)),
                min_size=min_size,
                max_size=12,
            )
        )
        return PersistenceDiagram([(*pool[i], m) for i, m in picks])

    first, second = diagram(1), diagram(0)
    config = TreeConfig(seed=draw(st.integers(0, 2**32 - 1)), ground_metric=GroundMetric.L2)
    return build_tree(union_coords((first, second)), config), first, second


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(l2_pairs())
def test_flowtree_within_sqrt8_of_embedding_exactly(instance):
    # the sandwich's upper half, flowtree <= sqrt(8) * embedding, compared
    # in exact arithmetic with no tolerance, on every drawn pair: clusters
    # far from the diagonal compared with their spread included, since the
    # root meets the diagonal
    tree, first, second = instance
    assert not tree.truncated
    flowtree = Fraction(flowtree_distance(tree, first, second))
    embedding = Fraction(PlacedDiagrams(tree, [first, second]).embedding_row(0, [1])[0])
    assert flowtree**2 <= 8 * embedding**2


def per_pair_costs(tree, query, candidates):
    return [greedy_match(tree, query, c).cost for c in candidates]


@st.composite
def batches(draw):
    """(tree, query, candidates) over a shared pool of points.

    As test_reference's instances: offsets up to 1e11, a possible
    near-duplicate that truncates a small-cap tree, multiplicities up to 3 or
    up to 10^6, and diagrams that may be empty.
    """
    offset = draw(st.sampled_from([0.0, -250.0, 3e4, 1e11]))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    raw = draw(
        st.lists(
            st.tuples(st.floats(-1.0, 1.0), st.floats(1e-3, 1.0)),
            min_size=1,
            max_size=10,
        )
    )
    pool = []
    for b, life in raw:
        birth = offset + scale * b
        pool.append((birth, birth + scale * life + abs(birth) * 1e-9))
    if draw(st.booleans()):
        birth, death = pool[0]
        pool.append((birth, math.nextafter(death, math.inf)))
    max_mult = draw(st.sampled_from([3, 10**6]))

    def diagram():
        picks = draw(
            st.lists(
                st.tuples(st.integers(0, len(pool) - 1), st.integers(1, max_mult)),
                max_size=12,
            )
        )
        return PersistenceDiagram([(*pool[i], m) for i, m in picks])

    query = diagram()
    candidates = [diagram() for _ in range(draw(st.integers(0, 8)))]
    metric = draw(st.sampled_from(list(GroundMetric)))
    config = TreeConfig(
        seed=draw(st.integers(0, 2**32 - 1)),
        max_levels_cap=draw(st.sampled_from([2, 3, 5, 12, 40])),
        ground_metric=metric,
    )
    return build_tree(pool, config), query, candidates


def query_row(tree, query, candidates):
    """flowtree_row of query against every candidate, placed together."""
    placed = PlacedDiagrams(tree, [query, *candidates])
    return placed.flowtree_row(0, range(1, len(candidates) + 1))


class TestFlowtreeDistances:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(batches())
    def test_equals_per_pair_costs(self, batch):
        tree, query, candidates = batch
        assert query_row(tree, query, candidates) == per_pair_costs(tree, query, candidates)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(batches(), st.data())
    def test_placed_rows_equal_per_pair_costs(self, batch, data):
        # any diagram against any list of them, itself and repeats included
        tree, query, candidates = batch
        diagrams = [query, *candidates]
        placed = PlacedDiagrams(tree, diagrams)
        i = data.draw(st.integers(0, len(diagrams) - 1))
        js = data.draw(st.lists(st.integers(0, len(diagrams) - 1), max_size=10))
        expected = per_pair_costs(tree, diagrams[i], [diagrams[j] for j in js])
        assert placed.flowtree_row(i, js) == expected

    def test_placed_rows_check_indices(self):
        first, second = gen_uniform(10, 1), gen_uniform(10, 2)
        placed = PlacedDiagrams(pair_tree(first, second, 3), [first, second])
        assert len(placed) == 2
        assert placed.flowtree_row(1, []) == []
        for i, js in ((2, [0]), (-1, [0]), (0, [2]), (0, [-1, 1])):
            with pytest.raises(IndexError):
                placed.flowtree_row(i, js)

    def test_batched_rows_past_int64_totals(self):
        # the query and the two candidates each carry about 2**62 points, so
        # one batch of both pairs would hold more than 2**63 mass
        query = PersistenceDiagram([(0.0, 100.0, 2**62), (50.0, 60.0)])
        candidates = [
            PersistenceDiagram([(0.5, 100.0, 2**62), (50.0, 60.0)]),
            PersistenceDiagram([(0.25, 100.0, 2**62 - 2), (50.0, 60.0)]),
        ]
        diagrams = [query, *candidates]
        tree = build_tree(union_coords(diagrams), TreeConfig(seed=0))
        placed = PlacedDiagrams(tree, diagrams)
        costs = [reference.greedy_match(tree, query, c, GroundMetric.L2)[1] for c in candidates]
        assert placed.flowtree_row(0, [1, 2]) == per_pair_costs(tree, query, candidates) == costs
        assert placed.embedding_row(0, [1, 2]) == [
            reference.embedding_cost(tree, query, c) for c in candidates
        ]

    @pytest.mark.parametrize("metric", list(GroundMetric))
    def test_empty_query_and_candidates(self, metric):
        empty = PersistenceDiagram()
        query, other = gen_uniform(30, 1), gen_uniform(25, 2)
        tree = build_tree(
            union_coords((query, other)), TreeConfig(seed=4, ground_metric=metric)
        )
        for q, cands in ((query, [empty, other, empty]), (empty, [other, empty, query])):
            costs = query_row(tree, q, cands)
            assert costs == per_pair_costs(tree, q, cands)
        assert query_row(tree, empty, [empty]) == [0.0]
        assert query_row(tree, query, []) == []

    @pytest.mark.parametrize("metric", list(GroundMetric))
    def test_identical_and_repeated_candidates(self, metric):
        # a candidate equal to the query meets it in every finest cell and
        # costs exactly 0.0; repeats of one candidate cost the same each time
        query, other = gen_uniform(30, 5), gen_gaussian(25, 6)
        tree = build_tree(
            union_coords((query, other)), TreeConfig(seed=8, ground_metric=metric)
        )
        candidates = [query, other, other, query, other]
        costs = query_row(tree, query, candidates)
        assert costs == per_pair_costs(tree, query, candidates)
        assert costs[0] == costs[3] == 0.0
        assert costs[1] == costs[2] == costs[4] == reference.greedy_match(
            tree, query, other, metric
        )[1]

    @pytest.mark.parametrize("metric", list(GroundMetric))
    def test_candidate_meeting_the_query_only_at_the_root(self, metric):
        # the root touches the diagonal at its lower right corner, and the
        # query and the candidate sit in its two upper quarters, clear of
        # the diagonal: they share no cell below the root, and the root
        # sends every point to the diagonal before any cross match
        tree = ShiftedQuadtree(
            origin=(0.0, 16.0),
            root_side=16.0,
            level_hi=4,
            shift=(0.0, 0.0),
            spread=16.0,
            seed=0,
            ground_metric=metric,
            min_separation=0.5,
        )
        query = PersistenceDiagram([(1.0, 25.0, 2), (3.0, 30.0)])
        candidate = PersistenceDiagram([(9.0, 26.0), (15.0, 31.0, 4)])
        shared = [
            set(zip(ix.tolist(), iy.tolist()))
            for diagram in (query, candidate)
            for _, ix, iy, _ in placed_levels(tree, diagram.coords())
        ]
        levels = tree.num_levels
        assert all(not shared[k] & shared[levels + k] for k in range(levels - 1))
        matching = greedy_match(tree, query, candidate)
        assert set(matching.level.tolist()) == {tree.level_hi}
        assert (matching.partner == -1).all()
        _, cost, residuals, root_fallback = reference.greedy_match(
            tree, query, candidate, metric
        )
        assert (matching.cost, matching.level_residuals) == (cost, residuals)
        assert not root_fallback
        assert query_row(tree, query, [candidate, query, candidate]) == [
            cost,
            0.0,
            cost,
        ]

    @settings(max_examples=6, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_deepest_tree_past_one_walk(self, data):
        # more candidates than one walk packs on a 48-level tree: pair
        # index · 2^47 + ix would exceed 2^53 at the finest level. The points
        # lie on one row of finest cells at uneven gaps, so cells merged by
        # an inexact key would change the matching and its cost.
        metric = data.draw(st.sampled_from(list(GroundMetric)))
        anchors = [(0.0, 1e-200), (0.0, 8.0), (8.0, 16.0)]
        config = TreeConfig(seed=5, max_levels_cap=MAX_LEVELS, ground_metric=metric)
        tree = build_tree(anchors, config)
        assert tree.num_levels == MAX_LEVELS and tree.truncated
        side = tree.side(0)
        gaps = data.draw(st.lists(st.floats(0.0, 0.99), min_size=24, max_size=24))
        row = [(3.0 + (i + gap) * side, 8.0) for i, gap in enumerate(gaps)]

        def diagram():
            picks = data.draw(
                st.lists(
                    st.tuples(st.integers(0, len(row) - 1), st.integers(1, 10**6)),
                    max_size=8,
                )
            )
            return PersistenceDiagram([(*row[i], m) for i, m in picks])

        query = diagram()
        candidates = [diagram() for _ in range(data.draw(st.integers(65, 140)))]
        assert query_row(tree, query, candidates) == per_pair_costs(tree, query, candidates)
        placed = PlacedDiagrams(tree, [query, *candidates])
        assert placed.embedding_row(0, range(1, len(candidates) + 1)) == [
            reference.embedding_cost(tree, query, c) for c in candidates
        ]


class TestMultiTree:
    def test_geometry_computed_once(self, monkeypatch):
        # five seeds share one minimum-separation search; every tree equals
        # the one build_tree makes for its seed
        first, second = random_pair(41, max_points=20)
        calls = []
        separation = dgmdist.quadtree._min_separation

        def counting(*args):
            calls.append(args)
            return separation(*args)

        monkeypatch.setattr(dgmdist.quadtree, "_min_separation", counting)
        seeds = [3, 1, 4, 1, 5]
        for method in ("flowtree", "embedding"):
            calls.clear()
            _, metas = multi_tree_estimate(
                first, second, GroundMetric.L1, seeds, method=method
            )
            assert len(calls) == 1
            expected = [
                pair_tree(first, second, seed, GroundMetric.L1).meta() for seed in seeds
            ]
            assert metas == expected

    def test_single_seed_matches_direct_call(self):
        first, second = random_pair(19, max_points=10)
        value, _ = multi_tree_estimate(
            first, second, GroundMetric.L2, seeds=[123], reduce="mean"
        )
        tree = pair_tree(first, second, seed=123)
        assert value == flowtree_distance(tree, first, second)

    def test_min_below_mean(self):
        first, second = random_pair(23, max_points=10)
        seeds = list(range(10))
        low, _ = multi_tree_estimate(first, second, GroundMetric.L2, seeds, reduce="min")
        mid, _ = multi_tree_estimate(first, second, GroundMetric.L2, seeds, reduce="mean")
        assert low <= mid

    def test_min_still_upper_bounds_exact(self):
        for seed in range(10):
            first, second = random_pair(seed + 80, max_points=8)
            d_true = exact_distance(first, second, GroundMetric.L2)
            low, _ = multi_tree_estimate(
                first, second, GroundMetric.L2, seeds=list(range(10)), reduce="min"
            )
            assert d_true <= low + 1e-9

    def test_embedding_method(self):
        first, second = random_pair(29, max_points=8)
        value, _ = multi_tree_estimate(
            first, second, GroundMetric.L2, seeds=[7], method="embedding"
        )
        tree = pair_tree(first, second, seed=7)
        assert value == reference.embedding_cost(tree, first, second)

    def test_validates_arguments(self):
        first, second = random_pair(1)
        with pytest.raises(ValueError):
            multi_tree_estimate(first, second, GroundMetric.L2, seeds=[])
        with pytest.raises(ValueError):
            multi_tree_estimate(first, second, GroundMetric.L2, [1], reduce="max")
        with pytest.raises(ValueError):
            multi_tree_estimate(first, second, GroundMetric.L2, [1], method="magic")

    def test_single_point_embedding_same_on_every_seed(self):
        # the root over one point meets the diagonal on every shift: the
        # point retires there on every seed, its cell clear of the diagonal
        # on the three levels below, of sides 1/8, 1/4 and 1/2
        first, empty = PersistenceDiagram([(0.0, 1.0)]), PersistenceDiagram()
        values = set()
        for seed in range(8):
            value, _ = multi_tree_estimate(
                first, empty, GroundMetric.LINF, [seed], method="embedding"
            )
            values.add(value)
            tree = pair_tree(first, empty, seed, GroundMetric.LINF)
            assert reference.greedy_match(tree, first, empty, GroundMetric.LINF)[3] is False
        assert values == {0.875}

    def test_both_empty_is_zero(self):
        empty = PersistenceDiagram()
        assert multi_tree_estimate(empty, empty, GroundMetric.L2, seeds=[1]) == (0.0, [])


def pinned_instances():
    """name -> (first, second, tree config) of the pinned matching files: a
    truncated 40-level tree, the deepest (48-level) tree under L1, a pair
    far from the diagonal compared with its spread under L-infinity, a
    near-diagonal gaussian pair and a uniform pair under L1, with
    multiplicities up to 10^6."""
    return {
        "forty_levels": (
            PersistenceDiagram([(0.0, 4.0, 2), (1e8, 2e8), (2.0, 6.0, 10**6)]),
            PersistenceDiagram(
                [(0.0, math.nextafter(4.0, math.inf)), (1.0, 9.0, 3), (2.5, 6.5, 999_999)]
            ),
            TreeConfig(seed=17),
        ),
        "deepest": (
            PersistenceDiagram([(0.0, 1e-200), (3.0, 5.0, 2), (1e-300, 4.0)]),
            PersistenceDiagram([(1e-100, 3e-100, 10**6), (2.0, 7.0)]),
            TreeConfig(seed=5, max_levels_cap=MAX_LEVELS, ground_metric=GroundMetric.L1),
        ),
        "far_from_diagonal": (
            PersistenceDiagram([(0.0, 100.0, 3), (0.25, 100.5)]),
            PersistenceDiagram([(1.0, 101.0)]),
            TreeConfig(seed=3, ground_metric=GroundMetric.LINF),
        ),
        "gaussian": (gen_gaussian(14, 21), gen_gaussian(12, 22), TreeConfig(seed=7)),
        "uniform": (
            gen_uniform(9, 3),
            gen_uniform(8, 4),
            TreeConfig(seed=2, ground_metric=GroundMetric.L1),
        ),
    }


# The matching files of pinned_instances, line for line and in order, as a
# walk that sorts every live point at every level writes them: a walk that
# sorts fewer rows must keep every line and the order of the lines.
PINNED_MATCHINGS = {
    'forty_levels': (
        'cross 0.0 4.0 0.0 4.000000000000001 1 8.881784197001252e-16',
        'cross 2.0 6.0 2.5 6.5 999999 707106.0740797664',
        'p_to_diagonal 0.0 4.0 2.0 2.0 1 2.8284271247461903',
        'p_to_diagonal 2.0 6.0 4.0 4.0 1 2.8284271247461903',
        'q_to_diagonal 5.0 5.0 1.0 9.0 3 16.970562748477143',
        'p_to_diagonal 100000000.0 200000000.0 150000000.0 150000000.0 1 70710678.11865476',
    ),
    'deepest': (
        'p_to_diagonal 0.0 1e-200 5e-201 5e-201 1 1e-200',
        'q_to_diagonal 2e-100 2e-100 1e-100 3e-100 1000000 2e-94',
        'p_to_diagonal 3.0 5.0 4.0 4.0 2 4.0',
        'p_to_diagonal 1e-300 4.0 2.0 2.0 1 4.0',
        'q_to_diagonal 4.5 4.5 2.0 7.0 1 5.0',
    ),
    'far_from_diagonal': (
        'cross 0.25 100.5 1.0 101.0 1 0.75',
        'p_to_diagonal 0.0 100.0 50.0 50.0 3 150.0',
    ),
    'gaussian': (
        'p_to_diagonal 135.19643698434137 135.1992172061486 135.19782709524497 135.19782709524497 1 0.0019659136930937396',
        'p_to_diagonal 39.43854718898911 39.58554589076954 39.51204653987932 39.51204653987932 1 0.10394377885455806',
        'q_to_diagonal 10.07978348439947 10.07978348439947 10.02825901461659 10.13130795418235 1 0.07286660396103138',
        'q_to_diagonal 10.384250856093944 10.384250856093944 10.287753495051867 10.480748217136021 1 0.13646787671891902',
        'p_to_diagonal 22.480616669468457 22.695441597147376 22.588029133307916 22.588029133307916 1 0.15190416312967306',
        'p_to_diagonal 198.54832554731857 198.67282249131728 198.61057401931794 198.61057401931794 1 0.08803263333848783',
        'q_to_diagonal 40.304981621399406 40.304981621399406 39.85907587501658 40.75088736778223 1 0.6306059540746871',
        'p_to_diagonal 84.68103447195121 85.30942873622153 84.99523160408637 84.99523160408637 1 0.4443418455242794',
        'p_to_diagonal 121.1694059141936 122.13829127965026 121.65384859692193 121.65384859692193 1 0.6851054121068086',
        'p_to_diagonal 126.14288317478086 127.16727450983542 126.65507884230814 126.65507884230814 1 0.7243540596058199',
        'q_to_diagonal 130.8634833036866 130.8634833036866 130.638337520184 131.0886290871892 1 0.3184042205404899',
        'p_to_diagonal 134.4118513053574 135.30438641697222 134.85811886116483 134.85811886116483 1 0.6311176298699308',
        'q_to_diagonal 167.57398150566692 167.57398150566692 167.3922646474089 167.75569836392495 1 0.2569864454603325',
        'cross 17.81957458444179 19.0293904193404 17.71167465225578 19.30551731800103 1 0.29645987844847066',
        'p_to_diagonal 41.89709480129904 43.48184071563867 42.68946775846885 42.68946775846885 1 1.1205845824872265',
        'q_to_diagonal 92.30451744064986 92.30451744064986 91.86740894878935 92.74162593251037 1 0.6181647574175878',
        'q_to_diagonal 111.7255813603694 111.7255813603694 111.06903107230812 112.38213164843067 1 0.9285023217562182',
        'q_to_diagonal 121.90094820249885 121.90094820249885 121.49290527053344 122.30899113446425 1 0.577059848415957',
        'p_to_diagonal 141.96023808168502 144.14345208315765 143.05184508242132 143.05184508242132 1 1.5437654252227173',
        'q_to_diagonal 170.89046526359914 170.89046526359914 170.31361397022616 171.46731655697215 1 0.8157909225605529',
        'p_to_diagonal 191.65328907316848 192.47316239574036 192.06322573445442 192.06322573445442 1 0.5797379861045219',
        'p_to_diagonal 196.16214044489055 197.44741289970284 196.8047766722967 196.8047766722967 1 0.9088248684700483',
        'q_to_diagonal 74.34714872561587 74.34714872561587 73.26938308641522 75.42491436481652 1 1.524190784017266',
        'p_to_diagonal 156.2235177634942 157.77732093778383 157.000419350639 157.000419350639 1 1.098704761169388',
        'q_to_diagonal 198.39501040299837 198.39501040299837 197.53512377604034 199.2548970299564 1 1.2160633299473003',
    ),
    'uniform': (
        'cross 116.43240721287356 195.48175630698972 121.47116639900592 198.32716473160764 1 7.884167610750282',
        'cross 47.36210131921994 146.20116927072792 34.90556322880569 132.91781399178467 1 25.739893369357496',
        'p_to_diagonal 17.129833428724872 49.284256638385564 33.20704503355522 33.20704503355522 1 32.15442320966069',
        'p_to_diagonal 31.947782927415712 108.12853496488785 70.03815894615178 70.03815894615178 1 76.18075203747213',
        'p_to_diagonal 146.9154302818429 246.19800041957046 196.55671535070667 196.55671535070667 1 99.28257013772756',
        'p_to_diagonal 160.2548930412794 232.46680513157068 196.36084908642505 196.36084908642505 1 72.21191209029129',
        'cross 18.825728448079836 183.81838931990646 16.167204779120436 151.59902319989493 1 34.87788978897093',
        'cross 86.62538804729476 244.06123959480212 102.26551056287232 209.8214857265587 1 49.87987638382097',
        'cross 95.8102596281668 291.0702221192354 160.38024139716146 297.787445675804 1 71.28720532556328',
        'q_to_diagonal 237.1564155271306 237.1564155271306 188.61122111447352 285.70160993978766 1 97.09038882531414',
        'q_to_diagonal 242.50282382220826 242.50282382220826 195.24874114154082 289.7569065028757 1 94.5081653613349',
        'q_to_diagonal 163.9365390127114 163.9365390127114 75.29731687545451 252.5757611499683 1 177.2784442745138',
    ),
}


class TestMatchingOrder:
    @pytest.mark.parametrize("name", sorted(PINNED_MATCHINGS))
    def test_matching_file_pinned(self, tmp_path, name):
        first, second, config = pinned_instances()[name]
        tree = build_tree(union_coords((first, second)), config)
        matching = greedy_match(tree, first, second)
        assert tree.truncated == (name in ("forty_levels", "deepest"))
        write_matching(matching, tmp_path / "m.match")
        expected = "".join(line + "\n" for line in PINNED_MATCHINGS[name])
        assert (tmp_path / "m.match").read_bytes() == expected.encode()


class TestMatchingDump:
    def test_dump_format_and_determinism(self, tmp_path):
        first, second = random_pair(37, max_points=6)
        tree = pair_tree(first, second, seed=11)
        matching = greedy_match(tree, first, second)
        write_matching(matching, tmp_path / "one.txt")
        write_matching(matching, tmp_path / "two.txt")
        text = (tmp_path / "one.txt").read_text()
        assert text == (tmp_path / "two.txt").read_text()
        for line in text.splitlines():
            fields = line.split()
            assert len(fields) == 7
            assert fields[0] in (KIND_CROSS, KIND_P_TO_DIAGONAL, KIND_Q_TO_DIAGONAL)
            assert int(fields[5]) >= 1
