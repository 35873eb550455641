"""Tests for the greedy augmented matching and flowtree distance."""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dgmdist.quadtree
from dgmdist import (
    MAX_LEVELS,
    GroundMetric,
    PersistenceDiagram,
    TreeConfig,
    build_tree,
    exact_distance,
    gen_uniform,
    union_coords,
)
from dgmdist.embedding import embed, l1_distance
from dgmdist.flowtree import (
    KIND_CROSS,
    KIND_P_TO_DIAGONAL,
    KIND_Q_TO_DIAGONAL,
    flowtree_distance,
    flowtree_distances,
    greedy_match,
    multi_tree_estimate,
    write_matching,
)

from helpers import pair_tree, random_pair

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
            if matching.root_fallback:
                continue
            for pair in matching.pairs:
                assert pair.distance <= tree.side(pair.level) * SQRT2 * (1 + 1e-12)

    def test_residuals_never_increase(self):
        first, second = random_pair(17, max_points=12)
        tree = pair_tree(first, second, seed=6)
        residuals = [r for _, r in greedy_match(tree, first, second).level_residuals]
        assert all(a >= b for a, b in zip(residuals, residuals[1:]))

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
            if matching.root_fallback or tree.truncated:
                continue
            d_embed = l1_distance(embed(tree, first), embed(tree, second))
            assert matching.cost <= 2 * SQRT2 * d_embed + 1e-9

    def test_supports_all_ground_metrics(self):
        first, second = random_pair(3, max_points=8)
        for metric in GroundMetric:
            tree = pair_tree(first, second, seed=2, metric=metric)
            cost = flowtree_distance(tree, first, second, metric)
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


def per_pair_costs(tree, query, candidates, metric):
    return [greedy_match(tree, query, c, metric).cost for c in candidates]


@st.composite
def batches(draw):
    """(tree, query, candidates, metric) over a shared pool of points.

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
    return build_tree(pool, config), query, candidates, metric


class TestFlowtreeDistances:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(batches())
    def test_equals_per_pair_costs(self, batch):
        tree, query, candidates, metric = batch
        assert flowtree_distances(tree, query, candidates, metric) == per_pair_costs(
            tree, query, candidates, metric
        )

    @pytest.mark.parametrize("metric", list(GroundMetric))
    def test_empty_query_and_candidates(self, metric):
        empty = PersistenceDiagram()
        query, other = gen_uniform(30, 1), gen_uniform(25, 2)
        tree = build_tree(
            union_coords((query, other)), TreeConfig(seed=4, ground_metric=metric)
        )
        for q, cands in ((query, [empty, other, empty]), (empty, [other, empty, query])):
            costs = flowtree_distances(tree, q, cands, metric)
            assert costs == per_pair_costs(tree, q, cands, metric)
        assert flowtree_distances(tree, empty, [empty], metric) == [0.0]
        assert flowtree_distances(tree, query, [], metric) == []

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
        assert flowtree_distances(tree, query, candidates, metric) == per_pair_costs(
            tree, query, candidates, metric
        )


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
            for meta in metas:
                meta.pop("root_fallback", None)
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
        assert value == l1_distance(embed(tree, first), embed(tree, second))

    def test_validates_arguments(self):
        first, second = random_pair(1)
        with pytest.raises(ValueError):
            multi_tree_estimate(first, second, GroundMetric.L2, seeds=[])
        with pytest.raises(ValueError):
            multi_tree_estimate(first, second, GroundMetric.L2, [1], reduce="max")
        with pytest.raises(ValueError):
            multi_tree_estimate(first, second, GroundMetric.L2, [1], method="magic")

    def test_both_empty_is_zero(self):
        empty = PersistenceDiagram()
        assert multi_tree_estimate(empty, empty, GroundMetric.L2, seeds=[1]) == (0.0, [])


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
