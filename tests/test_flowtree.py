"""Tests for the greedy augmented matching and flowtree distance."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dgmdist._rows
import dgmdist.flowtree
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
    knn_distances,
    union_coords,
)
from dgmdist._rows import group_cells, group_rows
from dgmdist.flowtree import (
    KIND_CROSS,
    KIND_P_TO_DIAGONAL,
    KIND_Q_TO_DIAGONAL,
    flowtree_distance,
    greedy_match,
    multi_tree_estimate,
    write_matching,
)

from families import ANCHOR, CAPS, METRICS, SEEDS, instances, points
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

    def test_l2_pair_past_the_square_range(self):
        # the differences square past the float range: exact, the flowtree
        # and the tree's minimum separation all read the gap itself
        first = PersistenceDiagram([(0.0, 1e300)])
        second = PersistenceDiagram([(1e200, 1e300)])
        assert exact_distance(first, second, GroundMetric.L2) == 1e200
        for seed in range(50):
            tree = pair_tree(first, second, seed=seed)
            assert tree.min_separation == 1e200
            assert flowtree_distance(tree, first, second) == 1e200

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


@settings(max_examples=150)
@given(
    instances(max_points=80, max_picks=40, metrics=[GroundMetric.L2]),
    st.sampled_from([2.0**-10, 1.0, 2.0**10, 2.0**665]),
)
def test_cross_pairs_cost_their_pairwise_entry(instance, scale):
    # one ground-metric kernel: a cross pair's per-unit distance is the exact
    # oracle's matrix entry for its two points, bit for bit, under L2 and
    # scales up to 2**665 (about 1e200), where the squares of the
    # differences overflow
    first, second = (
        PersistenceDiagram._from_columns(*(d.coords() * scale).T, d.multiplicities())
        for d in instance.diagrams
    )
    assume(first.total_count and second.total_count)
    tree = build_tree(union_coords((first, second)), instance.config)
    matching = greedy_match(tree, first, second)
    cross = matching.partner >= 0
    assume(cross.any())
    point, partner = matching.point[cross], matching.partner[cross] - matching.n_first
    matrix = GroundMetric.L2.pairwise(first.coords(), second.coords())
    assert matching.distance[cross].tobytes() == matrix[point, partner].tobytes()


def per_pair_costs(tree, query, candidates):
    return [greedy_match(tree, query, c).cost for c in candidates]


# (tree, query, candidates): up to 9 diagrams of one family's pool, with
# multiplicities up to 3 or up to 10^6, on a tree over the pool with a level
# cap down to 2
BATCHES = instances(count=1, max_count=9, max_mults=(3, 10**6), caps=CAPS).map(
    lambda instance: (instance.tree(), instance.first, list(instance.diagrams[1:]))
)


def query_row(tree, query, candidates):
    """flowtree_row of query against every candidate, placed together."""
    placed = PlacedDiagrams(tree, [query, *candidates])
    return placed.flowtree_row(0, range(1, len(candidates) + 1))


class TestFlowtreeDistances:
    @settings(max_examples=300)
    @given(BATCHES)
    def test_equals_per_pair_costs(self, batch):
        tree, query, candidates = batch
        assert query_row(tree, query, candidates) == per_pair_costs(tree, query, candidates)

    @settings(max_examples=150)
    @given(BATCHES, st.data())
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

    @settings(max_examples=6)
    @given(st.data())
    def test_deepest_tree_past_one_walk(self, data):
        # more candidates than 64 on a 48-level tree: pair index · 2^47 +
        # ix would exceed 2^53 at the finest level, where complex128 keys
        # would round. The points lie on one row of finest cells at uneven
        # gaps, so cells merged by an inexact key would change the matching
        # and its cost.
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


@st.composite
def stacked_jobs(draw, family=None):
    """(trees, diagrams, jobs) for one stacked walk: every diagram placed on
    every tree, and (tree, first, second) jobs among them, the diagrams'
    points drawn from a pool of the family (of any by default).

    The trees share a ground metric and span 2 to 48 levels: a 48-level tree
    truncated by a near-diagonal anchor point, a 2-level tree and up to two
    more of other seeds and caps, each built over a superset of the
    diagrams' points. A diagram may be empty or carry one multiplicity near
    2**62, so that large batches pass 2**63 mass; up to 70 jobs pass 64, past
    which a (job, cell x) key on a 48-level tree would not fit 53 bits. Jobs
    repeat and swap pairs.
    """
    metric = draw(st.sampled_from(METRICS))
    pool = draw(points(family, max_points=8))

    def tree(points, cap):
        seed = draw(SEEDS)
        return build_tree(points, TreeConfig(seed=seed, max_levels_cap=cap, ground_metric=metric))

    trees = [tree(pool + [ANCHOR], MAX_LEVELS), tree(pool, 2)]
    for _ in range(draw(st.integers(0, 2))):
        trees.append(tree(pool, draw(st.sampled_from([3, 5, 12, 40]))))

    def diagram():
        picks = draw(
            st.lists(st.tuples(st.integers(0, len(pool) - 1), st.integers(1, 10)), max_size=6)
        )
        points = [(*pool[i], m) for i, m in picks]
        if points and draw(st.booleans()):
            points[0] = (*pool[picks[0][0]], draw(st.integers(2**61, 2**62)))
        return PersistenceDiagram(points)

    diagrams = [PersistenceDiagram()] + [diagram() for _ in range(draw(st.integers(1, 4)))]
    job = st.tuples(
        st.integers(0, len(trees) - 1),
        st.integers(0, len(diagrams) - 1),
        st.integers(0, len(diagrams) - 1),
    )
    jobs = draw(st.lists(job, min_size=1, max_size=70))
    jobs += [(t, b, a) for t, a, b in jobs[:3]] + jobs[:2]
    return trees, diagrams, jobs


def stacked_indices(trees, diagrams, jobs):
    """The placement of every diagram on every tree, diagram d on tree t
    being diagram t * len(diagrams) + d, and the jobs' first and second
    diagram indices in it."""
    placed = PlacedDiagrams([t for t in trees for _ in diagrams], diagrams * len(trees))
    first = [t * len(diagrams) + a for t, a, _ in jobs]
    second = [t * len(diagrams) + b for t, _, b in jobs]
    return placed, first, second


def stacked_walk(trees, diagrams, jobs):
    """PlacedDiagrams.distances of the jobs (see stacked_indices), with the
    residual column of every job."""
    placed, first, second = stacked_indices(trees, diagrams, jobs)
    columns = []
    walk = dgmdist.flowtree._walk

    def recording(*args):
        result = walk(*args)
        columns.extend(result.residual.T.tolist())
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dgmdist.flowtree, "_walk", recording)
        costs = placed.distances(first, second)
    return placed, costs, columns


class TestStackedJobs:
    """PlacedDiagrams.distances over jobs on different trees: each job is
    walked exactly as greedy_match walks its pair on its own tree."""

    @settings(max_examples=60)
    @given(stacked_jobs())
    def test_every_job_equals_its_own_tree(self, case):
        trees, diagrams, jobs = case
        placed, costs, columns = stacked_walk(trees, diagrams, jobs)
        assert placed.levels == MAX_LEVELS and len(columns) == len(jobs)
        expected = {}
        for p, job in enumerate(jobs):
            if job not in expected:
                tree, a, b = trees[job[0]], diagrams[job[1]], diagrams[job[2]]
                expected[job] = (greedy_match(tree, a, b), reference.embedding_cost(tree, a, b))
            matching, embedding = expected[job]
            assert costs["flowtree"][p] == matching.cost
            assert costs["embedding"][p] == embedding
            residuals = [r for _, r in matching.level_residuals]
            assert columns[p] == residuals + [0] * (MAX_LEVELS - len(residuals))

    @settings(max_examples=60)
    @given(stacked_jobs(), st.data())
    def test_placement_equals_each_trees_own(self, case, data):
        # one sweep over levels places every diagram, each on its own tree
        # among trees of 2 to 48 levels, exactly as that tree's place does
        trees, diagrams, _ = case
        picks = data.draw(
            st.lists(st.integers(0, len(trees) - 1), min_size=2, max_size=3 * len(diagrams))
        )
        on = [trees[t] for t in picks]
        stacked = [diagrams[k % len(diagrams)] for k in range(len(picks))]
        placed = PlacedDiagrams(on, stacked)
        for d, (tree, diagram) in enumerate(zip(on, stacked)):
            rows = slice(placed.start[d], placed.start[d + 1])
            ix, iy, terminal_level = tree.place(diagram.coords())
            assert placed.ix[rows].tolist() == ix.tolist()
            assert placed.iy[rows].tolist() == iy.tolist()
            assert placed.terminal_level[rows].tolist() == terminal_level.tolist()

    def test_limits_split_the_batch(self):
        # 70 jobs on a 48-level and a 2-level tree, pairs near 2**62 + 2**62
        # mass each: the mass limit splits them into several walks
        heavy = PersistenceDiagram([(0.0, 2.0, 2**62), (1.0, 3.0)])
        other = PersistenceDiagram([(0.5, 2.0, 2**62 - 5), (1.0, 4.0, 3)])
        diagrams = [heavy, other, PersistenceDiagram(), gen_uniform(6, 2)]
        points = union_coords(diagrams)
        trees = [
            build_tree([*points, (0.0, 1e-200)], TreeConfig(seed=1, max_levels_cap=MAX_LEVELS)),
            build_tree(points, TreeConfig(seed=2, max_levels_cap=2)),
        ]
        assert trees[0].truncated and trees[1].num_levels == 2
        jobs = [(k % 2, k % 4, (k // 2) % 4) for k in range(70)]
        walks = []
        walk = dgmdist.flowtree._walk

        def counting(*args):
            result = walk(*args)
            walks.append(result.hi - result.lo)
            return result

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dgmdist.flowtree, "_walk", counting)
            _, costs, _ = stacked_walk(trees, diagrams, jobs)
        assert len(walks) > 2 and sum(walks) == len(jobs)
        for p, (t, a, b) in enumerate(jobs):
            assert costs["flowtree"][p] == greedy_match(trees[t], diagrams[a], diagrams[b]).cost
            assert costs["embedding"][p] == reference.embedding_cost(
                trees[t], diagrams[a], diagrams[b]
            )

    def test_row_budget_splits_the_batch(self):
        # three jobs of about 2/3 of the row budget each: one walk per job;
        # a job over the whole budget is walked alone
        big = [gen_uniform(dgmdist.flowtree._BATCH_ROWS // 3, seed) for seed in (1, 2, 3)]
        huge = gen_uniform(dgmdist.flowtree._BATCH_ROWS, 4)
        diagrams = [*big, huge]
        tree = build_tree(union_coords(diagrams), TreeConfig(seed=5))
        placed = PlacedDiagrams(tree, diagrams)
        walks = []
        walk = dgmdist.flowtree._walk

        def counting(*args):
            result = walk(*args)
            walks.append(result.hi - result.lo)
            return result

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dgmdist.flowtree, "_walk", counting)
            row = placed.flowtree_row(0, [1, 2, 3, 0])
        assert walks == [1, 1, 1, 1]
        assert row == per_pair_costs(tree, big[0], [big[1], big[2], huge, big[0]])

    def test_pairs_across_trees_rejected(self):
        first, second = gen_uniform(8, 1), gen_uniform(8, 2)
        points = union_coords((first, second))
        trees = [build_tree(points, TreeConfig(seed=s)) for s in (1, 2)]
        placed = PlacedDiagrams(trees, [first, second])
        assert placed.trees == trees and placed.distances([0], [0]) == {
            "flowtree": [0.0],
            "embedding": [0.0],
        }
        with pytest.raises(ValueError, match="share a tree"):
            placed.distances([0], [1])
        with pytest.raises(ValueError, match="one tree per diagram"):
            PlacedDiagrams(trees, [first])
        with pytest.raises(ValueError, match="unknown tree method"):
            placed.distances([0], [0], ("exact",))
        l1 = build_tree(points, TreeConfig(seed=1, ground_metric=GroundMetric.L1))
        with pytest.raises(ValueError, match="one ground metric"):
            PlacedDiagrams([trees[0], l1], [first, second])


@st.composite
def retirement_cases(draw):
    """(trees, diagrams, jobs, batch_rows) whose rows mostly retire: small
    near-diagonal gaussian diagrams, their births squeezed into a narrower
    band so that some rows meet one level below their terminal level, the
    first with a point terminal at the finest level, the last moved far
    from the others, so that all its rows retire against them, and an empty
    diagram. The trees are a 48-level tree, truncated by a near-diagonal
    anchor point, and a 2-level one. Jobs include swapped and self pairs;
    batch_rows is the row budget, down to a single row so that the walked
    rows span several walks."""
    metric = draw(st.sampled_from(METRICS))
    squeeze = draw(st.sampled_from([1.0, 0.1, 0.01]))
    diagrams = []
    for _ in range(draw(st.integers(2, 4))):
        coords = np.array(draw(points("gaussian", max_points=30)))
        births = coords[:, 0] * squeeze
        diagrams.append(PersistenceDiagram(zip(births, births + coords[:, 1] - coords[:, 0])))
    # a point one ulp off the diagonal, terminal on the finest level of the
    # 48-level tree, so that a self pair sends it to the diagonal there
    # next to cross pairs
    birth = float(diagrams[0].coords()[0, 0]) + 0.5
    diagrams[0] = PersistenceDiagram(
        [*diagrams[0].coords().tolist(), (birth, math.nextafter(birth, math.inf))]
    )
    far = diagrams[-1].coords() + draw(st.sampled_from([500.0, 1e6]))
    diagrams[-1] = PersistenceDiagram(far.tolist())
    diagrams.append(PersistenceDiagram())
    pool = union_coords(diagrams).tolist()
    seed = draw(SEEDS)
    trees = [
        build_tree(
            [*pool, ANCHOR], TreeConfig(seed=seed, max_levels_cap=MAX_LEVELS, ground_metric=metric)
        ),
        build_tree(pool, TreeConfig(seed=seed, max_levels_cap=2, ground_metric=metric)),
    ]
    job = st.tuples(
        st.integers(0, len(trees) - 1),
        st.integers(0, len(diagrams) - 1),
        st.integers(0, len(diagrams) - 1),
    )
    jobs = draw(st.lists(job, min_size=1, max_size=8))
    jobs += [(t, b, a) for t, a, b in jobs[:2]] + [(t, a, a) for t, a, _ in jobs[:2]]
    return trees, diagrams, jobs, draw(st.sampled_from([1, 8, 40, 1 << 13]))


def assert_reference_pairs(tree, matching, pairs):
    """matching's pairs equal the reference's pairs, compared as multisets
    pair for pair, and come in greedy_match's order: by level, each level's
    diagonal pairs first, by their cell one level down and then by point
    (at the finest level by point alone)."""
    assert sorted(
        (p.source, p.target, p.mass, p.kind, p.level, p.distance) for p in matching.pairs
    ) == sorted(pairs)
    ix, iy, _ = tree.place(matching.coords)
    keys = []
    for level, partner, point in zip(
        matching.level.tolist(), matching.partner.tolist(), matching.point.tolist()
    ):
        if partner >= 0:
            keys.append((level, 1, 0, 0, 0))
        else:
            down = max(level - 1, 0)
            cell = (ix[point] >> down, iy[point] >> down) if level else (0, 0)
            keys.append((level, 0, *cell, point))
    assert keys == sorted(keys)


def walk_rows(call):
    """call()'s result and the number of rows each of its walks took."""
    walked, walks = [], []
    chunk, walk = dgmdist.flowtree._chunk, dgmdist.flowtree._walk

    def chunking(*args):
        rows = chunk(*args)
        walked.extend(rows.job.tolist())
        return rows

    def counting(*args):
        result = walk(*args)
        walks.append(sum(result.lo <= j < result.hi for j in walked))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dgmdist.flowtree, "_chunk", chunking)
        patch.setattr(dgmdist.flowtree, "_walk", counting)
        result = call()
    return result, walks


class TestEarlyRetirement:
    """Rows that cannot cross-match before their terminal level go to the
    diagonal without being walked; nothing else changes."""

    @settings(max_examples=40)
    @given(retirement_cases())
    def test_distances_and_pairs_equal_the_reference(self, case):
        trees, diagrams, jobs, batch_rows = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dgmdist.flowtree, "_BATCH_ROWS", batch_rows)
            _, costs, columns = stacked_walk(trees, diagrams, jobs)
        assert len(columns) == len(jobs)
        metric = trees[0].ground_metric
        for p, (t, a, b) in enumerate(jobs):
            tree, first, second = trees[t], diagrams[a], diagrams[b]
            pairs, cost, residuals, _ = reference.greedy_match(tree, first, second, metric)
            assert costs["flowtree"][p] == cost
            assert costs["embedding"][p] == reference.embedding_cost(tree, first, second)
            assert columns[p] == [r for _, r in residuals] + [0] * (MAX_LEVELS - len(residuals))
            matching = greedy_match(tree, first, second)
            assert matching.cost == cost
            assert_reference_pairs(tree, matching, pairs)

    @pytest.mark.parametrize("metric", list(GroundMetric))
    def test_all_retired_jobs_walk_no_rows(self, metric):
        # near-diagonal clusters far apart meet only in cells that already
        # touch the diagonal, and an empty diagram meets nothing
        near = gen_gaussian(40, 1)
        far = PersistenceDiagram((gen_gaussian(30, 2).coords() + 1e6).tolist())
        diagrams = [near, far, PersistenceDiagram()]
        tree = build_tree(union_coords(diagrams), TreeConfig(seed=3, ground_metric=metric))
        placed = PlacedDiagrams(tree, diagrams)
        first, second = [0, 1, 0, 2, 1, 2], [1, 0, 2, 0, 2, 2]
        costs, rows = walk_rows(lambda: placed.distances(first, second))
        assert rows == [0]
        for p, (a, b) in enumerate(zip(first, second)):
            _, cost, _, _ = reference.greedy_match(tree, diagrams[a], diagrams[b], metric)
            assert costs["flowtree"][p] == cost
            assert costs["embedding"][p] == reference.embedding_cost(
                tree, diagrams[a], diagrams[b]
            )

    def test_knn_command_is_one_walk(self):
        # the shape of a knn command of the benchmark's near-diagonal
        # rounds: 40 diagrams of up to 300 points, split 4 : 36; most rows
        # retire, and the rest fit one walk
        rng = np.random.default_rng(1)
        diagrams = [
            gen_gaussian(round(300 * (i + 1) / 40), int(rng.integers(0, 2**31 - 1)))
            for i in range(40)
        ]
        order = rng.permutation(40).tolist()
        queries = [diagrams[i] for i in order[:4]]
        candidates = [diagrams[i] for i in order[4:]]
        for method in ("flowtree", "embedding"):
            _, rows = walk_rows(
                lambda: knn_distances(queries, candidates, method, GroundMetric.L2, seed=0)
            )
            assert len(rows) == 1 and rows[0] < dgmdist.flowtree._BATCH_ROWS


def int_column(data, n, bits):
    """n values below 2**bits, few of them distinct, the largest among them."""
    top = (1 << bits) - 1
    values = data.draw(st.lists(st.integers(0, top), min_size=1, max_size=4)) + [top]
    picks = data.draw(st.lists(st.integers(0, len(values) - 1), min_size=n, max_size=n))
    return np.array([values[i] for i in picks], np.int64)


class TestLeanWalk:
    """The walk groups each level by one int64 key, forms pairs only when
    the flowtree cost is read and searches meet levels in Morton order; no
    result changes."""

    @settings(max_examples=300)
    @given(st.data())
    def test_group_cells_is_group_rows(self, data):
        # key widths up to and past the 63-bit limit, where group_cells
        # sorts by np.lexsort; every column holds its largest value, of up
        # to 53 bits, where group_rows is exact, or of up to 63
        n = data.draw(st.integers(0, 300))
        pos_bits = (n - 1).bit_length()
        most = data.draw(st.sampled_from([53, 63]))
        total = data.draw(st.sampled_from([None, 62, 63, 64]))
        if total is None:
            a_bits, b_bits = data.draw(st.integers(0, most)), data.draw(st.integers(0, most))
        else:
            a_bits = data.draw(st.integers(max(0, total - pos_bits - most), most))
            b_bits = total - pos_bits - a_bits
            if not 0 <= b_bits <= most:
                return
        a, b = int_column(data, n, a_bits), int_column(data, n, b_bits)
        calls = []
        lexsort = np.lexsort

        def counting(*args):
            calls.append(1)
            return lexsort(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dgmdist._rows.np, "lexsort", counting)
            patch.setattr(dgmdist._rows, "group_rows", None)
            order, starts = group_cells(a, b, a_bits, b_bits)
        assert len(calls) == (a_bits + b_bits + pos_bits > 63)
        rows = list(zip(a.tolist(), b.tolist()))
        expected = sorted(range(n), key=rows.__getitem__)
        assert order.tolist() == expected
        runs = [k for k in range(n) if k == 0 or rows[expected[k]] != rows[expected[k - 1]]]
        assert starts.tolist() == runs
        if most == 53:
            expected = group_rows(a, b)
            assert order.tolist() == expected[0].tolist()
            assert starts.tolist() == expected[1].tolist()

    @staticmethod
    def assert_walks_as_group_rows(trees, diagrams, jobs):
        """Every cost, residual and pair of the jobs equals a walk grouped
        by group_rows alone, and every column the walk groups fits the width
        it gives; returns the key widths the walk grouped."""
        widths = []

        def by_rows(a, b, a_bits, b_bits):
            assert 0 <= a.min() <= a.max() < 1 << a_bits
            assert 0 <= b.min() <= b.max() < 1 << b_bits
            widths.append(a_bits + b_bits + (len(a) - 1).bit_length())
            return group_rows(a, b)

        walked = stacked_walk(trees, diagrams, jobs)[1:]
        pairs = [greedy_match(trees[t], diagrams[a], diagrams[b]) for t, a, b in jobs[:4]]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dgmdist.flowtree, "group_cells", by_rows)
            assert stacked_walk(trees, diagrams, jobs)[1:] == walked
            for (t, a, b), matching in zip(jobs, pairs):
                expected = greedy_match(trees[t], diagrams[a], diagrams[b])
                for column in ("point", "partner", "mass", "level", "distance"):
                    assert getattr(matching, column).tolist() == getattr(expected, column).tolist()
        return widths

    @settings(max_examples=25)
    @given(stacked_jobs("offset"))
    def test_int64_keys_walk_as_group_rows(self, case):
        # trees of up to 48 levels (one at cap 40, say) around huge offsets
        self.assert_walks_as_group_rows(*case)

    @pytest.mark.parametrize("cap", [40, MAX_LEVELS])
    def test_deep_walk_takes_both_groupings(self, cap):
        # the deep levels of a tree truncated at its cap take group_rows,
        # the others one int64 key: first's point meets second's first
        # point on a fine level and its surplus second's other point on a
        # coarse one, far from the diagonal
        pair = [
            PersistenceDiagram([(1e12, 1.5e12, 5)]),
            PersistenceDiagram([(1e12 + 0.5, 1.5e12 + 0.5, 1), (1e12 + 1e8, 1.5e12 + 1e8, 4)]),
        ]
        tree = build_tree(
            [*union_coords(pair), (0.0, 1e-200)], TreeConfig(seed=4, max_levels_cap=cap)
        )
        assert tree.num_levels == cap
        widths = self.assert_walks_as_group_rows([tree], pair, [(0, 0, 1), (0, 1, 0)])
        assert max(widths) > 63 and min(widths) <= 63

    @settings(max_examples=40)
    @given(
        st.one_of(
            st.tuples(stacked_jobs(), st.sampled_from([1, 8, 40, 1 << 13])).map(
                lambda case: (*case[0], case[1])
            ),
            retirement_cases(),
        )
    )
    def test_walks_cover_the_jobs_within_limits(self, case):
        # one _Walk per walk, in job order; a walk holds at most the row
        # budget of walked rows and less than 2**63 mass, or is one setup
        # chunk, so it numbers at most the row budget of walked jobs, or one
        trees, diagrams, jobs, batch_rows = case
        placed, first, second = stacked_indices(trees, diagrams, jobs)
        first, second = np.array(first), np.array(second)
        walked = []
        chunk = dgmdist.flowtree._chunk

        def chunking(*args):
            rows = chunk(*args)
            walked.extend(rows.job.tolist())
            return rows

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dgmdist.flowtree, "_BATCH_ROWS", batch_rows)
            patch.setattr(dgmdist.flowtree, "_chunk", chunking)
            chunks = [(lo, hi) for lo, hi, _ in placed._batches(first, second)]
            walks = list(dgmdist.flowtree._matchings(placed, first, second))
        assert [w.lo for w in walks] == [0] + [w.hi for w in walks[:-1]]
        assert walks[-1].hi == len(jobs)
        totals = [placed.totals[a] + placed.totals[b] for a, b in zip(first, second)]
        for walk in walks:
            rows = [j for j in walked if walk.lo <= j < walk.hi]
            mass = sum(totals[walk.lo : walk.hi])
            assert (len(rows) <= batch_rows and mass < 1 << 63) or (walk.lo, walk.hi) in chunks
            assert len(set(rows)) <= batch_rows or walk.hi - walk.lo == 1
            assert len(walk.retired_count) == walk.hi - walk.lo
            assert walk.retired_count.sum() == len(walk.retired)

    @settings(max_examples=40)
    @given(retirement_cases())
    def test_embedding_alone_forms_no_pair(self, case):
        # row budgets down to one row: walks that join several setup chunks
        trees, diagrams, jobs, batch_rows = case

        def no_pairs(*args):
            raise AssertionError("an embedding-only walk formed pairs")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dgmdist.flowtree, "_BATCH_ROWS", batch_rows)
            _, costs, _ = stacked_walk(trees, diagrams, jobs)
            placed, first, second = stacked_indices(trees, diagrams, jobs)
            patch.setattr(dgmdist.flowtree, "_cross_walk", no_pairs)
            alone = placed.distances(first, second, ("embedding",))
        assert alone == {"embedding": costs["embedding"]}

    def test_flowtree_forms_pairs(self):
        # the patch point of test_embedding_alone_forms_no_pair is live
        first, second = gen_uniform(50, 1), gen_uniform(50, 2)
        placed = PlacedDiagrams(pair_tree(first, second, 1), [first, second])
        calls = []
        cross_walk = dgmdist.flowtree._cross_walk

        def counting(*args):
            calls.append(1)
            return cross_walk(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dgmdist.flowtree, "_cross_walk", counting)
            both = placed.distances([0], [1])
        assert calls and both["embedding"] == placed.embedding_row(0, [1])

    def test_cross_step_takes_live_rows_only(self):
        # a level sorts only rows with mass left: a row matched whole on a
        # finer level, or sent to the diagonal, is not sorted again
        first, second = gen_uniform(60, 5), gen_uniform(60, 6)
        placed = PlacedDiagrams(pair_tree(first, second, 2), [first, second])
        cell_match = dgmdist.flowtree._cell_match
        sizes = []

        def live_only(mass, starts, from_first):
            assert (mass > 0).all()
            sizes.append(len(mass))
            return cell_match(mass, starts, from_first)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dgmdist.flowtree, "_cell_match", live_only)
            placed.distances([0], [1])
        assert len(sizes) > 1

    @settings(max_examples=30)
    @given(stacked_jobs())
    def test_meet_levels_in_morton_order(self, case):
        # _chunk searches each side's points in Morton order; its split
        # and the walked rows' meet levels equal _meet_levels on row order
        trees, diagrams, jobs = case
        placed, first, second = stacked_indices(trees, diagrams, jobs)
        start = placed.start.tolist()
        point, other, job = [], [], []
        for p, (a, b) in enumerate(zip(first, second)):
            for d, o in ((a, b), (b, a)):
                point += range(start[d], start[d + 1])
                other += [o] * (start[d + 1] - start[d])
                job += [p] * (start[d + 1] - start[d])
        point, other, job = (np.array(v, np.int64) for v in (point, other, job))
        meet = placed._meet_levels(point, other)
        walked = meet < placed.terminal_level[point]
        rows = dgmdist.flowtree._chunk(placed, np.array(first), np.array(second), 0, len(first))
        assert rows.point.tolist() == point[walked].tolist()
        assert rows.meet.tolist() == meet[walked].tolist()
        assert rows.job.tolist() == job[walked].tolist()
        assert rows.retired.tolist() == point[~walked].tolist()


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
