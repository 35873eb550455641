"""Tests for the evaluation harness: error suites, recall, ranking, runtime."""

import dataclasses

import pytest

import dgmdist.evaluate
import dgmdist.exact
import reference
from dgmdist import (
    GroundMetric,
    PersistenceDiagram,
    SizeCapError,
    TreeConfig,
    build_tree,
    exact_distance,
    flowtree_distance,
    gen_gaussian,
    gen_uniform,
    greedy_match,
    union_coords,
)
from dgmdist.evaluate import (
    METHODS,
    ErrorStats,
    error_suite,
    knn_distances,
    ranking_table,
    recall_at_m,
    relative_error,
    runtime_bench,
    write_csv,
    write_json,
)

L2 = GroundMetric.L2


@pytest.fixture(scope="module")
def small_dataset():
    return [gen_uniform(5 + i, seed=i) for i in range(12)]


def cap_oracle(monkeypatch, cap):
    """Make the exact solver use a small size cap (workers=1 only)."""
    monkeypatch.setattr(dgmdist.exact, "DEFAULT_SIZE_CAP", cap)


class TestRelativeError:
    def test_formula(self):
        assert relative_error(2.0, 3.0) == pytest.approx(0.5)
        assert relative_error(4.0, 2.0) == pytest.approx(0.5)

    def test_zero_for_equal(self):
        assert relative_error(3.7, 3.7) == 0.0

    def test_undefined_for_zero_truth(self):
        with pytest.raises(ValueError):
            relative_error(0.0, 1.0)


class TestErrorSuite:
    def test_exact_versus_itself_is_zero(self, small_dataset):
        result = error_suite(small_dataset, ["exact"], [L2], seed=1, n_pairs=6)
        assert len(result.stats) == 1
        stat = result.stats[0]
        assert stat.mean_rel_error == 0.0
        assert stat.std_rel_error == 0.0
        assert stat.n_pairs == 6

    def test_row_count_is_methods_times_metrics(self, small_dataset):
        metrics = [GroundMetric.L1, GroundMetric.L2]
        result = error_suite(
            small_dataset, ["embedding", "flowtree"], metrics, seed=2, n_pairs=4
        )
        assert len(result.stats) == 4
        assert {(s.method, s.ground_metric) for s in result.stats} == {
            ("embedding", "l1"),
            ("embedding", "l2"),
            ("flowtree", "l1"),
            ("flowtree", "l2"),
        }

    def test_deterministic(self, small_dataset):
        a = error_suite(small_dataset, ["flowtree"], [L2], seed=3, n_pairs=5)
        b = error_suite(small_dataset, ["flowtree"], [L2], seed=3, n_pairs=5)
        assert a.rows == b.rows
        assert a.stats == b.stats

    def test_workers_match_sequential(self, small_dataset):
        seq = error_suite(small_dataset, ["flowtree"], [L2], seed=4, n_pairs=6)
        par = error_suite(
            small_dataset, ["flowtree"], [L2], seed=4, n_pairs=6, workers=2
        )
        assert seq.rows == par.rows

    def test_whole_dataset_policy(self, small_dataset):
        result = error_suite(
            small_dataset,
            ["embedding"],
            [L2],
            seed=5,
            n_pairs=4,
            tree_policy="whole_dataset",
        )
        assert result.stats[0].n_pairs == 4

    def test_oracle_cap_skips_and_counts(self, small_dataset, monkeypatch):
        cap_oracle(monkeypatch, 4)
        result = error_suite(
            small_dataset, ["flowtree"], [L2], seed=6, n_pairs=5, workers=1
        )
        assert result.skipped_pairs > 0
        assert result.skipped_pairs + sum(
            1 for _ in {r.pair_index for r in result.rows}
        ) == result.total_pairs

    def test_exact_method_reuses_ground_truth(self, small_dataset, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[:2])
            return exact_distance(*args, **kwargs)

        monkeypatch.setattr(dgmdist.evaluate, "exact_distance", counting)
        result = error_suite(
            small_dataset,
            ["exact", "embedding", "flowtree"],
            [L2, GroundMetric.L1],
            seed=7,
            n_pairs=4,
            workers=1,
        )
        assert result.skipped_pairs == 0
        assert len(calls) == 4 * 2  # one ground truth per pair and metric
        for row in result.rows:
            if row.method == "exact":
                assert row.d_approx == row.d_true

    @pytest.mark.parametrize("metric", list(GroundMetric))
    @pytest.mark.parametrize("tree_policy", ["per_pair", "whole_dataset"])
    def test_tree_methods_equal_pair_path(self, small_dataset, monkeypatch, tree_policy, metric):
        # single pairs are read from two-diagram engines; each value is the
        # exact embedding cost or greedy_match's cost, bit for bit, on the
        # tree the suite built for it
        trees = []
        build = dgmdist.evaluate._tree

        def recording(*args):
            trees.append(build(*args))
            return trees[-1]

        monkeypatch.setattr(dgmdist.evaluate, "_tree", recording)
        result = error_suite(
            small_dataset,
            ["embedding", "flowtree"],
            [metric],
            seed=9,
            n_pairs=8,
            tree_policy=tree_policy,
        )
        assert len(result.rows) == 16
        assert len(trees) == (1 if tree_policy == "whole_dataset" else 8)
        for k, row in enumerate(result.rows):
            tree = trees[0 if tree_policy == "whole_dataset" else k // 2]
            a, b = small_dataset[row.left], small_dataset[row.right]
            if row.method == "embedding":
                expected = reference.embedding_cost(tree, a, b)
            else:
                expected = greedy_match(tree, a, b).cost
            assert row.d_approx == expected

    def test_validates_inputs(self, small_dataset):
        with pytest.raises(ValueError):
            error_suite(small_dataset[:1], ["exact"], [L2], seed=0, n_pairs=1)
        with pytest.raises(ValueError):
            error_suite(small_dataset, ["magic"], [L2], seed=0, n_pairs=1)
        with pytest.raises(ValueError):
            error_suite(small_dataset, ["exact"], [L2], seed=0, n_pairs=0)
        with pytest.raises(ValueError):
            error_suite(small_dataset, ["exact"], [L2], seed=0, n_pairs=1, tree_policy="no")


def recall_curve(queries, candidates, method, seed=0, workers=1):
    """recall_at_m over knn_distances rows; method exact reuses the truth."""
    true_rows = knn_distances(queries, candidates, "exact", L2, workers=workers)
    approx_rows = (
        true_rows
        if method == "exact"
        else knn_distances(queries, candidates, method, L2, seed=seed, workers=workers)
    )
    return recall_at_m(true_rows, approx_rows, method)


def ranking(query, candidates, method, seed=0):
    """ranking_table of one query's exact and approximate knn_distances rows."""
    (true_d,) = knn_distances([query], candidates, "exact", L2)
    (approx_d,) = knn_distances([query], candidates, method, L2, seed=seed)
    return ranking_table(true_d, approx_d)


class TestRecall:
    def test_exact_method_perfect_at_one(self, small_dataset):
        queries, candidates = small_dataset[:3], small_dataset[3:]
        curve, skipped = recall_curve(queries, candidates, "exact", seed=1)
        assert skipped == 0
        assert curve.recall[0] == 1.0

    def test_non_decreasing_and_full_at_end(self, small_dataset):
        queries, candidates = small_dataset[:3], small_dataset[3:]
        for method in ("embedding", "flowtree"):
            curve, _ = recall_curve(queries, candidates, method, seed=2)
            assert curve.m_values == list(range(1, len(candidates) + 1))
            assert all(a <= b for a, b in zip(curve.recall, curve.recall[1:]))
            assert curve.recall[-1] == 1.0

    def test_deterministic(self, small_dataset):
        queries, candidates = small_dataset[:2], small_dataset[2:]
        a, _ = recall_curve(queries, candidates, "flowtree", seed=3)
        b, _ = recall_curve(queries, candidates, "flowtree", seed=3)
        assert a == b

    def test_workers_match_sequential(self, small_dataset):
        queries, candidates = small_dataset[:2], small_dataset[2:]
        seq, _ = recall_curve(queries, candidates, "embedding", seed=4)
        par, _ = recall_curve(queries, candidates, "embedding", seed=4, workers=2)
        assert seq == par

    def test_empty_candidates_rejected(self, small_dataset):
        with pytest.raises(ValueError):
            knn_distances(small_dataset[:1], [], "exact", L2)

    def test_capped_queries_are_skipped(self, small_dataset, monkeypatch):
        queries, candidates = small_dataset[:4], small_dataset[4:]
        # a query is capped when its largest pair exceeds the cap
        largest = [
            q.total_count + max(c.total_count for c in candidates) for q in queries
        ]
        cap = max(largest) - 1
        cap_oracle(monkeypatch, cap)
        true_rows = knn_distances(queries, candidates, "exact", L2, workers=1)
        approx_rows = knn_distances(queries, candidates, "flowtree", L2, seed=1)
        curve, skipped = recall_at_m(true_rows, approx_rows, "flowtree")
        capped = [n > cap for n in largest]
        assert [row is None for row in true_rows] == capped
        assert skipped == sum(capped)
        assert 0 < skipped < len(queries)
        assert curve.recall[-1] == 1.0

    def test_every_query_capped_raises(self, small_dataset, monkeypatch):
        queries, candidates = small_dataset[:3], small_dataset[3:]
        cap_oracle(monkeypatch, 1)
        true_rows = knn_distances(queries, candidates, "exact", L2, workers=1)
        approx_rows = knn_distances(queries, candidates, "embedding", L2, seed=1)
        assert true_rows == [None] * len(queries)
        with pytest.raises(SizeCapError, match="every query exceeded"):
            recall_at_m(true_rows, approx_rows, "embedding")


class TestKnnDistances:
    @pytest.mark.parametrize("metric", list(GroundMetric))
    def test_flowtree_rows_equal_per_candidate_distances(self, metric):
        # one batched walk per query gives each pair's flowtree_distance
        # exactly, empty diagrams included
        dataset = [gen_gaussian(3 + 7 * i, seed=60 + i) for i in range(14)]
        queries = dataset[:3] + [PersistenceDiagram()]
        candidates = dataset[3:] + [PersistenceDiagram()]
        rows = knn_distances(queries, candidates, "flowtree", metric, seed=8)
        tree = build_tree(
            union_coords(queries + candidates), TreeConfig(seed=8, ground_metric=metric)
        )
        assert rows == [
            [flowtree_distance(tree, q, c) for c in candidates] for q in queries
        ]

    @pytest.mark.parametrize("metric", list(GroundMetric))
    def test_embedding_rows_equal_per_candidate_distances(self, metric):
        # the embedding index gives each pair's exact embedding cost,
        # rounded once, empty diagrams included
        dataset = [gen_gaussian(3 + 7 * i, seed=60 + i) for i in range(14)]
        queries = dataset[:3] + [PersistenceDiagram()]
        candidates = dataset[3:] + [PersistenceDiagram()]
        rows = knn_distances(queries, candidates, "embedding", metric, seed=8)
        tree = build_tree(
            union_coords(queries + candidates), TreeConfig(seed=8, ground_metric=metric)
        )
        assert rows == [
            [reference.embedding_cost(tree, q, c) for c in candidates] for q in queries
        ]

    @pytest.mark.parametrize("method", METHODS)
    def test_no_point_anywhere_gives_zero_rows(self, method):
        # as for exact, and as multi_tree_estimate does for two empty
        # diagrams, the tree methods need no tree to know every distance is 0
        empty = PersistenceDiagram()
        rows = knn_distances([empty, empty], [empty] * 3, method, L2, seed=1)
        assert rows == [[0.0] * 3, [0.0] * 3]


class TestRankingTable:
    def test_exact_ranks_agree(self, small_dataset):
        table = ranking(small_dataset[0], small_dataset[1:], "exact")
        assert len(table) == len(small_dataset) - 1
        assert all(true == approx for true, approx in table)

    def test_ranks_are_permutations(self, small_dataset):
        table = ranking(small_dataset[0], small_dataset[1:], "flowtree", seed=5)
        n = len(table)
        assert sorted(t for t, _ in table) == list(range(1, n + 1))
        assert sorted(a for _, a in table) == list(range(1, n + 1))

    def test_deterministic(self, small_dataset):
        args = (small_dataset[0], small_dataset[1:], "embedding")
        assert ranking(*args, seed=6) == ranking(*args, seed=6)

    def test_flowtree_mean_rank_displacement_small(self):
        # well-separated synthetic data: the flowtree ordering stays within
        # a few ranks of the truth on average
        dataset = [gen_uniform(10 + 2 * i, seed=50 + i) for i in range(31)]
        table = ranking(dataset[0], dataset[1:], "flowtree", seed=1)
        displacement = sum(abs(t - a) for t, a in table) / len(table)
        assert displacement < 10.0


class TestRuntimeBench:
    def test_row_shape(self):
        rows = runtime_bench([20, 40], ["embedding", "flowtree"], seed=1, reps=2)
        assert len(rows) == 4
        for row in rows:
            assert row.mean_seconds > 0
            assert row.median_seconds > 0
            assert row.reps == 2

    def test_loose_monotonicity_in_size(self):
        rows = runtime_bench([100, 1000], ["flowtree"], seed=2, reps=5)
        small, large = rows[0], rows[1]
        assert large.mean_seconds >= 0.8 * small.mean_seconds

    def test_sizes_must_ascend(self):
        with pytest.raises(ValueError):
            runtime_bench([100, 50], ["flowtree"], seed=0, reps=1)


class TestWriters:
    def test_csv_and_json_deterministic(self, tmp_path):
        rows = [
            ErrorStats("flowtree", "l2", 0.25, 0.1, 10),
            ErrorStats("embedding", "l2", 2.5, 1.0, 10),
        ]
        fields = [f.name for f in dataclasses.fields(ErrorStats)]
        write_csv(tmp_path / "a.csv", fields, rows)
        write_csv(tmp_path / "b.csv", fields, rows)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        write_json(tmp_path / "a.json", rows)
        write_json(tmp_path / "b.json", rows)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        header = (tmp_path / "a.csv").read_text().splitlines()[0]
        assert header == "method,ground_metric,mean_rel_error,std_rel_error,n_pairs"
