"""Tests for the evaluation harness: error suites, recall, ranking, runtime."""

import concurrent.futures
import dataclasses
import os
import threading

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
    TREE_METHODS,
    ErrorStats,
    error_suite,
    eval_report,
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
    """Make the exact solver use a small size cap."""
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

    @pytest.mark.parametrize("tree_policy", ["per_pair", "whole_dataset"])
    def test_all_methods_match_across_workers(self, small_dataset, tree_policy):
        # the truths on two processes, then one walk per metric: every row
        # is the one sequential run gives; diagrams 0 and 3 are identical,
        # so their pairs have zero truth and are excluded
        dataset = [small_dataset[0], gen_gaussian(9, 1), gen_uniform(7, 5), small_dataset[0]]
        methods = ["exact", "embedding", "flowtree"]
        metrics = [L2, GroundMetric.L1]
        runs = [
            error_suite(
                dataset, methods, metrics, seed=3, n_pairs=8,
                tree_policy=tree_policy, workers=workers,
            )
            for workers in (1, 2)
        ]
        assert runs[0].rows == runs[1].rows and runs[0].stats == runs[1].stats
        kept = {(r.left, r.right) for r in runs[0].rows}
        assert runs[0].skipped_pairs == 0
        assert len({r.pair_index for r in runs[0].rows}) < 8
        assert (0, 3) not in kept and (3, 0) not in kept
        assert len(runs[0].rows) % (len(methods) * len(metrics)) == 0

    @pytest.mark.parametrize("tree_policy", ["per_pair", "whole_dataset"])
    def test_each_metric_as_if_alone(self, small_dataset, tree_policy):
        # each metric's trees, placement and walk are its own: a run over
        # three metrics gives, per metric, the rows and stats of a run with
        # that metric alone; the repeated diagram gives zero-truth pairs
        dataset = [*small_dataset[:7], small_dataset[2]]
        methods = ["exact", "embedding", "flowtree"]
        metrics = [GroundMetric.L1, L2, GroundMetric.LINF]
        together = error_suite(
            dataset, methods, metrics, seed=4, n_pairs=12, tree_policy=tree_policy
        )
        for metric in metrics:
            alone = error_suite(
                dataset, methods, [metric], seed=4, n_pairs=12, tree_policy=tree_policy
            )
            rows = [r for r in together.rows if r.ground_metric == metric.value]
            # every field, d_approx included, compared with ==
            assert rows == alone.rows and len(rows) > 0
            stats = [s for s in together.stats if s.ground_metric == metric.value]
            assert stats == alone.stats
        assert {(r.left, r.right) for r in together.rows}.isdisjoint({(2, 7), (7, 2)})

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
        # tree the suite built for it; per_pair builds one tree per pair,
        # whole_dataset one tree per metric, each in one _trees call
        trees = []
        build_all = dgmdist.evaluate._trees

        def recording_all(*args):
            built = build_all(*args)
            trees.extend(built)
            return built

        monkeypatch.setattr(dgmdist.evaluate, "_trees", recording_all)
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

    def test_trees_follow_the_tree_rule(self, small_dataset):
        # the trees, all built in one geometry call, are build_tree's over
        # each group's points: None when no diagram of the group has one
        empty = PersistenceDiagram([])
        groups = [small_dataset[:2], (empty, empty), small_dataset[3:5], small_dataset[6:7]]
        seeds = [4, 5, 6, 7]
        for metric in GroundMetric:
            trees = dgmdist.evaluate._trees(groups, seeds, metric)
            assert trees[1] is None
            for k in (0, 2, 3):
                config = TreeConfig(seed=seeds[k], ground_metric=metric)
                expected = build_tree(union_coords(groups[k]), config)
                assert trees[k].meta() == expected.meta()

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
        assert knn_distances(queries, candidates, "exact", L2, workers=2) == true_rows
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

    def test_only_exact_rows_start_a_pool(self, small_dataset, monkeypatch, tmp_path):
        # workers spreads the exact oracle only: the tree rows are one walk
        # on the calling thread, whatever workers is
        pools = []
        real = concurrent.futures.ThreadPoolExecutor

        def counting(*args, **kwargs):
            pools.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", counting)
        queries, candidates = small_dataset[:3], small_dataset[3:]
        for method in TREE_METHODS:
            rows = knn_distances(queries, candidates, method, L2, seed=2, workers=2)
            assert rows == knn_distances(queries, candidates, method, L2, seed=2)
        assert pools == []
        rows = knn_distances(queries, candidates, "exact", L2, workers=2)
        assert rows == knn_distances(queries, candidates, "exact", L2)
        assert len(pools) == 1
        pools.clear()
        eval_report(
            small_dataset, tmp_path, ["embedding", "flowtree"], [L2], seed=3, n_pairs=4,
            tree_policy="per_pair", bench_sizes=[10], reps=1, workers=2,
        )
        assert len(pools) == 2  # the error suite's truths and the exact knn rows

    def test_workers_solve_in_the_calling_process(self, small_dataset, monkeypatch):
        # the pool's threads see a patched solver: every solve is recorded
        # here, off the calling thread, on no more threads than jobs
        solves = []

        def recording(first, second, metric):
            solves.append((os.getpid(), threading.get_ident(), id(first), id(second)))
            return exact_distance(first, second, metric)

        monkeypatch.setattr(dgmdist.evaluate, "exact_distance", recording)
        queries, candidates = small_dataset[:3], small_dataset[3:]
        rows = knn_distances(queries, candidates, "exact", L2, workers=8)
        assert rows == [[exact_distance(q, c, L2) for c in candidates] for q in queries]
        assert sorted(solve[2:] for solve in solves) == sorted(
            (id(q), id(c)) for q in queries for c in candidates
        )
        assert {solve[0] for solve in solves} == {os.getpid()}
        threads = {solve[1] for solve in solves}
        assert threading.get_ident() not in threads and len(threads) <= len(queries)

    def test_other_solver_errors_propagate(self, small_dataset, monkeypatch):
        # only SizeCapError makes a None row; any other error of a solve
        # leaves _exact_rows, as it does in line
        def failing(first, second, metric):
            if first is small_dataset[1]:
                raise RuntimeError("solver failed")
            return exact_distance(first, second, metric)

        monkeypatch.setattr(dgmdist.evaluate, "exact_distance", failing)
        jobs = [[(query, c, L2) for c in small_dataset[4:]] for query in small_dataset[:4]]
        for workers in (1, 2):
            with pytest.raises(RuntimeError, match="solver failed"):
                dgmdist.evaluate._exact_rows(jobs, workers)

    def test_one_tree_per_tree_method_call(self, small_dataset, monkeypatch):
        # a tree method's rows share one tree over queries and candidates;
        # exact rows build none
        trees = dgmdist.evaluate._trees
        group_sizes = []

        def counting(groups, seeds, metric):
            group_sizes.append([len(group) for group in groups])
            return trees(groups, seeds, metric)

        monkeypatch.setattr(dgmdist.evaluate, "_trees", counting)
        queries, candidates = small_dataset[:3], small_dataset[3:]
        for method in METHODS:
            knn_distances(queries, candidates, method, L2, seed=2)
        assert group_sizes == [[len(small_dataset)]] * len(TREE_METHODS)

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
        for sizes in ([100, 50], [100, 100]):
            with pytest.raises(ValueError, match="strictly ascending"):
                runtime_bench(sizes, ["flowtree"], seed=0, reps=1)

    def test_exact_cells_solve_once_untimed(self, monkeypatch):
        # an exact cell makes one untimed call before its reps, so that no
        # timed rep pays the solver's first import; a tree-method cell
        # calls no exact solver
        exact = dgmdist.evaluate.exact_distance
        calls = []

        def counting(first, second, metric):
            calls.append((len(first), len(second)))
            return exact(first, second, metric)

        monkeypatch.setattr(dgmdist.evaluate, "exact_distance", counting)
        methods = ["exact", "embedding", "flowtree"]
        rows = runtime_bench([10, 20], methods, seed=3, reps=3)
        assert [(row.size, row.method, row.reps) for row in rows] == [
            (size, method, 3) for size in (10, 20) for method in methods
        ]
        assert len(calls) == 2 * (3 + 1)
        # each size's own pair, solved reps + 1 times
        assert calls[:4] == [calls[0]] * 4 and calls[4:] == [calls[4]] * 4
        assert calls[0] != calls[4]

    def test_one_tree_per_size(self, monkeypatch):
        # both tree methods read one tree per size and report its build time;
        # exact rows build none
        trees = dgmdist.evaluate._trees
        builds = []

        def counting(groups, seeds, metric):
            builds.append(len(groups))
            return trees(groups, seeds, metric)

        monkeypatch.setattr(dgmdist.evaluate, "_trees", counting)
        rows = runtime_bench([10, 20], ["exact", "embedding", "flowtree"], seed=3, reps=1)
        assert builds == [1, 1]
        runtime_bench([10, 20], ["exact"], seed=3, reps=1)
        assert builds == [1, 1]
        for size in (10, 20):
            exact, embedding, flowtree = (row for row in rows if row.size == size)
            assert exact.tree_seconds == 0.0
            assert embedding.tree_seconds == flowtree.tree_seconds > 0


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
        # dict rows write the same bytes as the equal dataclass rows
        records = [dataclasses.asdict(row) for row in rows]
        write_csv(tmp_path / "c.csv", fields, records)
        write_json(tmp_path / "c.json", records)
        assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()
        assert (tmp_path / "c.json").read_bytes() == (tmp_path / "a.json").read_bytes()
