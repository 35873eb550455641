"""Evaluation harness: relative-error suites, recall@m, rank scatter, runtime.

Distances take one path: _rows gives every query's distances to its
candidates by a method, for knn_distances, the error suite and the runtime
table alike (the latter two as one query and one candidate), and _tree is the
one rule for the tree the tree methods share. The tree methods read their
rows from one embed_all index or one PlacedDiagrams placement of queries and
candidates together, so an embedding distance here is the index's exactly
rounded tree cost, as multi_tree_estimate gives it on the same tree. The
error suite's exact method reuses its pair's ground truth.
recall_at_m and ranking_table compute nothing themselves; they only reduce
knn_distances rows, so the exact ground truth of a query set is solved once
and shared by every method. eval_report writes every table of `dgmdist
eval`.

All aggregates are pure functions of (dataset, seed); reruns with identical
seeds reproduce CSV bodies byte-for-byte apart from timing columns. Pairs and
queries can be evaluated concurrently with a configurable worker count;
aggregation is order-independent.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .diagram import GroundMetric, PersistenceDiagram, gen_uniform
from .embedding import embed_all
from .exact import SizeCapError, exact_distance
from .flowtree import PlacedDiagrams
from .quadtree import ShiftedQuadtree, TreeConfig, build_tree, union_coords

log = logging.getLogger(__name__)

METHODS = ("exact", "embedding", "flowtree")
TREE_METHODS = ("embedding", "flowtree")


@dataclass
class ErrorStats:
    method: str
    ground_metric: str
    mean_rel_error: float
    std_rel_error: float
    n_pairs: int


@dataclass
class PairErrorRow:
    pair_index: int
    left: int
    right: int
    method: str
    ground_metric: str
    d_true: float
    d_approx: float
    rel_error: float


@dataclass
class ErrorSuiteResult:
    stats: list[ErrorStats]
    rows: list[PairErrorRow]
    skipped_pairs: int
    total_pairs: int


@dataclass
class RecallCurve:
    method: str
    m_values: list[int]
    recall: list[float]


@dataclass
class BenchRow:
    size: int
    method: str
    ground_metric: str
    reps: int
    mean_seconds: float
    median_seconds: float
    tree_seconds: float


def relative_error(d_true: float, d_approx: float) -> float:
    """|d_true - d_approx| / d_true for a positive true distance."""
    if d_true <= 0:
        raise ValueError("relative error is undefined for d_true <= 0")
    return abs(d_true - d_approx) / d_true


def _check_methods(methods: Sequence[str]) -> None:
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; expected one of {METHODS}")


def _tree(
    methods: Sequence[str],
    diagrams: Sequence[PersistenceDiagram],
    seed: int,
    metric: GroundMetric,
) -> ShiftedQuadtree | None:
    """The tree over the diagrams' points that the tree methods share; None
    when no tree method is among methods or no diagram holds a point."""
    if not any(m in TREE_METHODS for m in methods):
        return None
    points = union_coords(diagrams)
    if not len(points):
        return None
    return build_tree(points, TreeConfig(seed=seed, ground_metric=metric))


def _run_jobs(fn: Callable, jobs: list, workers: int) -> list:
    if workers <= 1:
        return [fn(job) for job in jobs]
    chunk = max(1, len(jobs) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs, chunksize=chunk))


def _exact_row(
    query: PersistenceDiagram,
    candidates: Sequence[PersistenceDiagram],
    metric: GroundMetric,
) -> list[float] | None:
    """Exact distances from query to every candidate, or None if the oracle
    cap was exceeded."""
    try:
        return [exact_distance(query, c, metric) for c in candidates]
    except SizeCapError:
        return None


def _rows(
    queries: Sequence[PersistenceDiagram],
    candidates: Sequence[PersistenceDiagram],
    method: str,
    metric: GroundMetric,
    tree: ShiftedQuadtree | None,
    workers: int = 1,
) -> list[list[float] | None]:
    """One row of distances to every candidate per query, by method.

    tree is _tree's tree over queries and candidates; with None the tree
    methods give 0.0 rows, as no diagram holds a point. An exact row is None
    when the oracle cap was exceeded. Exact and flowtree rows are computed
    on up to `workers` processes, one query per job.
    """
    if method == "exact":
        row = partial(_exact_row, candidates=tuple(candidates), metric=metric)
        return _run_jobs(row, list(queries), workers)
    if tree is None:
        return [[0.0] * len(candidates) for _ in queries]
    diagrams = [*queries, *candidates]
    js = range(len(queries), len(diagrams))
    if method == "embedding":
        index = embed_all(tree, diagrams)
        return [index.l1_row(i, js) for i in range(len(queries))]
    row = partial(PlacedDiagrams(tree, diagrams).flowtree_row, js=js)
    return _run_jobs(row, list(range(len(queries))), workers)


def _error_pair_job(
    job,
    methods: tuple[str, ...],
    metrics: tuple[GroundMetric, ...],
    shared_trees: dict | None,
):
    """Evaluate one sampled pair; returns rows, or None if the oracle cap bit."""
    pair_index, left, right, a, b, tree_seed = job
    rows: list[PairErrorRow] = []
    for metric in metrics:
        try:
            d_true = exact_distance(a, b, metric)
        except SizeCapError:
            return None
        if d_true == 0.0:
            log.warning(
                "pair (%d, %d) has zero true distance under %s; "
                "relative error undefined, excluded",
                left,
                right,
                metric.value,
            )
            continue
        if shared_trees is None:
            tree = _tree(methods, (a, b), tree_seed, metric)
        else:
            tree = shared_trees[metric]
        for method in methods:
            if method == "exact":
                d_approx = d_true
            else:
                d_approx = _rows((a,), (b,), method, metric, tree)[0][0]
            rows.append(
                PairErrorRow(
                    pair_index=pair_index,
                    left=left,
                    right=right,
                    method=method,
                    ground_metric=metric.value,
                    d_true=d_true,
                    d_approx=d_approx,
                    rel_error=relative_error(d_true, d_approx),
                )
            )
    return rows


def error_suite(
    dataset: Sequence[PersistenceDiagram],
    methods: Sequence[str],
    metrics: Sequence[GroundMetric],
    seed: int,
    n_pairs: int,
    tree_policy: str = "per_pair",
    workers: int = 1,
) -> ErrorSuiteResult:
    """Relative-error statistics of approximate methods over sampled pairs.

    Samples n_pairs distinct-index pairs, takes ground truth from the exact
    solver, and aggregates mean/std of the relative error per (method,
    metric). tree_policy chooses between one fresh tree per pair
    ("per_pair") and one tree over the whole dataset ("whole_dataset").
    """
    if len(dataset) < 2:
        raise ValueError("dataset must contain at least two diagrams")
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    if tree_policy not in ("per_pair", "whole_dataset"):
        raise ValueError(f"unknown tree_policy {tree_policy!r}")
    _check_methods(methods)

    shared_trees = None
    if tree_policy == "whole_dataset":
        shared_trees = {
            metric: _tree(methods, dataset, seed, metric) for metric in metrics
        }

    rng = np.random.default_rng(seed)
    jobs = []
    for k in range(n_pairs):
        i, j = rng.choice(len(dataset), size=2, replace=False)
        tree_seed = int(rng.integers(0, 2**31 - 1))
        jobs.append((k, int(i), int(j), dataset[i], dataset[j], tree_seed))

    fn = partial(
        _error_pair_job,
        methods=tuple(methods),
        metrics=tuple(metrics),
        shared_trees=shared_trees,
    )
    results = _run_jobs(fn, jobs, workers)

    rows: list[PairErrorRow] = []
    skipped = 0
    for result in results:
        if result is None:
            skipped += 1
        else:
            rows.extend(result)

    stats: list[ErrorStats] = []
    for method in methods:
        for metric in metrics:
            errors = [
                r.rel_error
                for r in rows
                if r.method == method and r.ground_metric == metric.value
            ]
            if not errors:
                continue
            mean = math.fsum(errors) / len(errors)
            var = math.fsum((e - mean) ** 2 for e in errors) / len(errors)
            stats.append(
                ErrorStats(
                    method=method,
                    ground_metric=metric.value,
                    mean_rel_error=mean,
                    std_rel_error=math.sqrt(var),
                    n_pairs=len(errors),
                )
            )
    return ErrorSuiteResult(
        stats=stats, rows=rows, skipped_pairs=skipped, total_pairs=n_pairs
    )


def _ranks(distances: Sequence[float]) -> list[int]:
    """1-based rank of each candidate, ties broken by candidate index."""
    order = sorted(range(len(distances)), key=lambda c: (distances[c], c))
    ranks = [0] * len(distances)
    for position, c in enumerate(order):
        ranks[c] = position + 1
    return ranks


def knn_distances(
    queries: Sequence[PersistenceDiagram],
    candidates: Sequence[PersistenceDiagram],
    method: str,
    metric: GroundMetric,
    seed: int = 0,
    workers: int = 1,
) -> list[list[float] | None]:
    """One row of candidate distances per query; None marks a query skipped
    because the oracle cap was exceeded.

    Tree methods share one tree over queries and candidates; the embedding
    method embeds all of them in one embed_all index and reads each query's
    row (exact tree costs, each rounded once) from it in this process, and
    the flowtree method places all of them once (PlacedDiagrams) and walks
    each query against all candidates together. When no diagram holds a point, the tree methods return 0.0
    rows without building a tree.
    """
    if not candidates:
        raise ValueError("candidates must be non-empty")
    _check_methods([method])
    tree = _tree([method], [*queries, *candidates], seed, metric)
    return _rows(queries, candidates, method, metric, tree, workers)


def recall_at_m(
    true_rows: Sequence[Sequence[float] | None],
    approx_rows: Sequence[Sequence[float] | None],
    method: str,
) -> tuple[RecallCurve, int]:
    """Fraction of queries whose true nearest neighbor lands in the top m.

    Both arguments are knn_distances rows for the same queries and
    candidates: exact ground truth and the method's distances. Returns the
    curve and the number of queries skipped because either row is None.
    """
    if not true_rows:
        raise ValueError("queries must be non-empty")
    kept = [
        (true_d, approx_d)
        for true_d, approx_d in zip(true_rows, approx_rows, strict=True)
        if true_d is not None and approx_d is not None
    ]
    if not kept:
        raise SizeCapError("every query exceeded the oracle size cap")
    ranks = []
    for true_d, approx_d in kept:
        true_nn = min(range(len(true_d)), key=lambda c: (true_d[c], c))
        ranks.append(_ranks(approx_d)[true_nn])
    skipped = len(true_rows) - len(ranks)

    m_values = list(range(1, len(kept[0][0]) + 1))
    recall = [sum(1 for r in ranks if r <= m) / len(ranks) for m in m_values]
    return RecallCurve(method=method, m_values=m_values, recall=recall), skipped


def ranking_table(
    true_d: Sequence[float], approx_d: Sequence[float]
) -> list[tuple[int, int]]:
    """(true_rank, approx_rank) per candidate of one knn_distances row, ties
    broken by index."""
    if not true_d:
        raise ValueError("candidates must be non-empty")
    if len(true_d) != len(approx_d):
        raise ValueError("true_d and approx_d must have one entry per candidate")
    return list(zip(_ranks(true_d), _ranks(approx_d)))


def runtime_bench(
    sizes: Sequence[int],
    methods: Sequence[str],
    metric: GroundMetric = GroundMetric.L2,
    seed: int = 0,
    reps: int = 5,
) -> list[BenchRow]:
    """Wall-clock scaling of distance computation over synthetic diagrams.

    Tree construction is timed separately (tree_seconds); the per-rep timing
    covers only the distance computation on the already built tree. The exact
    method times the full assignment solve.
    """
    if list(sizes) != sorted(sizes):
        raise ValueError("sizes must be ascending")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    _check_methods(methods)
    rng = np.random.default_rng(seed)
    rows: list[BenchRow] = []
    for size in sizes:
        first = gen_uniform(size, int(rng.integers(0, 2**31 - 1)))
        second = gen_uniform(size, int(rng.integers(0, 2**31 - 1)))
        tree_seed = int(rng.integers(0, 2**31 - 1))
        for method in methods:
            t0 = time.perf_counter()
            tree = _tree([method], (first, second), tree_seed, metric)
            tree_seconds = 0.0 if tree is None else time.perf_counter() - t0
            times = []
            for _ in range(reps):
                t0 = time.perf_counter()
                (row,) = _rows((first,), (second,), method, metric, tree)
                times.append(time.perf_counter() - t0)
            if row is None:  # capped: raise the oracle's own SizeCapError
                exact_distance(first, second, metric)
            rows.append(
                BenchRow(
                    size=size,
                    method=method,
                    ground_metric=metric.value,
                    reps=reps,
                    mean_seconds=statistics.fmean(times),
                    median_seconds=statistics.median(times),
                    tree_seconds=tree_seconds,
                )
            )
    return rows


def _columns(row_type) -> list[str]:
    """CSV header of a row dataclass, in field order."""
    return [f.name for f in fields(row_type)]


def _write_table(stem: Path, fieldnames, rows) -> None:
    """One table as <stem>.csv and its <stem>.json mirror."""
    write_csv(stem.with_suffix(".csv"), fieldnames, rows)
    write_json(stem.with_suffix(".json"), rows)


def eval_report(
    dataset: Sequence[PersistenceDiagram],
    out_dir,
    methods: Sequence[str],
    metrics: Sequence[GroundMetric],
    seed: int,
    n_pairs: int,
    tree_policy: str,
    bench_sizes: Sequence[int],
    reps: int,
    workers: int,
) -> ErrorSuiteResult:
    """The evaluation tables of a dataset, written into the existing out_dir.

    Writes pair_errors and error_stats (error_suite), then recall and
    ranking over a seeded 10/90 query/candidate split under metrics[0], then
    runtime (runtime_bench), each as .csv and .json, each as soon as it is
    computed. The exact rows of the split are solved once and serve as
    method exact's rows too. A query over the oracle cap raises SizeCapError
    after recall is written and before ranking is. Arguments are checked by
    the functions that use them, as they run. Returns the error suite, whose
    skipped_pairs count the pairs over the oracle cap.
    """
    out_dir = Path(out_dir)
    suite = error_suite(
        dataset, methods, metrics, seed, n_pairs, tree_policy=tree_policy, workers=workers
    )
    _write_table(out_dir / "pair_errors", _columns(PairErrorRow), suite.rows)
    _write_table(out_dir / "error_stats", _columns(ErrorStats), suite.stats)

    # 10/90 query/candidate split, deterministic per seed
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(dataset))
    n_queries = max(1, len(dataset) // 10)
    query_idx = sorted(int(i) for i in order[:n_queries])
    cand_idx = sorted(int(i) for i in order[n_queries:])
    queries = [dataset[i] for i in query_idx]
    candidates = [dataset[i] for i in cand_idx]

    primary_metric = metrics[0]
    true_rows = knn_distances(queries, candidates, "exact", primary_metric, workers=workers)
    rows_by_method = {"exact": true_rows}
    for method in methods:
        if method not in rows_by_method:
            rows_by_method[method] = knn_distances(
                queries, candidates, method, primary_metric, seed=seed, workers=workers
            )

    columns = ["method", "ground_metric", "m", "recall"]
    recall_rows = []
    for method in methods:
        curve, _ = recall_at_m(true_rows, rows_by_method[method], method)
        recall_rows.extend(
            dict(zip(columns, (method, primary_metric.value, m, r)))
            for m, r in zip(curve.m_values, curve.recall)
        )
    _write_table(out_dir / "recall", columns, recall_rows)

    columns = ["method", "ground_metric", "query", "candidate", "true_rank", "approx_rank"]
    ranking_rows = []
    for method in methods:
        for qpos, true_d, approx_d in zip(query_idx, true_rows, rows_by_method[method]):
            if true_d is None:  # no ground truth to rank against
                raise SizeCapError(f"query {qpos} exceeds the oracle size cap")
            ranking_rows.extend(
                dict(zip(columns, (method, primary_metric.value, qpos, cand_idx[c], tr, ar)))
                for c, (tr, ar) in enumerate(ranking_table(true_d, approx_d))
            )
    _write_table(out_dir / "ranking", columns, ranking_rows)

    bench_rows = runtime_bench(bench_sizes, methods, metric=primary_metric, seed=seed, reps=reps)
    _write_table(out_dir / "runtime", _columns(BenchRow), bench_rows)
    return suite


def write_csv(path, fieldnames: Sequence[str], rows) -> None:
    """Stable-ordered CSV; rows are dicts or dataclasses."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(fieldnames))
        writer.writeheader()
        for row in rows:
            if not isinstance(row, dict):
                row = asdict(row)
            writer.writerow(row)


def write_json(path, rows) -> None:
    """JSON mirror of a CSV table: a list of records with the same fields."""
    path = Path(path)
    records = [row if isinstance(row, dict) else asdict(row) for row in rows]
    path.write_text(json.dumps(records, indent=2) + "\n")
