"""Evaluation harness: relative-error suites, recall@m, rank scatter, runtime.

The tree methods read their distances from flowtree walks of many pairs at
once (PlacedDiagrams.distances): flowtree costs each pair's matching in the
ground metric, embedding sums side * residual, the pair's mass left
unmatched after every level. So an embedding distance here is the exactly
rounded value that multi_tree_estimate gives on the same tree. _trees is
the one rule for every harness tree: the tree over a group of diagrams'
points, one geometry call for many groups.
- _rows gives every query's distances to its candidates by each method, for
  knn_distances and eval_report's recall and ranking tables. Its tree
  methods share one tree over queries and candidates, place them once and
  walk all query-candidate pairs together.
- error_suite solves the exact ground truth of its sampled pairs first, then
  takes one metric at a time, as a geometry pass and a placement hold one
  ground metric: the metric's trees (each kept pair's own or one over the
  dataset, from one _trees call), then one PlacedDiagrams.distances call
  over its kept pairs. Its exact method reuses the truth.
- runtime_bench times the engines themselves on one pair per size:
  exact_distance, and a placement and walk on the pair's tree.
recall_at_m and ranking_table compute nothing themselves; they only reduce
knn_distances rows, so the exact ground truth of a query set is solved once
and shared by every method. eval_report writes every table of `dgmdist
eval`, reading its exact and tree rows from one _rows call.

All aggregates are pure functions of (dataset, seed); reruns with identical
seeds reproduce CSV bodies byte-for-byte apart from timing columns. `workers`
runs the exact oracle on that many threads, one pair or query per job; the
tree methods ignore it. Aggregation is order-independent.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import statistics
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .diagram import GroundMetric, PersistenceDiagram, gen_uniform
from .exact import SizeCapError, exact_distance
from .flowtree import PlacedDiagrams
from .quadtree import ShiftedQuadtree, TreeConfig, _geometries, union_coords

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


def _trees(
    groups: Sequence[Sequence[PersistenceDiagram]],
    seeds: Sequence[int],
    metric: GroundMetric,
) -> list[ShiftedQuadtree | None]:
    """The harness's tree rule: per k, the tree over the points of the
    diagrams of groups[k] with seed seeds[k], which is build_tree's tree
    over union_coords(groups[k]), bit for bit; None when no diagram of the
    group holds a point. Every tree's geometry comes from one
    quadtree._geometries call."""
    points = [union_coords(diagrams) for diagrams in groups]
    built = [k for k, p in enumerate(points) if len(p)]
    geometries = _geometries([points[k] for k in built], metric)
    trees: list[ShiftedQuadtree | None] = [None] * len(groups)
    for k, geometry in zip(built, geometries):
        trees[k] = geometry.tree(TreeConfig(seed=seeds[k], ground_metric=metric))
    return trees


def _exact_rows(jobs: Sequence, workers: int) -> list[list[float] | None]:
    """Each job's exact distances of its (first, second, metric) triples, or
    None when a solve exceeds the oracle cap, in job order. The jobs run on
    up to `workers` threads, which overlap as scipy's solver releases the GIL."""
    def solve(job):
        try:
            return [exact_distance(a, b, metric) for a, b, metric in job]
        except SizeCapError:
            return None

    if workers <= 1:
        return [solve(job) for job in jobs]
    # imported here, so that importing the CLI loads no executor
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        return list(pool.map(solve, jobs))
    finally:
        pool.shutdown(cancel_futures=True)


def _rows(
    queries: Sequence[PersistenceDiagram],
    candidates: Sequence[PersistenceDiagram],
    methods: Sequence[str],
    metric: GroundMetric,
    seed: int,
    workers: int = 1,
) -> dict[str, list[list[float] | None]]:
    """Each method's rows, one row of distances to every candidate per query.

    An exact row is None when the oracle cap was exceeded. Exact rows are
    solved on up to `workers` threads, one query per job. The tree
    methods share _trees' tree of seed `seed` over queries and candidates,
    built only when a tree method is asked for, place them together once
    and read every row from one PlacedDiagrams.distances call over all
    query-candidate pairs. When no diagram holds a point there is no tree,
    and the tree methods give 0.0 rows.
    """
    rows: dict[str, list[list[float] | None]] = {}
    if "exact" in methods:
        jobs = [[(query, c, metric) for c in candidates] for query in queries]
        rows["exact"] = _exact_rows(jobs, workers)
    tree_methods = tuple(m for m in TREE_METHODS if m in methods)
    if not tree_methods:
        return rows
    (tree,) = _trees([[*queries, *candidates]], [seed], metric)
    if tree is None:
        rows.update((m, [[0.0] * len(candidates) for _ in queries]) for m in tree_methods)
        return rows
    placed = PlacedDiagrams(tree, [*queries, *candidates])
    n, m = len(queries), len(candidates)
    flat = placed.distances(
        np.repeat(np.arange(n), m), np.tile(np.arange(n, n + m), n), tree_methods
    )
    rows.update(
        (method, [values[k : k + m] for k in range(0, n * m, m)])
        for method, values in flat.items()
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

    The ground truths are solved first, on up to `workers` threads, one
    pair per job. A pair over the oracle cap is skipped; a pair and metric
    with zero truth are excluded, as the relative error is undefined. Then,
    one metric at a time, the metric's trees are built in one _trees call
    (the kept pairs' own, or one over the dataset) and its kept pairs
    are walked together in one PlacedDiagrams.distances call, each pair on
    its tree; both tree methods are read from the same walks.
    """
    if len(dataset) < 2:
        raise ValueError("dataset must contain at least two diagrams")
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    if tree_policy not in ("per_pair", "whole_dataset"):
        raise ValueError(f"unknown tree_policy {tree_policy!r}")
    _check_methods(methods)

    rng = np.random.default_rng(seed)
    sampled = []
    for k in range(n_pairs):
        i, j = rng.choice(len(dataset), size=2, replace=False)
        tree_seed = int(rng.integers(0, 2**31 - 1))
        sampled.append((k, int(i), int(j), tree_seed))

    jobs = [[(dataset[i], dataset[j], m) for m in metrics] for _, i, j, _ in sampled]
    truths = _exact_rows(jobs, workers)

    # the kept (pair, metric) jobs in row order, with their pairs' tree seeds
    kept = []
    for (k, i, j, tree_seed), pair_truths in zip(sampled, truths):
        if pair_truths is None:
            continue
        for metric, d_true in zip(metrics, pair_truths):
            if d_true == 0.0:
                log.warning(
                    "pair (%d, %d) has zero true distance under %s; "
                    "relative error undefined, excluded",
                    i,
                    j,
                    metric.value,
                )
                continue
            kept.append((k, i, j, metric, d_true, tree_seed))

    # per metric, its kept jobs' trees, each pair's own from one _trees call
    # or the metric's shared one, then one placement and one distances call,
    # job p's diagrams being diagrams 2p and 2p + 1 of the placement
    approx: dict[tuple[int, str], float] = {}
    tree_methods = [m for m in TREE_METHODS if m in methods]
    for metric in metrics:
        positions = [p for p, job in enumerate(kept) if job[3] is metric]
        if not positions or not tree_methods:
            continue
        if tree_policy == "per_pair":
            groups = [(dataset[kept[p][1]], dataset[kept[p][2]]) for p in positions]
            trees = _trees(groups, [kept[p][5] for p in positions], metric)
        else:
            trees = _trees([dataset], [seed], metric) * len(positions)
        placed = PlacedDiagrams(
            [tree for tree in trees for _ in "ab"],
            [dataset[side] for p in positions for side in kept[p][1:3]],
        )
        pairs = 2 * np.arange(len(positions))
        for method, values in placed.distances(pairs, pairs + 1, tree_methods).items():
            approx.update(((p, method), value) for p, value in zip(positions, values))

    rows: list[PairErrorRow] = []
    for p, (k, i, j, metric, d_true, _) in enumerate(kept):
        for method in methods:
            d_approx = d_true if method == "exact" else approx[p, method]
            rows.append(
                PairErrorRow(
                    pair_index=k,
                    left=i,
                    right=j,
                    method=method,
                    ground_metric=metric.value,
                    d_true=d_true,
                    d_approx=d_approx,
                    rel_error=relative_error(d_true, d_approx),
                )
            )
    skipped = sum(t is None for t in truths)

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

    Tree methods share one tree over queries and candidates, place all of
    them once (PlacedDiagrams) and walk all query-candidate pairs together,
    the embedding method costing the matchings in the tree metric (exact,
    rounded once) and the flowtree method in the ground metric.
    When no diagram holds a point, the tree methods return 0.0 rows without
    building a tree. `workers` is the number of threads for the exact
    method, one query per job; the tree methods ignore it.
    """
    if not candidates:
        raise ValueError("candidates must be non-empty")
    _check_methods([method])
    return _rows(queries, candidates, [method], metric, seed, workers)[method]


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

    Per size, one tree over the pair (_trees) serves every tree method, and
    its build time is each tree-method row's tree_seconds (0.0 for exact
    rows, and no tree is built without a tree method). A tree method's rep
    times the pair's placement and walk on that tree,
    PlacedDiagrams(tree, pair).distances([0], [1], (method,)). The exact
    method's rep times exact_distance, after one untimed solve per size;
    over the oracle cap, that solve raises SizeCapError.
    """
    if any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly ascending")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    _check_methods(methods)
    rng = np.random.default_rng(seed)
    rows: list[BenchRow] = []
    for size in sizes:
        first = gen_uniform(size, int(rng.integers(0, 2**31 - 1)))
        second = gen_uniform(size, int(rng.integers(0, 2**31 - 1)))
        tree_seed = int(rng.integers(0, 2**31 - 1))
        tree_seconds = 0.0
        if any(m in TREE_METHODS for m in methods):
            t0 = time.perf_counter()
            (tree,) = _trees([(first, second)], [tree_seed], metric)
            tree_seconds = time.perf_counter() - t0
        for method in methods:
            if method == "exact":
                # one untimed solve first: exact_distance loads its compiled
                # solver on first use, and no timed rep may pay that
                exact_distance(first, second, metric)
            times = []
            for _ in range(reps):
                t0 = time.perf_counter()
                if method == "exact":
                    exact_distance(first, second, metric)
                else:
                    PlacedDiagrams(tree, (first, second)).distances([0], [1], (method,))
                times.append(time.perf_counter() - t0)
            rows.append(
                BenchRow(
                    size=size,
                    method=method,
                    ground_metric=metric.value,
                    reps=reps,
                    mean_seconds=statistics.fmean(times),
                    median_seconds=statistics.median(times),
                    tree_seconds=tree_seconds if method in TREE_METHODS else 0.0,
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
    computed. The split's rows come from one _rows call: its exact rows,
    solved once, serve as the ground truth and as method exact's rows, and
    both tree methods read the same walks on the tree of seed `seed`. A
    query over the oracle cap raises SizeCapError after recall is written
    and before ranking is. Arguments are checked by the functions that use
    them, as they run. Returns the error suite, whose skipped_pairs count
    the pairs over the oracle cap.
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
    tree_methods = [m for m in methods if m in TREE_METHODS]
    rows_by_method = _rows(
        queries, candidates, ["exact", *tree_methods], primary_metric, seed, workers
    )
    true_rows = rows_by_method["exact"]

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


def _record(row) -> dict:
    """A table row as a dict: the row itself, or a dataclass row's fields,
    not copied, as every table row holds only scalars."""
    return row if isinstance(row, dict) else vars(row)


def write_csv(path, fieldnames: Sequence[str], rows) -> None:
    """Stable-ordered CSV; rows are dicts or dataclasses of scalars."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(fieldnames))
        writer.writeheader()
        for row in rows:
            writer.writerow(_record(row))


def write_json(path, rows) -> None:
    """JSON mirror of a CSV table: a list of records with the same fields."""
    path = Path(path)
    records = [_record(row) for row in rows]
    path.write_text(json.dumps(records, indent=2) + "\n")
