"""Per-pair cost of `knn_distances` for the two tree methods.

For each of two fixed-seed sets of near-diagonal (gaussian) diagrams, split
into queries and candidates, times one `knn_distances` call per method (the
shared tree, the `PlacedDiagrams` placement and the walks, and every query x
candidate distance) and reports the median over the runs in milliseconds per
pair. One untimed call per method and set runs first. Per method it also
counts, in one more call, the rows the walks take, the rows retired to the
diagonal without walking and the walks (`_chunk` and `_walk`, wrapped
here), and it reads one call's `tracemalloc` peak. It also times the
stages on the shared tree apart: the placement of queries and candidates,
which both methods share, then one query's `flowtree_row` or
`embedding_row` against every candidate. For flowtree
it also counts the rows that one `knn_distances` call hands to the walk's
per-level cell sort, summed over the levels (`group_cells`, wrapped here;
the rows sent to the diagonal at a level are not sorted).

Usage, from anywhere in the repository:

    python3 scripts/bench_knn.py [--out BENCH_knn.json] [--runs 5]
"""

from __future__ import annotations

import argparse
import json
import sys
import tracemalloc

import numpy as np
from benchlib import median_ms, write_report

import dgmdist.flowtree
from dgmdist import (
    GroundMetric,
    PlacedDiagrams,
    TreeConfig,
    build_tree,
    gen_gaussian,
    knn_distances,
    union_coords,
)

# the first set has the shape of perfbench's knn-gaussian rounds
SETS = (
    {"name": "gaussian-4x36-300", "queries": 4, "candidates": 36, "max_size": 300, "seed": 1},
    {"name": "gaussian-10x100-1000", "queries": 10, "candidates": 100, "max_size": 1000, "seed": 2},
)
METHODS = ("flowtree", "embedding")


def split_dataset(spec):
    """Diagram sizes ramp up to max_size as `dgmdist gen` makes them; a
    seeded permutation picks the queries."""
    count = spec["queries"] + spec["candidates"]
    rng = np.random.default_rng(spec["seed"])
    diagrams = [
        gen_gaussian(max(1, round(spec["max_size"] * (i + 1) / count)), int(rng.integers(0, 2**31 - 1)))
        for i in range(count)
    ]
    order = rng.permutation(count)
    queries = [diagrams[i] for i in order[: spec["queries"]]]
    candidates = [diagrams[i] for i in order[spec["queries"]:]]
    return queries, candidates


def ms_per_pair(queries, candidates, method, runs):
    def run():
        knn_distances(queries, candidates, method, GroundMetric.L2, seed=0)

    return median_ms(run, runs) / (len(queries) * len(candidates))


def walk_counts(queries, candidates, method):
    """(rows walked, rows retired without walking, walks, traced peak in
    MB) of one knn_distances call."""
    flowtree = dgmdist.flowtree
    chunk, walk = flowtree._chunk, flowtree._walk
    walked = retired = walks = 0

    def counting_chunk(*args):
        nonlocal walked, retired
        rows = chunk(*args)
        walked += len(rows.point)
        retired += len(rows.retired)
        return rows

    def counting_walk(*args):
        nonlocal walks
        walks += 1
        return walk(*args)

    flowtree._chunk, flowtree._walk = counting_chunk, counting_walk
    try:
        knn_distances(queries, candidates, method, GroundMetric.L2, seed=0)
    finally:
        flowtree._chunk, flowtree._walk = chunk, walk
    tracemalloc.start()
    try:
        knn_distances(queries, candidates, method, GroundMetric.L2, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return walked, retired, walks, peak / 1e6


def shared_tree(diagrams):
    """The tree knn_distances builds over queries and candidates."""
    return build_tree(union_coords(diagrams), TreeConfig(seed=0, ground_metric=GroundMetric.L2))


def embedding_stages(queries, candidates, runs):
    """ms per query row of embedding_row on the tree and placement
    knn_distances builds."""
    diagrams = list(queries) + list(candidates)
    placed = PlacedDiagrams(shared_tree(diagrams), diagrams)
    js = range(len(queries), len(diagrams))
    rows_ms = median_ms(lambda: [placed.embedding_row(i, js) for i in range(len(queries))], runs)
    return rows_ms / len(queries)


def flowtree_stages(queries, candidates, runs):
    """(placement ms, ms per query row, rows the per-level cell sort orders
    in one knn_distances call) on the tree knn_distances builds."""
    diagrams = list(queries) + list(candidates)
    tree = shared_tree(diagrams)
    place_ms = median_ms(lambda: PlacedDiagrams(tree, diagrams), runs)
    placed = PlacedDiagrams(tree, diagrams)
    js = range(len(queries), len(diagrams))
    rows_ms = median_ms(lambda: [placed.flowtree_row(i, js) for i in range(len(queries))], runs)
    sorted_rows = 0
    group_cells = dgmdist.flowtree.group_cells

    def counting(a, b, *bits):
        nonlocal sorted_rows
        sorted_rows += len(a)
        return group_cells(a, b, *bits)

    dgmdist.flowtree.group_cells = counting
    try:
        knn_distances(queries, candidates, "flowtree", GroundMetric.L2, seed=0)
    finally:
        dgmdist.flowtree.group_cells = group_cells
    return place_ms, rows_ms / len(queries), sorted_rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_knn.json", help="report path")
    parser.add_argument("--runs", type=int, default=5, help="timed runs per method and set")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")

    results = []
    for spec in SETS:
        queries, candidates = split_dataset(spec)
        row = {**spec, "points": sum(d.total_count for d in queries + candidates)}
        for method in METHODS:
            row[f"{method}_ms_per_pair"] = ms_per_pair(queries, candidates, method, args.runs)
            (
                row[f"{method}_rows_walked"],
                row[f"{method}_rows_retired"],
                row[f"{method}_walks"],
                row[f"{method}_traced_peak_mb"],
            ) = walk_counts(queries, candidates, method)
        row["embedding_row_ms"] = embedding_stages(queries, candidates, args.runs)
        row["flowtree_place_ms"], row["flowtree_row_ms"], row["flowtree_rows_sorted"] = (
            flowtree_stages(queries, candidates, args.runs)
        )
        results.append(row)
        print(json.dumps(row), file=sys.stderr)

    write_report(
        args.out,
        "knn_distances, ground metric l2, workers 1",
        f"median of {args.runs} runs, ms per query x candidate pair",
        sets=results,
    )


if __name__ == "__main__":
    main()
