"""Cost of the flowtree walk: `PlacedDiagrams.distances` by each method.

For seeded pairs of uniform diagrams of n points per side (`gen_uniform(n,
1)` against `gen_uniform(n, 2)`, on one L2 tree of seed 0 built over both),
times in process, after one untimed call, the median over the runs in
milliseconds of
- the placement of the pair, `PlacedDiagrams(tree, (first, second))`;
- `distances([0], [1], methods)` on that placement, by flowtree alone, by
  embedding alone and by both, which the walk serves at once.

The 100- and 200-point pairs are also timed as `runtime_bench` times one
pair: placement and walk of one method together (`PlacedDiagrams(tree,
pair).distances([0], [1], (method,))` on the built tree), the small-call
fixed cost. A call far below a millisecond is
timed in blocks of calls, and its time is per call.

Usage, from anywhere in the repository:

    python3 scripts/bench_walk.py [--out BENCH_walk.json] [--runs 5]
        [--sizes 100,200,1000,4000,16000,64000]
"""

from __future__ import annotations

import argparse
import json
import sys

from benchlib import median_ms, write_report

from dgmdist import GroundMetric, PlacedDiagrams, TreeConfig, build_tree, gen_uniform, union_coords

METHODS = {
    "flowtree": ("flowtree",),
    "embedding": ("embedding",),
    "both": ("flowtree", "embedding"),
}
SEEDS = (1, 2)
TREE_SEED = 0
# the runtime_bench shape: sizes timed as one whole single-pair call
SMALL = (100, 200)


def per_call_ms(fn, runs: int, calls: int) -> float:
    """Median ms per call of fn, timed in blocks of `calls` calls."""

    def block():
        for _ in range(calls):
            fn()

    return median_ms(block, runs) / calls


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_walk.json", help="report path")
    parser.add_argument("--runs", type=int, default=5, help="timed runs per entry")
    parser.add_argument(
        "--sizes", default="100,200,1000,4000,16000,64000", help="points per side"
    )
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    sizes = [int(s) for s in args.sizes.split(",")]

    rows = []
    for n in sizes:
        pair = tuple(gen_uniform(n, seed) for seed in SEEDS)
        config = TreeConfig(seed=TREE_SEED, ground_metric=GroundMetric.L2)
        tree = build_tree(union_coords(pair), config)
        placed = PlacedDiagrams(tree, pair)
        # blocks of about 20,000 points: one call from 10,000 points per side up
        calls = max(1, 10_000 // n)
        row = {
            "n_per_side": n,
            "levels": tree.num_levels,
            "calls_per_sample": calls,
            "place_ms": per_call_ms(lambda: PlacedDiagrams(tree, pair), args.runs, calls),
        }
        for name, methods in METHODS.items():
            row[f"{name}_ms"] = per_call_ms(
                lambda: placed.distances([0], [1], methods), args.runs, calls
            )
        if n in SMALL:
            for method in ("flowtree", "embedding"):
                row[f"single_pair_{method}_ms"] = per_call_ms(
                    lambda: PlacedDiagrams(tree, pair).distances([0], [1], (method,)),
                    args.runs,
                    calls,
                )
        print(json.dumps(row), file=sys.stderr)
        rows.append(row)

    write_report(
        args.out,
        "PlacedDiagrams placement and distances([0], [1]) by flowtree, embedding and "
        "both, on gen_uniform pairs (seeds 1, 2) of n points per side, one l2 tree of "
        "seed 0; single-pair runtime_bench calls at 100 and 200 points",
        f"median of {args.runs} runs after one untimed call, ms per call",
        seeds=list(SEEDS),
        tree_seed=TREE_SEED,
        timings=rows,
    )


if __name__ == "__main__":
    main()
