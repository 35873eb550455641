"""Cost of the evaluation harness on the eval-uniform shape: a `gen uniform`
set of 20 diagrams of up to 150 points.

Times, in process and after one untimed call, the median over the runs in
milliseconds of
- `error_suite` with methods embedding and flowtree under l2, 15 pairs, once
  per tree policy (per_pair, whole_dataset);
- `error_suite` with method exact under l2, 15 pairs, at workers 1 and 2:
  the exact oracle in line and on two threads;
- the whole `eval_report` of `dgmdist eval --methods embedding,flowtree
  --metrics l2 --n-pairs 15 --bench-sizes 100,200 --reps 3 --workers 1`,
  written into a temporary directory.

The set is written by the CLI's `gen` command at a fixed seed, and every
call uses the seed given.

Usage, from anywhere in the repository:

    python3 scripts/bench_eval.py [--out BENCH_eval.json] [--runs 15]
        [--count 20] [--max-size 150] [--pairs 15] [--bench-sizes 100,200]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from benchlib import cli, median_ms, write_report

from dgmdist import GroundMetric, error_suite, eval_report, load_diagram

METHODS = ["embedding", "flowtree"]
METRICS = [GroundMetric.L2]
POLICIES = ("per_pair", "whole_dataset")


def dataset(directory: Path, count: int, max_size: int, seed: int):
    """The diagrams `dgmdist gen --kind uniform` writes, in file order."""
    cli(["gen", "--kind", "uniform", "--count", str(count), "--max-size", str(max_size),
         "--seed", str(seed), "--out", str(directory)])
    return [load_diagram(path) for path in sorted(directory.glob("dgm_*.txt"))]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_eval.json", help="report path")
    parser.add_argument("--runs", type=int, default=15, help="timed runs per entry")
    parser.add_argument("--count", type=int, default=20, help="diagrams in the set")
    parser.add_argument("--max-size", type=int, default=150, help="largest diagram size")
    parser.add_argument("--pairs", type=int, default=15, help="error-suite pairs")
    parser.add_argument("--bench-sizes", default="100,200", help="eval's runtime table sizes")
    parser.add_argument("--seed", type=int, default=5, help="set and evaluation seed")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    sizes = [int(s) for s in args.bench_sizes.split(",")]

    timings = {}
    with tempfile.TemporaryDirectory() as tmp:
        data = dataset(Path(tmp) / "data", args.count, args.max_size, args.seed)
        for policy in POLICIES:
            timings[f"error_suite_{policy}_ms"] = median_ms(
                lambda: error_suite(
                    data, METHODS, METRICS, args.seed, args.pairs, tree_policy=policy
                ),
                args.runs,
            )
        for workers in (1, 2):
            timings[f"exact_error_suite_workers_{workers}_ms"] = median_ms(
                lambda: error_suite(
                    data, ["exact"], METRICS, args.seed, args.pairs, workers=workers
                ),
                args.runs,
            )
        out = Path(tmp) / "report"
        out.mkdir()
        timings["eval_report_ms"] = median_ms(
            lambda: eval_report(
                data, out, METHODS, METRICS, args.seed, args.pairs, "per_pair",
                sizes, 3, 1,
            ),
            args.runs,
        )
    print(json.dumps(timings), file=sys.stderr)

    write_report(
        args.out,
        f"error_suite and eval_report on gen uniform {args.count} x <= {args.max_size} "
        f"(seed {args.seed}), methods embedding,flowtree (exact in exact_error_suite_*), "
        f"ground metric l2, {args.pairs} pairs, workers 1 (2 in *_workers_2_ms)",
        f"median of {args.runs} runs after one untimed call, ms",
        timings=timings,
    )


if __name__ == "__main__":
    main()
