"""Cost of the exact oracle, `exact_distance`, and the exact slope of
acceptance criterion 6.

For each generator (`gen_uniform`, `gen_gaussian`) and size n, times
`exact_distance` on the pair generated with seeds 1 and 2 under the L2
ground metric and reports the median over the runs in milliseconds, after
one untimed call. It then repeats criterion 6's exact measurement,
`runtime_bench([100, 200, 400], ["exact"], seed=2, reps=5)`, and reports the
log-log slope of each repeat with their median and range.

Usage, from anywhere in the repository:

    python3 scripts/bench_exact.py [--out BENCH_exact.json] [--runs 5]
        [--sizes 100,200,400,800,1600,2000] [--slope-runs 8]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import numpy as np
from benchlib import median_ms, write_report

from dgmdist import GroundMetric, exact_distance, gen_gaussian, gen_uniform, runtime_bench

GENERATORS = {"uniform": gen_uniform, "gaussian": gen_gaussian}
SLOPE_SIZES = [100, 200, 400]


def exact_slope():
    """Criterion 6's log-log slope of the exact method's median times."""
    rows = runtime_bench(SLOPE_SIZES, ["exact"], seed=2, reps=5)
    sizes = np.log([r.size for r in rows])
    times = np.log([r.median_seconds for r in rows])
    return float(np.polyfit(sizes, times, 1)[0])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_exact.json", help="report path")
    parser.add_argument("--runs", type=int, default=5, help="timed runs per generator and size")
    parser.add_argument(
        "--sizes", default="100,200,400,800,1600,2000", help="comma-separated diagram sizes"
    )
    parser.add_argument("--slope-runs", type=int, default=8, help="repeats of criterion 6's slope")
    args = parser.parse_args(argv)
    if args.runs < 1 or args.slope_runs < 1:
        parser.error("--runs and --slope-runs must be >= 1")
    sizes = [int(s) for s in args.sizes.split(",")]

    timings = []
    for kind, generator in GENERATORS.items():
        for n in sizes:
            first, second = generator(n, 1), generator(n, 2)
            ms = median_ms(lambda: exact_distance(first, second, GroundMetric.L2), args.runs)
            row = {"generator": kind, "n": n, "exact_ms": ms}
            timings.append(row)
            print(json.dumps(row), file=sys.stderr)

    slopes = [exact_slope() for _ in range(args.slope_runs)]
    print(json.dumps({"exact_slopes": slopes}), file=sys.stderr)

    write_report(
        args.out,
        "exact_distance on gen_<generator>(n, 1) vs gen_<generator>(n, 2), ground metric l2",
        f"median of {args.runs} runs, ms per distance",
        timings=timings,
        criterion_6_exact_slope={
            "sizes": SLOPE_SIZES,
            "runs": slopes,
            "median": statistics.median(slopes),
            "min": min(slopes),
            "max": max(slopes),
        },
    )


if __name__ == "__main__":
    main()
