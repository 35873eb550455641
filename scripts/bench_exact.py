"""Cost of the exact oracle, `exact_distance`, and the exact slope of
acceptance criterion 6.

For each generator (`gen_uniform`, `gen_gaussian`) and size n, times
`exact_distance` on the pair generated with seeds 1 and 2 under the L2
ground metric and reports the median over the runs in milliseconds, after
one untimed call. It then repeats criterion 6's exact measurement,
`runtime_bench([100, 200, 400], ["exact"], seed=2, reps=5)`, and reports the
log-log slope of each repeat with their median and range.

The cold path: fresh interpreters (each started by benchlib's launcher) run
`import dgmdist`, generate the uniform pair of 150 points with seeds 1 and 2
and make the first `exact_distance` call on it, under L2. It reports the
median time of those three steps, the median peak resident set size
(`ru_maxrss`) of such an interpreter, and the sorted scipy modules it loaded.

Usage, from anywhere in the repository:

    python3 scripts/bench_exact.py [--out BENCH_exact.json] [--runs 5]
        [--sizes 100,200,400,800,1600,2000] [--slope-runs 8] [--cold-runs 5]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import numpy as np
from benchlib import median_ms, probe, write_report

from dgmdist import GroundMetric, exact_distance, gen_gaussian, gen_uniform, runtime_bench

GENERATORS = {"uniform": gen_uniform, "gaussian": gen_gaussian}
SLOPE_SIZES = [100, 200, 400]
COLD = {"n": 150, "seeds": [1, 2]}

COLD_PROBE = (
    "import json, resource, sys, time\n"
    "start = time.perf_counter()\n"
    "import dgmdist\n"
    f"first, second = (dgmdist.gen_uniform({COLD['n']}, seed) for seed in {COLD['seeds']})\n"
    "dgmdist.exact_distance(first, second, dgmdist.GroundMetric.L2)\n"
    "seconds = time.perf_counter() - start\n"
    "rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
    "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
    "print(json.dumps([seconds, rss, scipy]))\n"
)


def exact_slope():
    """Criterion 6's log-log slope of the exact method's median times."""
    rows = runtime_bench(SLOPE_SIZES, ["exact"], seed=2, reps=5)
    sizes = np.log([r.size for r in rows])
    times = np.log([r.median_seconds for r in rows])
    return float(np.polyfit(sizes, times, 1)[0])


def cold_exact(runs: int) -> dict:
    """Median time and peak RSS of COLD_PROBE in fresh interpreters, and the
    scipy modules they loaded."""
    seconds, rss, loaded = [], [], set()
    for _ in range(runs):
        probe_s, maxrss, scipy = json.loads(probe(COLD_PROBE)[0])
        seconds.append(probe_s)
        rss.append(maxrss / 1024.0)
        loaded.update(scipy)
    return {
        **COLD,
        "cold_ms": statistics.median(seconds) * 1e3,
        "ru_maxrss_mb": statistics.median(rss),
        "scipy_modules": sorted(loaded),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_exact.json", help="report path")
    parser.add_argument("--runs", type=int, default=5, help="timed runs per generator and size")
    parser.add_argument(
        "--sizes", default="100,200,400,800,1600,2000", help="comma-separated diagram sizes"
    )
    parser.add_argument("--slope-runs", type=int, default=8, help="repeats of criterion 6's slope")
    parser.add_argument("--cold-runs", type=int, default=5, help="fresh interpreters")
    args = parser.parse_args(argv)
    if args.runs < 1 or args.slope_runs < 1 or args.cold_runs < 1:
        parser.error("--runs, --slope-runs and --cold-runs must be >= 1")
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
    cold = cold_exact(args.cold_runs)
    print(json.dumps(cold), file=sys.stderr)

    write_report(
        args.out,
        "exact_distance on gen_<generator>(n, 1) vs gen_<generator>(n, 2), ground metric l2; "
        "`import dgmdist` and the first exact_distance in fresh interpreters",
        f"median of {args.runs} runs, ms per distance; median of {args.cold_runs} fresh "
        "interpreters",
        timings=timings,
        criterion_6_exact_slope={
            "sizes": SLOPE_SIZES,
            "runs": slopes,
            "median": statistics.median(slopes),
            "min": min(slopes),
            "max": max(slopes),
        },
        cold_exact=cold,
    )


if __name__ == "__main__":
    main()
