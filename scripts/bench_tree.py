"""Cost of a tree's geometry, and of importing the package.

For seeded pairs of uniform and gaussian diagrams of n points per side (the
tree holds both, 2n points), times in process, after one untimed call, the
median over the runs in milliseconds of
- `tree_geometry` over the pair's stacked points, under L2;
- `quadtree._min_separation` over the distinct sorted points that
  `tree_geometry` hands it, under each ground metric.

On the error-suite shape of `dgmdist eval` (a `gen uniform` set of 20
diagrams of up to 150 points at seed 5, and 15 pairs of it drawn as
`error_suite` draws them at that seed), it times the geometries of the 15
pairs' trees under L2: one `tree_geometry` call per pair, against the one
`quadtree._geometries` call that `error_suite` makes.

It also starts fresh interpreters that run `import dgmdist` and reports the
median time of that import, of the whole process (with its launcher) and
the peak resident set size (`ru_maxrss`) of such an interpreter, and
whether it loaded scipy.

Usage, from anywhere in the repository:

    python3 scripts/bench_tree.py [--out BENCH_tree.json] [--runs 5]
        [--sizes 150,1000,4000,16000,64000] [--import-runs 5]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
from benchlib import ROOT, cli, median_ms, write_report

from dgmdist import (
    GroundMetric,
    gen_gaussian,
    gen_uniform,
    load_diagram,
    tree_geometry,
    union_coords,
)
from dgmdist._rows import group_rows
from dgmdist.quadtree import _geometries, _min_separation

GENERATORS = {"uniform": gen_uniform, "gaussian": gen_gaussian}
# the error-suite shape: eval-uniform's set and pairs
SUITE = {"diagrams": 20, "max_size": 150, "pairs": 15, "seed": 5}

IMPORT_PROBE = (
    "import resource, sys, time\n"
    "start = time.perf_counter()\n"
    "import dgmdist\n"
    "seconds = time.perf_counter() - start\n"
    "rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
    "scipy = any(m.split('.')[0] == 'scipy' for m in sys.modules)\n"
    "print(seconds, rss, scipy)\n"
)
# Linux carries a process's peak RSS across fork and exec into its child's
# ru_maxrss, so each probe is started by a small launcher interpreter, not
# by this process with its arrays.
LAUNCHER = (
    "import subprocess, sys; subprocess.run([sys.executable, '-c', sys.argv[1]], check=True)"
)


def pair_points(kind: str, n: int) -> np.ndarray:
    """The stacked points of diagrams (n, seed 1) and (n, seed 2)."""
    gen = GENERATORS[kind]
    return np.vstack([gen(n, 1).coords(), gen(n, 2).coords()])


def distinct_sorted(points: np.ndarray) -> np.ndarray:
    """The rows tree_geometry passes to _min_separation."""
    order, starts = group_rows(points[:, 0], points[:, 1])
    return points[order[starts]]


def suite_point_sets() -> list[np.ndarray]:
    """The stacked points of each error-suite pair: the pairs error_suite
    draws at SUITE's seed from the diagrams `gen` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        cli(["gen", "--kind", "uniform", "--count", str(SUITE["diagrams"]),
             "--max-size", str(SUITE["max_size"]), "--seed", str(SUITE["seed"]), "--out", tmp])
        diagrams = [load_diagram(path) for path in sorted(Path(tmp).glob("dgm_*.txt"))]
    rng = np.random.default_rng(SUITE["seed"])
    sets = []
    for _ in range(SUITE["pairs"]):
        i, j = rng.choice(len(diagrams), size=2, replace=False)
        rng.integers(0, 2**31 - 1)  # the pair's tree seed, which no geometry reads
        sets.append(union_coords((diagrams[i], diagrams[j])))
    return sets


def fresh_import(runs: int) -> dict:
    """Median import time and peak RSS of `import dgmdist` in new processes."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    seconds, rss, loaded = [], [], set()
    for _ in range(runs):
        start = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", LAUNCHER, IMPORT_PROBE], env=env,
            capture_output=True, text=True, check=True,
        ).stdout.split()
        wall = time.perf_counter() - start
        seconds.append((float(out[0]), wall))
        rss.append(int(out[1]) / 1024.0)
        loaded.add(out[2] == "True")
    return {
        "import_ms": statistics.median(s for s, _ in seconds) * 1e3,
        "process_ms": statistics.median(w for _, w in seconds) * 1e3,
        "ru_maxrss_mb": statistics.median(rss),
        "scipy_loaded": sorted(loaded) == [True],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_tree.json", help="report path")
    parser.add_argument("--runs", type=int, default=5, help="timed runs per entry")
    parser.add_argument("--sizes", default="150,1000,4000,16000,64000", help="points per side")
    parser.add_argument("--import-runs", type=int, default=5, help="fresh interpreters")
    args = parser.parse_args(argv)
    if args.runs < 1 or args.import_runs < 1:
        parser.error("--runs and --import-runs must be >= 1")
    sizes = [int(s) for s in args.sizes.split(",")]

    rows = []
    for kind in GENERATORS:
        for n in sizes:
            points = pair_points(kind, n)
            distinct = distinct_sorted(points)
            row = {
                "generator": kind,
                "n_per_side": n,
                "points": len(distinct),
                "tree_geometry_ms": median_ms(
                    lambda: tree_geometry(points, GroundMetric.L2), args.runs
                ),
            }
            for metric in GroundMetric:
                row[f"min_separation_{metric.value}_ms"] = median_ms(
                    lambda: _min_separation(distinct, metric, np.zeros(1, int)), args.runs
                )
            print(json.dumps(row), file=sys.stderr)
            rows.append(row)
    sets = suite_point_sets()
    suite = {
        **SUITE,
        "points": sum(map(len, sets)),
        "per_pair_tree_geometry_ms": median_ms(
            lambda: [tree_geometry(points, GroundMetric.L2) for points in sets], args.runs
        ),
        "batched_geometries_ms": median_ms(lambda: _geometries(sets, GroundMetric.L2), args.runs),
    }
    print(json.dumps(suite), file=sys.stderr)
    imports = fresh_import(args.import_runs)
    print(json.dumps(imports), file=sys.stderr)

    write_report(
        args.out,
        "tree_geometry (l2) and _min_separation (each metric) over gen_uniform / "
        "gen_gaussian pairs (seeds 1, 2) of n points per side; the error-suite "
        "shape's pair geometries (l2), per pair and in one call; `import dgmdist` "
        "in fresh interpreters",
        f"median of {args.runs} runs after one untimed call, ms; "
        f"median of {args.import_runs} fresh imports",
        timings=rows,
        error_suite_shape=suite,
        fresh_import=imports,
    )


if __name__ == "__main__":
    main()
