"""Cost of reading diagram files: `load_diagram` against the line scan.

For each generator (`gen_uniform`, `gen_gaussian`) and size n, writes the
diagram with seed 1 by `save_diagram`, then times `load_diagram` and
`line_scan_diagram` (the line-by-line parser of `tests/reference.py`) on
the file. It does the same for two sets of files written by `dgmdist gen`:
the 40 near-diagonal diagrams of at most 300 points that one knn command
reads, and the 20 uniform diagrams of at most 150 points that one eval
command reads, each set timed as one pass over its files. The two parsers
take turns for a number of rounds, and in each round each one is timed as
the median of three runs after one untimed call. The report gives each
parser's median over the rounds in milliseconds and the median of the
rounds' ratios scan / load.

Usage, from anywhere in the repository:

    python3 scripts/bench_load.py [--out BENCH_load.json] [--runs 11]
        [--sizes 1000,3000,16000,64000]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
from pathlib import Path

from benchlib import ROOT, cli, median_ms, write_report

from dgmdist import gen_gaussian, gen_uniform, load_diagram, save_diagram

sys.path.insert(0, str(ROOT / "tests"))
from reference import line_scan_diagram  # noqa: E402

GENERATORS = {"uniform": gen_uniform, "gaussian": gen_gaussian}
BLOCK = 3
# the inputs of one perfbench knn-gaussian and one eval-uniform command
FILE_SETS = (
    {"name": "knn-40-gaussian-300", "kind": "gaussian", "count": 40, "max_size": 300, "seed": 7},
    {"name": "eval-20-uniform-150", "kind": "uniform", "count": 20, "max_size": 150, "seed": 8},
)


def timings(paths, runs):
    """ms of one pass over the files by each parser, and their ratio: the
    medians over rounds, a round timing each parser by `median_ms` of
    BLOCK runs, so that a slow spell of the machine falls on both."""
    rounds = [
        (median_ms(lambda: [load_diagram(p) for p in paths], BLOCK),
         median_ms(lambda: [line_scan_diagram(p) for p in paths], BLOCK))
        for _ in range(runs)
    ]
    return {
        "load_diagram_ms": statistics.median(load for load, _ in rounds),
        "line_scan_ms": statistics.median(scan for _, scan in rounds),
        "speedup": statistics.median(scan / load for load, scan in rounds),
    }


def write_set(spec, directory):
    """The set's files, written by the CLI's gen command."""
    cli(["gen", "--kind", spec["kind"], "--count", str(spec["count"]),
         "--max-size", str(spec["max_size"]), "--seed", str(spec["seed"]),
         "--out", str(directory)])
    return sorted(directory.glob("*.txt"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_load.json", help="report path")
    parser.add_argument("--runs", type=int, default=11, help="timed rounds per file or set")
    parser.add_argument("--sizes", default="1000,3000,16000,64000",
                        help="comma-separated points per generated file")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    sizes = [int(s) for s in args.sizes.split(",")]

    files, sets = [], []
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        for generator, make in GENERATORS.items():
            for n in sizes:
                path = scratch / f"{generator}_{n}.txt"
                save_diagram(make(n, 1), path)
                row = {"generator": generator, "n": n, **timings([path], args.runs)}
                files.append(row)
                print(json.dumps(row), file=sys.stderr)
        for spec in FILE_SETS:
            paths = write_set(spec, scratch / spec["name"])
            row = {**spec, **timings(paths, args.runs)}
            sets.append(row)
            print(json.dumps(row), file=sys.stderr)

    write_report(
        args.out,
        "load_diagram against the line scan, files written by save_diagram",
        f"median of {args.runs} rounds of {BLOCK} runs per parser, ms per file or per set "
        "of files; speedup is the median of the rounds' scan / load",
        files=files,
        sets=sets,
    )


if __name__ == "__main__":
    main()
