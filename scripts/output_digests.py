"""sha256 digests of the outputs the CLI writes on fixed diagram sets, for
checking that a change keeps every output byte-identical.

A set is made by `dgmdist gen` or written out from points given here (the
int64-edge set: multiplicities up to 2**62 + 7, a near-duplicate pair whose
tree hits the 40-level cap, an empty diagram). On each set it runs
- `dist` on fixed file pairs, flowtree and embedding, all three metrics,
  `--trees 2`;
- `write_matching` of `greedy_match` on the same pairs and metrics, seed 0;
- `embed` of the whole set, all three metrics;
- the set's tables: `knn` (both tree methods, all three metrics, the first
  two files as queries) and `eval` (exact, embedding and flowtree under l2
  and l1, both tree policies);
- on a set that runs `eval`, the `--workers` twins: `knn --method exact`
  under l2 at `--workers` 1 and 2, and at `--workers 2` the l2 `knn` of
  both tree methods and the per_pair `eval` (output names ending `_w2`).
  `--workers` spreads only the exact oracle, so each twin's digest equals
  that of its `--workers 1` output.

It prints one line per output, "<sha256>  <set>/<output>". `dist`'s
`elapsed` and the runtime table's timing columns are dropped before hashing;
a directory output hashes its file names and bytes in name order. Run it at
two commits and diff the listings; `--keep DIR` keeps the hashed outputs for
a closer look. `tests/data/output_digests.txt` is the committed listing,
which the test suite compares with a fresh run: a change that moves an
output on purpose rewrites it.

Usage, from anywhere in the repository:

    python3 scripts/output_digests.py [--keep DIR]
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

from benchlib import cli

from dgmdist import (
    GroundMetric,
    PersistenceDiagram,
    TreeConfig,
    build_tree,
    greedy_match,
    load_diagram,
    save_diagram,
    union_coords,
    write_matching,
)

# a set is `gen` arguments or its diagrams' points; tables: the table
# commands run on it (the exact oracle, which eval and the `--workers` twins
# run, would skip the large pair and cannot take the int64-edge
# multiplicities)
SETS = (
    {"name": "uniform-1", "kind": "uniform", "count": 20, "max_size": 120, "seed": 1,
     "tables": ("knn", "eval")},
    {"name": "gaussian-4", "kind": "gaussian", "count": 20, "max_size": 150, "seed": 4,
     "tables": ("knn", "eval")},
    {"name": "uniform-3000", "kind": "uniform", "count": 2, "max_size": 3000, "seed": 7,
     "tables": ()},
    {"name": "int64-edge", "tables": ("knn",), "diagrams": (
        [(0.0, 1.0, 2**62 + 7), (0.5, 3.0, 3), (1.0, 4.0, 2**40), (2.0, 2.5)],
        [(0.0, 1.0, 2**62), (0.5, 3.0 + 1e-13, 2**61), (1.5, 2.0, 9)],
        [],
        [(0.25, 0.75, 2**62 - 1), (0.5, 3.0, 2**61 + 3), (3.0, 3.5)],
        [(0.0, 2.0), (1.0, 4.0, 2**62 + 7)],
    )},
)
METRICS = [m.value for m in GroundMetric]
TREE_METHODS = ("flowtree", "embedding")
TIMING_COLUMNS = ("mean_seconds", "median_seconds", "tree_seconds")


def digest(path: Path) -> str:
    h = hashlib.sha256()
    if path.is_dir():
        for child in sorted(path.iterdir()):
            h.update(child.name.encode() + b"\0" + child.read_bytes() + b"\0")
    else:
        h.update(path.read_bytes())
    return h.hexdigest()


def drop_timings(table: Path) -> None:
    """Rewrite a runtime table, .csv or .json, without its timing columns."""
    if table.suffix == ".json":
        rows = json.loads(table.read_text())
        for row in rows:
            for column in TIMING_COLUMNS:
                row.pop(column)
        table.write_text(json.dumps(rows, indent=2) + "\n")
        return
    with table.open(newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    kept = [c for c in reader.fieldnames if c not in TIMING_COLUMNS]
    with table.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=kept, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


def set_outputs(spec: dict, work: Path) -> list[Path]:
    """Runs every command on one set; returns the outputs in a fixed order."""
    data = work / "data"
    if "diagrams" in spec:
        data.mkdir()
        for i, points in enumerate(spec["diagrams"]):
            save_diagram(PersistenceDiagram(points), data / f"dgm_{i:04d}.txt")
    else:
        cli(["gen", "--kind", spec["kind"], "--count", str(spec["count"]),
             "--max-size", str(spec["max_size"]), "--seed", str(spec["seed"]),
             "--out", str(data)])
    files = sorted(data.glob("dgm_*.txt"))
    last = len(files) - 1
    pairs = sorted({(0, 1), (0, last), (last // 2, last)} - {(last, last)})
    outputs = []
    for a, b in pairs:
        first, second = load_diagram(files[a]), load_diagram(files[b])
        for metric in METRICS:
            for method in TREE_METHODS:
                report = json.loads(cli(["dist", str(files[a]), str(files[b]),
                                         "--method", method, "--metric", metric,
                                         "--trees", "2", "--seed", "0"]))
                report.pop("elapsed")
                out = work / f"dist_{a}_{b}_{metric}_{method}.json"
                out.write_text(json.dumps(report, indent=2) + "\n")
                outputs.append(out)
            config = TreeConfig(seed=0, ground_metric=GroundMetric(metric))
            tree = build_tree(union_coords((first, second)), config)
            out = work / f"match_{a}_{b}_{metric}.match"
            write_matching(greedy_match(tree, first, second), out)
            outputs.append(out)
    for metric in METRICS:
        out = work / f"embed_{metric}"
        cli(["embed", "--in", str(data), "--out", str(out), "--metric", metric, "--seed", "0"])
        outputs.append(out)
    if "knn" not in spec["tables"]:
        return outputs
    queries, candidates = work / "queries", work / "candidates"
    for i, path in enumerate(files):
        target = queries if i < 2 else candidates
        target.mkdir(exist_ok=True)
        shutil.copy(path, target / path.name)

    def knn(metric: str, method: str, workers: str = "1") -> Path:
        suffix = "" if workers == "1" else f"_w{workers}"
        out = work / f"knn_{metric}_{method}{suffix}.csv"
        cli(["knn", "--queries", str(queries), "--candidates", str(candidates),
             "--method", method, "--metric", metric, "-k", "5", "--seed", "0",
             "--workers", workers, "--out", str(out)])
        return out

    def evaluate(policy: str, workers: str = "1") -> Path:
        suffix = "" if workers == "1" else f"_w{workers}"
        out = work / f"eval_{policy}{suffix}"
        cli(["eval", "--data", str(data), "--methods", "exact,embedding,flowtree",
             "--metrics", "l2,l1", "--out", str(out), "--seed", "0", "--n-pairs", "10",
             "--tree-policy", policy, "--bench-sizes", "20", "--reps", "1",
             "--workers", workers])
        for table in ("runtime.csv", "runtime.json"):
            drop_timings(out / table)
        return out

    outputs += [knn(metric, method) for metric in METRICS for method in TREE_METHODS]
    if "eval" not in spec["tables"]:
        return outputs
    outputs += [evaluate(policy) for policy in ("per_pair", "whole_dataset")]
    outputs += [knn("l2", "exact", workers) for workers in ("1", "2")]
    outputs += [knn("l2", method, "2") for method in TREE_METHODS]
    outputs.append(evaluate("per_pair", "2"))
    return outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", help="directory to keep the hashed outputs in")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(args.keep) if args.keep else Path(tmp)
        for spec in SETS:
            work = base / spec["name"]
            work.mkdir(parents=True, exist_ok=True)
            for out in set_outputs(spec, work):
                print(f"{digest(out)}  {out.relative_to(base)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
