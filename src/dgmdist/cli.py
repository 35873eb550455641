"""Command-line surface: generate, dist, embed, knn, eval, bench.

Each command parses its arguments, calls the library and formats the
result; dist with a tree method prints what multi_tree_estimate returns,
and eval's tables are those evaluate.eval_report writes.

Exit codes: 0 success, 2 usage (including invalid option values, such as
--trees 0, an unknown or repeated eval/bench method or metric, sizes that
do not strictly ascend, a negative --seed and a non-integer or negative
DGMDIST_SEED), 3 diagram parse error (including a multiplicity, or a sum of
them, past int64), 4 oracle size cap, 5 internal error. The first stderr line echoes
the fully resolved arguments, so every run can be reproduced from its log.
Without --seed the seed is read from the DGMDIST_SEED environment
variable, else 0.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from .diagram import (
    DiagramError,
    GroundMetric,
    PersistenceDiagram,
    gen_gaussian,
    gen_uniform,
    load_diagram,
    save_diagram,
)
from .embedding import embed, write_vector
from .evaluate import (
    METHODS,
    BenchRow,
    _columns,
    _trees,
    eval_report,
    knn_distances,
    runtime_bench,
    write_csv,
)
from .exact import SizeCapError, exact_distance
from .flowtree import multi_tree_estimate

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_SIZE_CAP = 4
EXIT_INTERNAL = 5

METRIC_NAMES = [m.value for m in GroundMetric]

log = logging.getLogger("dgmdist")


class _StderrHandler(logging.StreamHandler):
    """A handler that writes each record to sys.stderr as it is when the
    record is emitted, so that a redirected stderr receives it."""

    @property
    def stream(self):
        return sys.stderr

    @stream.setter
    def stream(self, value):
        pass


def _log_to_stderr() -> None:
    """Send the package's warnings and errors, as bare messages, to stderr
    and nowhere else. Only the dgmdist logger is configured, once per
    process: the root logger of a program that runs commands in process
    keeps its handlers and level."""
    if not any(isinstance(h, _StderrHandler) for h in log.handlers):
        handler = _StderrHandler()
        handler.setFormatter(logging.Formatter("%(message)s"))
        log.addHandler(handler)
    log.setLevel(logging.WARNING)
    log.propagate = False


class UsageError(Exception):
    """Invalid argument values detected after parsing."""


def _default_seed() -> int:
    value = os.environ.get("DGMDIST_SEED", "0")
    try:
        seed = int(value)
    except ValueError:
        seed = -1
    if seed < 0:
        raise UsageError(f"DGMDIST_SEED must be a non-negative integer, got {value!r}")
    return seed


def _names(text: str, kind: str, known) -> list[str]:
    """A comma-separated list of distinct names, each one of known."""
    names = text.split(",")
    for i, name in enumerate(names):
        if name not in known:
            raise UsageError(f"unknown {kind} {name!r}; expected one of {', '.join(known)}")
        if name in names[:i]:
            raise UsageError(f"{kind} {name!r} given twice")
    return names


def _methods(text: str) -> list[str]:
    return _names(text, "method", METHODS)


def _metrics(text: str) -> list[GroundMetric]:
    names = _names(text, "metric", METRIC_NAMES)
    return [GroundMetric(name) for name in names]


def _sizes(text: str, option: str) -> list[int]:
    try:
        sizes = [int(s) for s in text.split(",")]
    except ValueError:
        raise UsageError(f"{option} must be comma-separated integers, got {text!r}") from None
    if sizes[0] < 1 or any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise UsageError(f"{option} must be positive and strictly ascending, got {text!r}")
    return sizes


def _derived_seeds(seed: int, count: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**31 - 1, count)]


def _load_dir(directory) -> tuple[list[str], list[PersistenceDiagram]]:
    """Diagrams of a directory's regular *.txt files in sorted file order,
    with their stems."""
    directory = Path(directory)
    if not directory.is_dir():
        raise UsageError(f"not a directory: {directory}")
    paths = sorted(p for p in directory.glob("*.txt") if p.is_file())
    if not paths:
        raise UsageError(f"no diagram files (*.txt) in {directory}")
    return [p.stem for p in paths], [load_diagram(p) for p in paths]


def _echo_args(args: argparse.Namespace) -> None:
    resolved = dict(sorted(vars(args).items()))
    print(f"# dgmdist {args.command}: {json.dumps(resolved, default=str)}", file=sys.stderr)


def cmd_gen(args) -> int:
    if args.count < 1:
        raise UsageError("count must be >= 1")
    if args.max_size < 1:
        raise UsageError("max-size must be >= 1")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    generator = gen_uniform if args.kind == "uniform" else gen_gaussian
    file_seeds = _derived_seeds(args.seed, args.count)
    manifest = {
        "kind": args.kind,
        "count": args.count,
        "max_size": args.max_size,
        "seed": args.seed,
        "files": [],
    }
    for i in range(args.count):
        # size ramp: file i holds up to max_size*(i+1)/count points
        size = max(1, round(args.max_size * (i + 1) / args.count))
        diagram = generator(size, file_seeds[i])
        name = f"dgm_{i:04d}.txt"
        save_diagram(diagram, out_dir / name)
        manifest["files"].append({"name": name, "max_size": size, "seed": file_seeds[i]})
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {args.count} diagrams to {out_dir}")
    return EXIT_OK


def cmd_dist(args) -> int:
    if args.trees < 1:
        raise UsageError("trees must be >= 1")
    for path in (args.first, args.second):
        if not Path(path).is_file():
            raise UsageError(f"no such file: {path}")
    first = load_diagram(args.first)
    second = load_diagram(args.second)
    metric = GroundMetric(args.metric)
    t0 = time.perf_counter()
    if args.method == "exact":
        value = exact_distance(first, second, metric)
        seeds: list[int] = []
        tree_meta: list[dict] = []
    else:
        seeds = _derived_seeds(args.seed, args.trees)
        value, tree_meta = multi_tree_estimate(
            first, second, metric, seeds, args.reduce, args.method
        )
    elapsed = time.perf_counter() - t0
    report = {
        "method": args.method,
        "metric": args.metric,
        "value": value,
        "seeds": seeds if tree_meta else [],
        "tree_meta": tree_meta,
        "elapsed": elapsed,
    }
    print(json.dumps(report, indent=2))
    return EXIT_OK


def cmd_embed(args) -> int:
    names, diagrams = _load_dir(args.input)
    (tree,) = _trees([diagrams], [args.seed], GroundMetric(args.metric))
    if tree is None:
        raise UsageError("no diagram holds a point; there is nothing to embed")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, diagram in zip(names, diagrams):
        write_vector(embed(tree, diagram), out_dir / f"{name}.vec")
    print(f"wrote {len(names)} vectors to {out_dir} (tree {tree.signature})")
    return EXIT_OK


def cmd_knn(args) -> int:
    if args.k < 1:
        raise UsageError("k must be >= 1")
    if args.workers < 1:
        raise UsageError("workers must be >= 1")
    query_names, queries = _load_dir(args.queries)
    cand_names, candidates = _load_dir(args.candidates)
    metric = GroundMetric(args.metric)
    k = min(args.k, len(candidates))

    per_query = knn_distances(
        queries,
        candidates,
        args.method,
        metric,
        seed=args.seed,
        workers=args.workers,
    )

    rows = []
    skipped = 0
    for qname, distances in zip(query_names, per_query):
        if distances is None:
            skipped += 1
            log.warning("query %s skipped: oracle size cap exceeded", qname)
            continue
        order = sorted(range(len(candidates)), key=lambda c: (distances[c], c))
        for rank, c in enumerate(order[:k], start=1):
            rows.append(
                {
                    "query": qname,
                    "rank": rank,
                    "candidate": cand_names[c],
                    "distance": distances[c],
                }
            )

    out = Path(args.out) if args.out else None
    fieldnames = ["query", "rank", "candidate", "distance"]
    if out:
        write_csv(out, fieldnames, rows)
    else:
        writer = csv.DictWriter(sys.stdout, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    if skipped > 0.5 * len(queries):
        log.error("%d of %d queries skipped", skipped, len(queries))
        return EXIT_SIZE_CAP
    return EXIT_OK


def cmd_eval(args) -> int:
    methods = _methods(args.methods)
    metrics = _metrics(args.metrics)
    bench_sizes = _sizes(args.bench_sizes, "bench-sizes")
    if args.n_pairs < 1:
        raise UsageError("n-pairs must be >= 1")
    if args.reps < 1:
        raise UsageError("reps must be >= 1")
    if args.workers < 1:
        raise UsageError("workers must be >= 1")
    _, dataset = _load_dir(args.data)
    if len(dataset) < 2:
        raise UsageError("dataset must contain at least two diagrams")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    suite = eval_report(
        dataset,
        out_dir,
        methods,
        metrics,
        seed=args.seed,
        n_pairs=args.n_pairs,
        tree_policy=args.tree_policy,
        bench_sizes=bench_sizes,
        reps=args.reps,
        workers=args.workers,
    )
    print(f"wrote evaluation CSVs to {out_dir}")
    if suite.skipped_pairs / suite.total_pairs > 0.5:
        log.error("skipped rate above 50%% (pairs: %d/%d)", suite.skipped_pairs, suite.total_pairs)
        return EXIT_SIZE_CAP
    return EXIT_OK


def cmd_bench(args) -> int:
    sizes = _sizes(args.sizes, "sizes")
    methods = _methods(args.methods)
    if args.reps < 1:
        raise UsageError("reps must be >= 1")
    rows = runtime_bench(
        sizes, methods, metric=GroundMetric(args.metric), seed=args.seed, reps=args.reps
    )
    out = Path(args.out)
    write_csv(out, _columns(BenchRow), rows)
    print(f"wrote {len(rows)} bench rows to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dgmdist",
        description="Exact and approximate 1-Wasserstein distances for persistence diagrams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=int, help="random seed (env DGMDIST_SEED)")

    def add_metric(p):
        p.add_argument(
            "--metric", choices=METRIC_NAMES, default="l2", help="ground metric"
        )

    p = sub.add_parser("gen", help="generate synthetic diagram files")
    p.add_argument("--kind", choices=["uniform", "gaussian"], required=True)
    p.add_argument("--count", type=int, required=True, help="number of files")
    p.add_argument("--max-size", type=int, required=True, help="size cap of the largest diagram")
    p.add_argument("--out", required=True, help="output directory")
    add_seed(p)

    p = sub.add_parser("dist", help="distance between two diagram files")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--method", choices=METHODS, default="flowtree")
    add_metric(p)
    add_seed(p)
    p.add_argument("--trees", type=int, default=1, help="number of independent trees")
    p.add_argument("--reduce", choices=["mean", "min"], default="mean")

    p = sub.add_parser("embed", help="export embedding vectors for a directory of diagrams")
    p.add_argument("--in", dest="input", required=True, help="input directory")
    p.add_argument("--out", required=True, help="output directory")
    add_metric(p)
    add_seed(p)

    p = sub.add_parser("knn", help="rank candidates for each query diagram")
    p.add_argument("--queries", required=True)
    p.add_argument("--candidates", required=True)
    p.add_argument("--method", choices=METHODS, default="flowtree")
    add_metric(p)
    p.add_argument("-k", type=int, default=5)
    add_seed(p)
    p.add_argument("--workers", type=int, default=1, help="threads for the exact oracle")
    p.add_argument("--out", default=None, help="output CSV (default stdout)")

    p = sub.add_parser("eval", help="run the evaluation harness on a dataset directory")
    p.add_argument("--data", required=True)
    p.add_argument("--methods", default="embedding,flowtree", help="comma-separated")
    p.add_argument("--metrics", default="l2", help="comma-separated")
    p.add_argument("--out", required=True, help="output directory")
    add_seed(p)
    p.add_argument("--n-pairs", type=int, default=50)
    p.add_argument("--tree-policy", choices=["per_pair", "whole_dataset"], default="per_pair")
    p.add_argument("--bench-sizes", default="100,200", help="sizes for the runtime table")
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--workers", type=int, default=1, help="threads for the exact oracle")

    p = sub.add_parser("bench", help="runtime scaling table")
    p.add_argument("--sizes", required=True, help="comma-separated diagram sizes")
    p.add_argument("--methods", default="embedding,flowtree")
    add_metric(p)
    p.add_argument("--reps", type=int, default=5)
    add_seed(p)
    p.add_argument("--out", required=True, help="output CSV path")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    _log_to_stderr()
    try:
        args = _parser().parse_args(argv)
        if args.seed is None:
            args.seed = _default_seed()
        elif args.seed < 0:
            raise UsageError(f"--seed must be a non-negative integer, got {args.seed}")
        _echo_args(args)
        # by name on each call: the parser outlives any rebinding of a cmd_*
        return globals()[f"cmd_{args.command}"](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DiagramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE_CAP
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
