"""The benchmark's workloads: inputs made from a seed, the CLI commands run on
them, and the checks applied to each command's output.

Every input is written by the CLI's own ``gen`` command. A workload is a
sequence of rounds; a round is one or more ``dgmdist`` commands on one fresh
input. No two commands of a run share (input files, method, seed): every
round draws a seed that no earlier command of the run used, so a cache can
only help within a command, as it would for a CLI user.

A check returns None when the output is correct and a one-line reason
otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

METHODS = ("embedding", "flowtree")
SANDWICH = 2.0 * math.sqrt(2.0)  # flowtree <= 2*sqrt(2) * embedding on an untruncated tree
REL_TOL = 1e-9


class SetupError(RuntimeError):
    """Generating a workload's inputs failed."""


@dataclass
class Output:
    """What one command left behind."""

    code: int | None
    stdout: str
    stderr: str
    error: str | None = None  # traceback summary of an exception out of main()


@dataclass
class Command:
    argv: list[str]
    method: str
    pairs: int  # diagram pairs the command scores with its method
    check: Callable[[Output], str | None]
    extra: dict = field(default_factory=dict)  # accuracy figures the eval check records


@dataclass
class Round:
    commands: list[Command]
    directory: Path | None = None  # removed once the round is done


class Seeds:
    """Command seeds drawn from the workload seed, never repeated in a run."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._used: set[int] = set()

    def draw(self) -> int:
        while True:
            value = self._rng.randrange(2**31 - 1)
            if value not in self._used:
                self._used.add(value)
                return value


def _failed_exit(out: Output) -> str | None:
    if out.error is not None:
        return f"exception: {out.error}"
    if out.code != 0:
        return f"exit code {out.code}"
    return None


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


class DistUniform:
    """``dist A B --method embedding|flowtree --trees T --reduce min`` on pairs of
    large uniform-family diagrams, both methods on each pair and seed."""

    name = "dist-uniform"

    def __init__(self, files=8, points=3000, trees=2):
        self.files, self.points, self.trees = files, points, trees

    def setup(self, gen, workdir: Path, seeds: Seeds) -> None:
        self.paths: list[Path] = []
        for i in range(self.files):
            out = workdir / f"pool{i:02d}"
            gen(["--kind", "uniform", "--count", "1", "--max-size", str(self.points),
                 "--seed", str(seeds.draw()), "--out", str(out)])
            self.paths.append(out / "dgm_0000.txt")
        order = [(i, j) for i in range(self.files) for j in range(i + 1, self.files)]
        random.Random(seeds.draw()).shuffle(order)
        self.pairs = order

    def round(self, index: int, directory: Path, seeds: Seeds) -> Round:
        i, j = self.pairs[index % len(self.pairs)]
        seed = seeds.draw()
        shared: dict = {}
        return Round([
            self._command(self.paths[i], self.paths[j], method, seed, shared)
            for method in METHODS
        ])

    def _command(self, first, second, method, seed, shared) -> Command:
        argv = ["dist", str(first), str(second), "--method", method, "--metric", "l2",
                "--trees", str(self.trees), "--reduce", "min", "--seed", str(seed)]

        def check(out: Output) -> str | None:
            reason = _failed_exit(out)
            if reason:
                return reason
            try:
                report = json.loads(out.stdout)
            except json.JSONDecodeError:
                return "stdout is not JSON"
            if not isinstance(report, dict):
                return "stdout is not a JSON object"
            value = report.get("value")
            if not _finite(value) or value < 0:
                return f"distance {value!r} is not finite and >= 0"
            if report.get("method") != method:
                return f"method {report.get('method')!r} != {method!r}"
            truncated = any(m.get("truncated") for m in report.get("tree_meta", []))
            shared[method] = (value, truncated)
            if len(shared) == len(METHODS):
                (emb, emb_trunc), (flow, flow_trunc) = shared["embedding"], shared["flowtree"]
                if not (emb_trunc or flow_trunc) and flow > SANDWICH * emb * (1 + REL_TOL) + REL_TOL:
                    return f"flowtree {flow!r} > 2*sqrt(2) * embedding {emb!r}"
            return None

        return Command(argv, method, 1, check)


class KnnGaussian:
    """``knn --method embedding|flowtree -k K`` on a freshly generated
    near-diagonal collection per round, split about 1:9 into queries and
    candidates."""

    name = "knn-gaussian"

    def __init__(self, pool=40, points=300, queries=4, k=10):
        self.pool, self.points, self.queries, self.k = pool, points, queries, k

    def setup(self, gen, workdir: Path, seeds: Seeds) -> None:
        self.gen = gen

    def round(self, index: int, directory: Path, seeds: Seeds) -> Round:
        pool = directory / "pool"
        self.gen(["--kind", "gaussian", "--count", str(self.pool), "--max-size",
                  str(self.points), "--seed", str(seeds.draw()), "--out", str(pool)])
        seed = seeds.draw()
        files = sorted(pool.glob("*.txt"))
        random.Random(seed).shuffle(files)
        query_dir, cand_dir = directory / "queries", directory / "candidates"
        query_dir.mkdir()
        cand_dir.mkdir()
        for n, path in enumerate(files):
            path.rename((query_dir if n < self.queries else cand_dir) / path.name)
        queries = {p.stem for p in files[: self.queries]}
        candidates = {p.stem for p in files[self.queries:]}
        k = min(self.k, len(candidates))
        commands = []
        for method in METHODS:
            argv = ["knn", "--queries", str(query_dir), "--candidates", str(cand_dir),
                    "--method", method, "--metric", "l2", "-k", str(self.k),
                    "--seed", str(seed), "--workers", "1"]
            commands.append(Command(argv, method, len(queries) * len(candidates),
                                    _knn_check(queries, candidates, k)))
        return Round(commands, directory)


def _knn_check(queries: set, candidates: set, k: int):
    def check(out: Output) -> str | None:
        reason = _failed_exit(out)
        if reason:
            return reason
        rows = list(csv.DictReader(io.StringIO(out.stdout)))
        by_query: dict[str, list] = {}
        for row in rows:
            by_query.setdefault(row.get("query"), []).append(row)
        if set(by_query) != queries:
            return f"queries in output {sorted(by_query)} != {sorted(queries)}"
        for query, hits in by_query.items():
            if len(hits) != k:
                return f"query {query}: {len(hits)} rows, expected {k}"
            try:
                ranks = [int(h["rank"]) for h in hits]
                dists = [float(h["distance"]) for h in hits]
            except (TypeError, ValueError):
                return f"query {query}: malformed rank or distance"
            if ranks != list(range(1, k + 1)):
                return f"query {query}: ranks {ranks} are not 1..{k}"
            if not all(math.isfinite(d) for d in dists):
                return f"query {query}: non-finite distance"
            if any(b < a for a, b in zip(dists, dists[1:])):
                return f"query {query}: distances decrease along the ranking"
            names = [h["candidate"] for h in hits]
            if len(set(names)) != k or not set(names) <= candidates:
                return f"query {query}: candidates are repeated or unknown"
        return None

    return check


class EvalUniform:
    """``eval --methods embedding,flowtree --metrics l2`` on a freshly generated
    small uniform-family dataset per command; the only workload that runs the
    exact oracle and the source of the accuracy figures."""

    name = "eval-uniform"

    def __init__(self, diagrams=20, points=150, n_pairs=15, bench_sizes="100,200"):
        self.diagrams, self.points, self.n_pairs = diagrams, points, n_pairs
        self.bench_sizes = bench_sizes

    def setup(self, gen, workdir: Path, seeds: Seeds) -> None:
        self.gen = gen

    def round(self, index: int, directory: Path, seeds: Seeds) -> Round:
        data, out = directory / "data", directory / "report"
        self.gen(["--kind", "uniform", "--count", str(self.diagrams), "--max-size",
                  str(self.points), "--seed", str(seeds.draw()), "--out", str(data)])
        n_queries = max(1, self.diagrams // 10)
        n_cands = self.diagrams - n_queries
        argv = ["eval", "--data", str(data), "--out", str(out),
                "--methods", ",".join(METHODS), "--metrics", "l2",
                "--seed", str(seeds.draw()), "--n-pairs", str(self.n_pairs),
                "--bench-sizes", self.bench_sizes, "--reps", "3", "--workers", "1"]
        extra: dict = {}
        check = _eval_check(out, n_queries, n_cands, extra)
        return Round([Command(argv, "eval", 0, check, extra)], directory)


def _eval_check(out_dir: Path, n_queries: int, n_cands: int, extra: dict):
    def check(out: Output) -> str | None:
        reason = _failed_exit(out)
        if reason:
            return reason
        try:
            pairs = _read_csv(out_dir / "pair_errors.csv")
            stats = _read_csv(out_dir / "error_stats.csv")
            recall = _read_csv(out_dir / "recall.csv")
            ranking = _read_csv(out_dir / "ranking.csv")
        except OSError as exc:
            return f"missing output: {exc}"
        try:
            for row in pairs:
                d_true, d_approx = float(row["d_true"]), float(row["d_approx"])
                if row["method"] == "flowtree" and d_approx < d_true * (1 - REL_TOL):
                    return f"flowtree d_approx {d_approx!r} < d_true {d_true!r}"
            for method in METHODS:
                curve = sorted((int(r["m"]), float(r["recall"])) for r in recall if r["method"] == method)
                if not curve or curve[0][0] != 1:
                    return f"{method} recall curve does not start at m=1"
                values = [r for _, r in curve]
                if any(b < a for a, b in zip(values, values[1:])):
                    return f"{method} recall curve decreases"
                if values[-1] != 1.0:
                    return f"{method} recall curve ends at {values[-1]!r}, not 1.0"
                extra[f"{method}_recall_at_1"] = (values[0], n_queries)
                row = next((r for r in stats if r["method"] == method), None)
                if row is None:
                    return f"no error statistics for {method}"
                extra[f"{method}_mean_rel_err"] = (float(row["mean_rel_error"]), int(row["n_pairs"]))
        except (KeyError, TypeError, ValueError) as exc:
            return f"malformed CSV: {exc!r}"
        expected = len(METHODS) * n_queries * n_cands
        if len(ranking) != expected:
            return f"ranking has {len(ranking)} rows, expected {expected}"
        return None

    return check


WORKLOADS = {w.name: w for w in (DistUniform, KnnGaussian, EvalUniform)}
