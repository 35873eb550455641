"""dgmdist benchmark: the CLI's dist, knn and eval commands, end to end and
layer by layer.

    python3 perfbench/run.py --workload dist-uniform --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The benchmark calls ``dgmdist.cli.main(argv)``
in this process as one closed-loop client (the next command starts when the
previous one returns; ``--workers 1`` throughout). Inputs are generated from
``--seed`` with the CLI's ``gen`` command; every command's output is checked,
and a failed check or a non-zero exit counts as a failed command.

With ``--trace 0`` the run reports end-to-end metrics. With ``--trace 1`` it
alternates untraced and traced rounds: the traced ones give the per-layer
metrics (see spans.py) and the pair gives the tracing overhead. The spans are
written to ``perfbench/work/`` when the run ends.

stdout ends with a report line (every metric with unit and sample count, run
metadata, failures) and then the result line: one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from workloads import METHODS, WORKLOADS, Command, Output, Seeds, SetupError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "work"
SETUP_REPS = 3
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# Metrics of the result line, with their units; BENCHMARK.json lists the same.
END_TO_END = {
    "setup_s": "s",
    "cmd_per_s": "1/s",
    "cmd_p50_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "diagram.load_diagram.calls": "count",
    "diagram.load_diagram.self_s": "s",
    "diagram.points_loaded": "count",
    "quadtree.build_tree.calls": "count",
    "quadtree.build_tree.self_s": "s",
    "quadtree.points_in": "count",
    "quadtree.levels_mean": "count",
    "quadtree.truncated_frac": "ratio",
    "embedding.embed.calls": "count",
    "embedding.embed.self_s": "s",
    "embedding.embed.points_in": "count",
    "embedding.embed.entries_out": "count",
    "embedding.embed.unique_frac": "ratio",
    "embedding.l1_distance.calls": "count",
    "embedding.l1_distance.self_s": "s",
    "embedding.l1_distance.entries_in": "count",
    "flowtree.greedy_match.calls": "count",
    "flowtree.greedy_match.self_s": "s",
    "flowtree.greedy_match.pairs_out": "count",
    "flowtree.greedy_match.point_levels": "count",
    "flowtree.root_fallback_frac": "ratio",
    "flowtree.flowtree_distance.calls": "count",
    "exact.exact_distance.calls": "count",
    "exact.cost_entries": "count",
    "exact.unique_frac": "ratio",
    "exact.size_cap_skips": "count",
    "evaluate.error_suite.calls": "count",
    "evaluate.recall_at_m.calls": "count",
    "evaluate.ranking_table.calls": "count",
    "evaluate.knn_distances.calls": "count",
    "evaluate.bytes_written": "bytes",
    "cli.self_s": "s",
    "cli.bytes_out": "bytes",
    "trace.traced_cmd_per_s": "1/s",
    "trace.untraced_cmd_per_s": "1/s",
    "trace.overhead_pct": "%",
}

# Stated before measuring: what the traced run should show on each workload.
PREDICTIONS = {
    "dist-uniform": {
        "exact.exact_distance.calls == 0": lambda m: m["exact.exact_distance.calls"] == 0,
        "embedding.l1_distance.self_s < embedding.embed.self_s":
            lambda m: m["embedding.l1_distance.self_s"] < m["embedding.embed.self_s"],
    },
    "knn-gaussian": {
        "exact.exact_distance.calls == 0": lambda m: m["exact.exact_distance.calls"] == 0,
        "embedding.l1_distance.self_s > embedding.embed.self_s":
            lambda m: m["embedding.l1_distance.self_s"] > m["embedding.embed.self_s"],
        "quadtree.build_tree.calls == 1 per command": lambda m: m["quadtree.build_tree.calls"] == 1,
    },
    "eval-uniform": {
        "exact.exact_distance.calls > 0": lambda m: m["exact.exact_distance.calls"] > 0,
    },
}


@dataclass
class Record:
    """One checked command."""

    method: str
    elapsed: float
    pairs: int
    traced: bool
    failure: str | None
    extra: dict


def isolate_environment() -> int:
    """Keep the caller's shell out of the workload: no DGMDIST_SEED (the CLI
    reads it for its default seed) and at most nproc BLAS/OpenMP threads."""
    os.environ.pop("DGMDIST_SEED", None)
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def fresh_import() -> None:
    """Import the CLI in a fresh interpreter, as every CLI invocation does."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(
        [sys.executable, "-c", "import dgmdist.cli"],
        cwd=ROOT,
        env=env,
        check=True,
        timeout=120,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Client:
    """Runs CLI commands in this process, capturing their output."""

    def __init__(self, cli, tracer=None, tamper=None):
        self.cli = cli
        self.tracer = tracer
        self.tamper = tamper  # lets the self-test plant bad outputs
        self.commands = 0

    def call(self, argv: list[str], traced: bool = False) -> tuple[Output, float]:
        stdout, stderr = io.StringIO(), io.StringIO()
        if traced:
            self.tracer.begin_command(self.commands)
        start = perf_counter()
        code, error = None, None
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = self.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed command, not a failed run
            error = traceback.format_exception_only(exc)[-1].strip()
        elapsed = perf_counter() - start
        out = Output(code, stdout.getvalue(), stderr.getvalue(), error)
        if traced:
            self.tracer.end_command()
            self.tracer.counts["cli.bytes_out"] += len(out.stdout.encode()) + len(out.stderr.encode())
        self.commands += 1
        return out, elapsed

    def gen(self, args: list[str]) -> None:
        out, _ = self.call(["gen", *args])
        if out.code != 0:
            raise SetupError(f"dgmdist gen {' '.join(args)}: exit {out.code}: {out.error or out.stderr}")

    def run(self, command: Command, traced: bool = False) -> Record:
        out, elapsed = self.call(command.argv, traced)
        if self.tamper is not None:
            self.tamper(command, out)
        return Record(command.method, elapsed, command.pairs, traced, command.check(out), command.extra)


def metric(value: float, unit: str, n: int) -> dict:
    return {"value": value, "unit": unit, "n": n}


def end_to_end(records: list[Record], setup: list[float]) -> dict:
    """Every end-to-end figure the run can give, with unit and sample count."""
    times = [r.elapsed for r in records]
    n = len(times)
    out = {
        "setup_s": metric(statistics.median(setup), "s", len(setup)),
        "cmd_per_s": metric(n / sum(times), "1/s", n),
        "cmd_p50_s": metric(statistics.median(times), "s", n),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }
    if n >= 2 * TAIL_BEYOND:
        ordered = sorted(times)
        percentile = math.floor(100.0 * (n - TAIL_BEYOND) / n)
        out["cmd_tail_s"] = metric(ordered[n - TAIL_BEYOND - 1], "s", n)
        out["cmd_tail_s"]["percentile"] = percentile
    for method in METHODS:
        scored = [r for r in records if r.method == method and r.pairs]
        if scored:
            out[f"{method}_pairs_per_s"] = metric(
                sum(r.pairs for r in scored) / sum(r.elapsed for r in scored), "1/s", len(scored)
            )
    for name in ("embedding_mean_rel_err", "flowtree_mean_rel_err",
                 "embedding_recall_at_1", "flowtree_recall_at_1"):
        samples = [r.extra[name] for r in records if name in r.extra]
        weight = sum(w for _, w in samples)
        if weight:
            out[name] = metric(sum(v * w for v, w in samples) / weight, "ratio", weight)
    return out


def rate(records: list[Record]) -> float:
    return len(records) / sum(r.elapsed for r in records)


def metadata(workload, sizes: dict, seed: int, seconds: float, trace: bool, nproc: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload.name,
        "sizes": sizes,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(),
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "setup_reps": SETUP_REPS,
        "client": "closed loop, 1 client, --workers 1",
    }


def run(workload, seed: int, seconds: float, trace: bool, tamper=None) -> tuple[dict, dict]:
    """One benchmark run; returns (report, result)."""
    nproc = isolate_environment()
    sizes = dict(vars(workload))
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    start = perf_counter()
    from dgmdist import cli

    import_in_process_s = perf_counter() - start
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
    client = Client(cli, tracer, tamper)
    seeds = Seeds(seed)
    workdir = WORK / f"run-{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    records: list[Record] = []
    warmups: list[Record] = []
    try:
        setup = []
        for rep in range(SETUP_REPS):
            rep_dir = workdir / f"setup{rep}"
            start = perf_counter()
            fresh_import()
            workload.setup(client.gen, rep_dir, seeds)
            warm = workload.round(-1, rep_dir / "warmup", seeds)
            warmups.append(client.run(warm.commands[0]))
            setup.append(perf_counter() - start)
            if rep + 1 < SETUP_REPS:
                shutil.rmtree(rep_dir)

        start = perf_counter()
        index = 0
        while index < (2 if trace else 1) or perf_counter() - start < seconds:
            traced = trace and index % 2 == 1
            current = workload.round(index, workdir / f"round{index:05d}", seeds)
            if traced:
                tracer.install()
            try:
                records.extend(client.run(c, traced) for c in current.commands)
            finally:
                if traced:
                    tracer.uninstall()
            if current.directory is not None:
                shutil.rmtree(current.directory, ignore_errors=True)
            index += 1
        measured_s = perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checked = warmups + records
    failures = [r.failure for r in checked if r.failure]
    report = {
        "metadata": metadata(workload, sizes, seed, seconds, trace, nproc),
        "import_in_process_s": import_in_process_s,
        "measured_s": measured_s,
        "rounds": index,
        "failures": failures[:20],
        "samples": [[r.method, r.elapsed] for r in records],
    }
    result = {"correct": not failures, "attempted": len(checked), "failed": len(failures)}
    if trace:
        traced = [r for r in records if r.traced]
        untraced = [r for r in records if not r.traced]
        from spans import layer_metrics

        layers = {k: metric(v, u, len(traced)) for k, (v, u) in layer_metrics(tracer, len(traced)).items()}
        traced_rate, untraced_rate = rate(traced), rate(untraced)
        layers["trace.traced_cmd_per_s"] = metric(traced_rate, "1/s", len(traced))
        layers["trace.untraced_cmd_per_s"] = metric(untraced_rate, "1/s", len(untraced))
        layers["trace.overhead_pct"] = metric(100.0 * (1.0 - traced_rate / untraced_rate), "%", len(records))
        values = {k: v["value"] for k, v in layers.items()}
        report["per_layer"] = layers
        report["predictions"] = {
            claim: bool(test(values)) for claim, test in PREDICTIONS[workload.name].items()
        }
        spans_path = WORK / f"spans-{workload.name}-seed{seed}.jsonl"
        tracer.write(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
        chosen = {k: layers[k] for k in PER_LAYER}
    else:
        e2e = end_to_end(records, setup)
        e2e["failed_frac"] = metric(len(failures) / len(checked), "ratio", len(checked))
        report["end_to_end"] = e2e
        chosen = {k: e2e[k] for k in END_TO_END}
    result["metrics"] = {k: {"value": v["value"], "unit": v["unit"]} for k, v in chosen.items()}
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dgmdist" / "cli.py").is_file():
        print(f"perfbench: {SRC / 'dgmdist'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    try:
        report, result = run(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: setup failed: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
