"""Self-test of the benchmark at toy size.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names the metrics run.py prints, that every
workload prints all of them with their units (end-to-end and traced), and
that planted bad outputs (a flowtree distance above the sandwich bound, a knn
list out of order, an eval row with d_approx < d_true) are counted as failed
commands. Exits non-zero on the first problem.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path

import run
from workloads import DistUniform, EvalUniform, KnnGaussian, METHODS

TOY = {
    "dist-uniform": lambda: DistUniform(files=3, points=150, trees=2),
    "knn-gaussian": lambda: KnnGaussian(pool=10, points=30, queries=2, k=3),
    "eval-uniform": lambda: EvalUniform(diagrams=10, points=15, n_pairs=3, bench_sizes="10,20"),
}
SECONDS = 0.5


def fail(message: str) -> None:
    print(f"selftest: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_contract() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if e2e != run.END_TO_END:
        fail(f"BENCHMARK.json end_to_end {e2e} != run.END_TO_END {run.END_TO_END}")
    if layers != run.PER_LAYER:
        fail("BENCHMARK.json per_layer differs from run.PER_LAYER")
    if {w["name"] for w in spec["workloads"]} != set(TOY) or set(TOY) != set(run.WORKLOADS):
        fail("workload names differ between BENCHMARK.json, run.py and the self-test")


def check_metrics(result: dict, expected: dict, where: str) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{where}: result keys {sorted(result)}")
    if set(result["metrics"]) != set(expected):
        fail(f"{where}: metrics {sorted(result['metrics'])} != {sorted(expected)}")
    for name, unit in expected.items():
        entry = result["metrics"][name]
        if entry["unit"] != unit or not math.isfinite(entry["value"]):
            fail(f"{where}: {name} = {entry}")


def check_workloads() -> None:
    for name, make in TOY.items():
        report, result = run.run(make(), seed=7, seconds=SECONDS, trace=False)
        check_metrics(result, run.END_TO_END, f"{name} --trace 0")
        if result["failed"]:
            fail(f"{name}: {report['failures']}")
        named = {"failed_frac"} | set(run.END_TO_END)
        named |= {f"{m}_pairs_per_s" for m in METHODS} if name != "eval-uniform" else {
            f"{m}_{k}" for m in METHODS for k in ("mean_rel_err", "recall_at_1")}
        missing = named - set(report["end_to_end"])
        if missing:
            fail(f"{name}: report lacks {sorted(missing)}")
        for metric_name, entry in report["end_to_end"].items():
            if not {"value", "unit", "n"} <= set(entry):
                fail(f"{name}: report entry {metric_name} = {entry}")

        report, result = run.run(make(), seed=7, seconds=SECONDS, trace=True)
        check_metrics(result, run.PER_LAYER, f"{name} --trace 1")
        if result["failed"]:
            fail(f"{name} traced: {report['failures']}")
        if not report["predictions"] or not all(report["predictions"].values()):
            print(f"selftest: note: {name} predictions at toy size: {report['predictions']}")
        print(f"selftest: {name}: metrics and units ok")


def plant_dist(command, out) -> None:
    if command.method == "flowtree" and out.code == 0:
        report = json.loads(out.stdout)
        report["value"] = 10.0 * report["value"] + 1.0
        out.stdout = json.dumps(report)


def plant_knn(command, out) -> None:
    """Reverse each query's distances, keeping ranks 1..k."""
    if command.method == "flowtree" and out.code == 0:
        rows = list(csv.DictReader(io.StringIO(out.stdout)))
        by_query: dict = {}
        for row in rows:
            by_query.setdefault(row["query"], []).append(row)
        for hits in by_query.values():
            for row, distance in zip(hits, reversed([h["distance"] for h in hits])):
                row["distance"] = distance
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        out.stdout = buffer.getvalue()


def plant_eval(command, out) -> None:
    path = Path(command.argv[command.argv.index("--out") + 1]) / "pair_errors.csv"
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        if row["method"] == "flowtree":
            row["d_approx"] = repr(0.5 * float(row["d_true"]))
            break
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def check_planted() -> None:
    cases = {"dist-uniform": plant_dist, "knn-gaussian": plant_knn, "eval-uniform": plant_eval}
    for name, tamper in cases.items():
        report, result = run.run(TOY[name](), seed=11, seconds=SECONDS, trace=False, tamper=tamper)
        if name == "eval-uniform":
            tampered = result["attempted"]
        else:  # only flowtree commands are planted; warm-ups are embedding commands
            tampered = report["end_to_end"]["flowtree_pairs_per_s"]["n"]
        if result["failed"] != tampered or result["correct"]:
            fail(f"{name}: {result['failed']} failed of {tampered} planted: {report['failures']}")
        if report["end_to_end"]["failed_frac"]["value"] <= 0:
            fail(f"{name}: failed_frac is not positive")
        print(f"selftest: {name}: {tampered} planted bad outputs counted ({report['failures'][0]})")


def main() -> int:
    run.isolate_environment()
    check_contract()
    check_workloads()
    check_planted()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
