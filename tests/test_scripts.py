"""Smoke runs of the committed benchmark scripts on tiny inputs, so that a
library change that breaks them shows up as a failing test."""

import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture
def scripts(monkeypatch):
    # bench_exact imports bench_knn as a sibling module, as it does when run
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import bench_exact
    import bench_knn

    return bench_knn, bench_exact


def test_bench_knn_report(tmp_path, monkeypatch, scripts):
    bench_knn, _ = scripts
    spec = {"name": "tiny", "queries": 2, "candidates": 3, "max_size": 60, "seed": 1}
    monkeypatch.setattr(bench_knn, "SETS", (spec,))
    out = tmp_path / "knn.json"
    bench_knn.main(["--out", str(out), "--runs", "1"])
    report = json.loads(out.read_text())
    assert {"benchmark", "statistic", "git_sha", "nproc", "numpy", "scipy"} <= set(report)
    (row,) = report["sets"]
    keys = {
        "flowtree_ms_per_pair",
        "embedding_ms_per_pair",
        "embedding_index_ms",
        "embedding_row_ms",
        "flowtree_row_ms",
        "flowtree_rows_sorted",
    }
    assert keys <= set(row)
    assert row["name"] == "tiny" and row["points"] > 0
    assert all(row[key] >= 0 for key in keys)
    assert isinstance(row["flowtree_rows_sorted"], int) and row["flowtree_rows_sorted"] > 0


def test_bench_exact_report(tmp_path, scripts):
    _, bench_exact = scripts
    out = tmp_path / "exact.json"
    bench_exact.main(
        ["--out", str(out), "--sizes", "20,40", "--runs", "1", "--slope-runs", "1"]
    )
    report = json.loads(out.read_text())
    assert [(t["generator"], t["n"]) for t in report["timings"]] == [
        ("uniform", 20),
        ("uniform", 40),
        ("gaussian", 20),
        ("gaussian", 40),
    ]
    assert all(t["exact_ms"] >= 0 for t in report["timings"])
    slope = report["criterion_6_exact_slope"]
    assert len(slope["runs"]) == 1 and slope["min"] == slope["median"] == slope["max"]
