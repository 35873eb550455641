"""Smoke runs of the committed benchmark scripts on tiny inputs, so that a
library change that breaks them shows up as a failing test."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
# benchlib.write_report's header, the same in every BENCH_<topic>.json
HEADER = {"benchmark", "statistic", "git_sha", "git_dirty", "nproc", "python", "numpy",
          "scipy"}


def no_pythonpath():
    return {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


@pytest.fixture
def scripts(monkeypatch):
    # the scripts import benchlib as a sibling module, as they do when run
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
    assert HEADER <= set(report)
    (row,) = report["sets"]
    keys = {
        "flowtree_ms_per_pair",
        "embedding_ms_per_pair",
        "embedding_row_ms",
        "flowtree_place_ms",
        "flowtree_row_ms",
        "flowtree_rows_sorted",
    }
    counts = {
        f"{method}_{count}"
        for method in ("flowtree", "embedding")
        for count in ("rows_walked", "rows_retired", "walks")
    }
    peaks = {"flowtree_traced_peak_mb", "embedding_traced_peak_mb"}
    assert keys | counts | peaks <= set(row)
    assert row["name"] == "tiny" and row["points"] > 0
    assert all(row[key] >= 0 for key in keys | counts)
    assert all(row[key] > 0 for key in peaks)
    assert isinstance(row["flowtree_rows_sorted"], int) and row["flowtree_rows_sorted"] > 0
    assert all(isinstance(row[key], int) for key in counts)
    # every point of every query-candidate pair is one row, walked or retired
    queries, candidates = bench_knn.split_dataset(spec)
    rows = sum(len(q) + len(c) for q in queries for c in candidates)
    for method in ("flowtree", "embedding"):
        assert row[f"{method}_walks"] == 1
        assert row[f"{method}_rows_walked"] + row[f"{method}_rows_retired"] == rows


def test_bench_exact_report(tmp_path, scripts):
    _, bench_exact = scripts
    out = tmp_path / "exact.json"
    bench_exact.main(
        ["--out", str(out), "--sizes", "20,40", "--runs", "1", "--slope-runs", "1",
         "--cold-runs", "1"]
    )
    report = json.loads(out.read_text())
    assert HEADER <= set(report)
    assert [(t["generator"], t["n"]) for t in report["timings"]] == [
        ("uniform", 20),
        ("uniform", 40),
        ("gaussian", 20),
        ("gaussian", 40),
    ]
    assert all(t["exact_ms"] >= 0 for t in report["timings"])
    slope = report["criterion_6_exact_slope"]
    assert len(slope["runs"]) == 1 and slope["min"] == slope["median"] == slope["max"]
    cold = report["cold_exact"]
    assert cold["n"] == 150 and cold["seeds"] == [1, 2]
    assert cold["cold_ms"] > 0 and cold["ru_maxrss_mb"] > 0
    assert cold["scipy_modules"] == ["scipy.optimize._lsap"]


def test_bench_eval_report(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import bench_eval

    out = tmp_path / "eval.json"
    bench_eval.main(
        ["--out", str(out), "--runs", "1", "--count", "4", "--max-size", "12",
         "--pairs", "3", "--bench-sizes", "10"]
    )
    report = json.loads(out.read_text())
    assert HEADER <= set(report)
    assert set(report["timings"]) == {
        "error_suite_per_pair_ms",
        "error_suite_whole_dataset_ms",
        "exact_error_suite_workers_1_ms",
        "exact_error_suite_workers_2_ms",
        "eval_report_ms",
    }
    assert all(ms > 0 for ms in report["timings"].values())


def test_bench_tree_report(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import bench_tree

    out = tmp_path / "tree.json"
    bench_tree.main(
        ["--out", str(out), "--runs", "1", "--sizes", "20,40", "--import-runs", "1"]
    )
    report = json.loads(out.read_text())
    assert HEADER <= set(report)
    assert [(t["generator"], t["n_per_side"]) for t in report["timings"]] == [
        ("uniform", 20),
        ("uniform", 40),
        ("gaussian", 20),
        ("gaussian", 40),
    ]
    keys = {"tree_geometry_ms", "min_separation_l1_ms", "min_separation_l2_ms",
            "min_separation_linf_ms"}
    assert all(keys <= set(t) and all(t[k] > 0 for k in keys) for t in report["timings"])
    suite = report["error_suite_shape"]
    assert suite["diagrams"] == 20 and suite["max_size"] == 150 and suite["pairs"] == 15
    assert suite["seed"] == 5 and suite["points"] > 0
    assert suite["per_pair_tree_geometry_ms"] > 0 and suite["batched_geometries_ms"] > 0
    imports = report["fresh_import"]
    assert imports["import_ms"] > 0 and imports["ru_maxrss_mb"] > 0
    assert imports["scipy_loaded"] is False


def test_output_digests_listing(monkeypatch, capsys):
    # one tiny `gen` set with every command and one tiny written set: two
    # runs print the same digests, one sha256 per output
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import output_digests

    spec = {
        "name": "tiny", "kind": "gaussian", "count": 4, "max_size": 12, "seed": 2,
        "tables": ("knn", "eval"),
    }
    written = {
        "name": "written", "tables": ("knn",),
        "diagrams": ([(0.0, 1.0, 2**62)], [], [(0.5, 2.0), (0.0, 1.0, 3)]),
    }
    monkeypatch.setattr(output_digests, "SETS", (spec, written))
    listings = []
    for _ in range(2):
        assert output_digests.main([]) == 0
        listings.append(capsys.readouterr().out.splitlines())
    assert listings[0] == listings[1]
    names = [line.split("  ")[1] for line in listings[0]]
    assert all(len(line.split("  ")[0]) == 64 for line in listings[0])
    assert len(names) == len(set(names))
    for name in ("tiny/dist_0_1_l2_flowtree.json", "tiny/match_0_3_l1.match",
                 "tiny/embed_linf", "tiny/knn_l2_embedding.csv", "tiny/eval_whole_dataset",
                 "tiny/knn_l2_exact.csv", "tiny/knn_l2_exact_w2.csv",
                 "tiny/knn_l2_flowtree_w2.csv", "tiny/knn_l2_embedding_w2.csv",
                 "tiny/eval_per_pair_w2",
                 "written/dist_1_2_linf_embedding.json", "written/knn_l1_flowtree.csv"):
        assert name in names
    assert not any(name.startswith(("written/eval", "written/knn_l2_exact")) for name in names)
    # --workers 2 changes no byte
    digests = {name: line.split("  ")[0] for name, line in zip(names, listings[0])}
    for name in ("knn_l2_exact", "knn_l2_flowtree", "knn_l2_embedding", "eval_per_pair"):
        suffix = "" if name.startswith("eval") else ".csv"
        assert digests[f"tiny/{name}_w2{suffix}"] == digests[f"tiny/{name}{suffix}"]


def test_output_digests_match_the_committed_listing(monkeypatch, capsys):
    # every CLI output on the full sets is byte-identical to the committed
    # listing; a change that moves an output on purpose rewrites it with
    # `python3 scripts/output_digests.py > tests/data/output_digests.txt`
    # and says which lines moved
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import output_digests

    assert output_digests.main([]) == 0
    listing = Path(__file__).parent / "data" / "output_digests.txt"
    assert capsys.readouterr().out == listing.read_text()


def test_bench_load_report(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import bench_load

    tiny = {"name": "tiny", "kind": "gaussian", "count": 3, "max_size": 12, "seed": 1}
    monkeypatch.setattr(bench_load, "FILE_SETS", (tiny,))
    out = tmp_path / "load.json"
    bench_load.main(["--out", str(out), "--runs", "1", "--sizes", "20,40"])
    report = json.loads(out.read_text())
    assert HEADER <= set(report)
    assert [(t["generator"], t["n"]) for t in report["files"]] == [
        ("uniform", 20),
        ("uniform", 40),
        ("gaussian", 20),
        ("gaussian", 40),
    ]
    (row,) = report["sets"]
    assert row["name"] == "tiny" and row["count"] == 3
    keys = ("load_diagram_ms", "line_scan_ms", "speedup")
    assert all(t[k] > 0 for t in report["files"] + report["sets"] for k in keys)


def test_bench_walk_report(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import bench_walk

    out = tmp_path / "walk.json"
    bench_walk.main(["--out", str(out), "--runs", "1", "--sizes", "100,300"])
    report = json.loads(out.read_text())
    assert HEADER | {"seeds", "tree_seed"} <= set(report)
    small, large = report["timings"]
    assert (small["n_per_side"], large["n_per_side"]) == (100, 300)
    keys = {"place_ms", "flowtree_ms", "embedding_ms", "both_ms"}
    single = {"single_pair_flowtree_ms", "single_pair_embedding_ms"}
    assert keys | single <= set(small) and not single & set(large)
    assert all(v > 0 for row in (small, large) for k, v in row.items() if k.endswith("_ms"))


@pytest.mark.parametrize(
    "script", sorted(p.name for p in SCRIPTS.glob("*.py") if p.name != "benchlib.py")
)
def test_script_runs_from_anywhere(tmp_path, script):
    # run as documented: a new process in any directory, with no PYTHONPATH
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--help"], cwd=tmp_path, env=no_pythonpath(),
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: ")


def test_tree_scripts_load_no_scipy():
    # only the exact oracle needs scipy, and these scripts never run it
    probe = (
        f"import sys; sys.path.insert(0, {str(SCRIPTS)!r})\n"
        "import bench_knn, bench_tree, bench_walk\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=no_pythonpath(), capture_output=True, text=True,
        check=True,
    )
    assert done.stdout == "[]\n"
