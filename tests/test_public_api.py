"""The public names of the dgmdist package, pinned.

Adding or removing an export must edit PUBLIC here, and a removal also needs
its line in CHANGES.md.
"""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dgmdist

PUBLIC = [
    "AugmentedMatching",
    "BenchRow",
    "DEFAULT_SIZE_CAP",
    "DiagramError",
    "DiagramParseError",
    "EmbeddingVector",
    "ErrorStats",
    "ErrorSuiteResult",
    "GroundMetric",
    "InvalidPointError",
    "KIND_CROSS",
    "KIND_P_TO_DIAGONAL",
    "KIND_Q_TO_DIAGONAL",
    "MAX_LEVELS",
    "MatchPair",
    "OutsideRootError",
    "PDPoint",
    "PairErrorRow",
    "PersistenceDiagram",
    "PlacedDiagrams",
    "RecallCurve",
    "ShiftedQuadtree",
    "SizeCapError",
    "TreeConfig",
    "TreeGeometry",
    "TreeMismatchError",
    "build_tree",
    "embed",
    "error_suite",
    "eval_report",
    "exact_distance",
    "flowtree_distance",
    "gen_gaussian",
    "gen_uniform",
    "greedy_match",
    "knn_distances",
    "l1_distance",
    "load_diagram",
    "multi_tree_estimate",
    "ranking_table",
    "read_vector",
    "recall_at_m",
    "relative_error",
    "runtime_bench",
    "save_diagram",
    "tree_geometry",
    "union_coords",
    "write_matching",
    "write_vector",
]


def test_all_is_pinned():
    assert sorted(dgmdist.__all__) == PUBLIC


def test_every_public_name_resolves():
    missing = [name for name in PUBLIC if not hasattr(dgmdist, name)]
    assert missing == []


@pytest.mark.parametrize(
    "function,parameters",
    [
        (dgmdist.greedy_match, ["tree", "first", "second"]),
        (dgmdist.flowtree_distance, ["tree", "first", "second"]),
        (dgmdist.PlacedDiagrams.flowtree_row, ["self", "i", "js"]),
        (dgmdist.exact_distance, ["first", "second", "metric"]),
        (
            dgmdist.eval_report,
            ["dataset", "out_dir", "methods", "metrics", "seed", "n_pairs",
             "tree_policy", "bench_sizes", "reps", "workers"],
        ),
        (dgmdist.PlacedDiagrams.embedding_row, ["self", "i", "js"]),
    ],
)
def test_signature_is_pinned(function, parameters):
    # flowtree costs use tree.ground_metric, the oracle cap is
    # DEFAULT_SIZE_CAP and eval_report takes eval's options only: a knob
    # added must edit this list
    assert list(inspect.signature(function).parameters) == parameters


# Run in a fresh interpreter: the tree path, from the CLI and the library,
# must leave scipy unloaded; the exact oracle then loads its solver.
TREE_PATH_SCRIPT = """
import contextlib, io, sys, tempfile
from pathlib import Path

from dgmdist import (
    GroundMetric, TreeConfig, build_tree, exact_distance, knn_distances,
    load_diagram, multi_tree_estimate, union_coords,
)
from dgmdist.cli import main


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    tmp = Path(tmp)
    for kind, sub in (("uniform", "q"), ("gaussian", "c")):
        code = main(["gen", "--kind", kind, "--count", "4", "--max-size", "40",
                     "--seed", "3", "--out", str(tmp / sub)])
        assert code == 0, code
    files = sorted(str(p) for p in (tmp / "q").glob("dgm_*.txt"))
    for method in ("flowtree", "embedding"):
        for metric in ("l1", "l2", "linf"):
            argv = ["dist", files[0], files[1], "--method", method,
                    "--metric", metric, "--trees", "2"]
            assert main(argv) == 0, argv
        argv = ["knn", "--queries", str(tmp / "q"), "--candidates", str(tmp / "c"),
                "--method", method, "-k", "2"]
        assert main(argv) == 0, argv
    assert main(["embed", "--in", str(tmp / "q"), "--out", str(tmp / "v")]) == 0
    dgms = [load_diagram(f) for f in files]
    for method in ("flowtree", "embedding"):
        multi_tree_estimate(dgms[0], dgms[1], GroundMetric.L2, [0, 1], method=method)
        knn_distances(dgms[:1], dgms[1:], method, GroundMetric.L2, seed=1)
    build_tree(union_coords(dgms), TreeConfig(seed=0, ground_metric=GroundMetric.L1))
assert scipy_modules() == [], scipy_modules()
assert exact_distance(dgms[0], dgms[1], GroundMetric.L2) > 0.0
assert "scipy.optimize" in sys.modules, scipy_modules()
print("ok")
"""


def test_tree_path_loads_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("DGMDIST_SEED", None)
    done = subprocess.run(
        [sys.executable, "-c", TREE_PATH_SCRIPT],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["ok"]


# Run in a fresh interpreter: no part of the package needs multiprocessing,
# so importing the CLI loads none of it.
CLI_IMPORT_SCRIPT = """
import sys

import dgmdist.cli

loaded = sorted(
    m for m in sys.modules
    if m.split(".")[0] == "multiprocessing" or m == "concurrent.futures.process"
)
assert loaded == [], loaded
print("ok")
"""


def test_cli_import_loads_no_multiprocessing():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", CLI_IMPORT_SCRIPT],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["ok"]
