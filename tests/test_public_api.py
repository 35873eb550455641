"""The public names of the dgmdist package, pinned.

Adding or removing an export must edit PUBLIC here, and a removal also needs
its line in CHANGES.md.
"""

import inspect

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
