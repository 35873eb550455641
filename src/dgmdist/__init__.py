"""Exact and fast approximate 1-Wasserstein distances between persistence diagrams.

Two near-linear estimators share a randomly shifted quadtree: a sparse
level-weighted L1 embedding whose vector distance upper-approximates the
transport cost, and a greedy bottom-up matching whose ground-metric cost
("flowtree" distance) upper-bounds the exact distance on every tree. An
exact solver, one reduced rectangular assignment, provides ground truth, and
an evaluation harness measures relative error, recall@m, ranking quality and
runtime.
"""

from .diagram import (
    DiagramError,
    DiagramParseError,
    GroundMetric,
    InvalidPointError,
    PDPoint,
    PersistenceDiagram,
    gen_gaussian,
    gen_uniform,
    load_diagram,
    save_diagram,
)
from .embedding import (
    EmbeddingIndex,
    EmbeddingVector,
    TreeMismatchError,
    embed,
    embed_all,
    l1_distance,
    read_vector,
    write_vector,
)
from .evaluate import (
    BenchRow,
    ErrorStats,
    ErrorSuiteResult,
    PairErrorRow,
    RecallCurve,
    error_suite,
    eval_report,
    knn_distances,
    ranking_table,
    recall_at_m,
    relative_error,
    runtime_bench,
)
from .exact import DEFAULT_SIZE_CAP, SizeCapError, exact_distance
from .flowtree import (
    KIND_CROSS,
    KIND_P_TO_DIAGONAL,
    KIND_Q_TO_DIAGONAL,
    AugmentedMatching,
    MatchPair,
    PlacedDiagrams,
    flowtree_distance,
    greedy_match,
    multi_tree_estimate,
    write_matching,
)
from .quadtree import (
    MAX_LEVELS,
    OutsideRootError,
    ShiftedQuadtree,
    TreeConfig,
    TreeGeometry,
    build_tree,
    tree_geometry,
    union_coords,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentedMatching",
    "BenchRow",
    "DEFAULT_SIZE_CAP",
    "DiagramError",
    "DiagramParseError",
    "EmbeddingIndex",
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
    "embed_all",
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
