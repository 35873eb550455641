"""Exact and fast approximate 1-Wasserstein distances between persistence diagrams.

Two near-linear estimators share a randomly shifted quadtree: a sparse
level-weighted L1 embedding whose vector distance upper-approximates the
transport cost, and a greedy bottom-up matching whose ground-metric cost
("flowtree" distance) upper-bounds the exact distance on every tree. An
assignment-based exact solver provides ground truth, and an evaluation
harness measures relative error, recall@m, ranking quality and runtime.
"""

from .diagram import (
    DiagramError,
    DiagramParseError,
    GroundMetric,
    InvalidPointError,
    PDPoint,
    PersistenceDiagram,
    diagonal_distance,
    gen_gaussian,
    gen_uniform,
    load_diagram,
    project_to_diagonal,
    save_diagram,
)
from .embedding import (
    EmbeddingVector,
    TreeMismatchError,
    embed,
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
    knn_distances,
    ranking_table,
    recall_at_m,
    relative_error,
    runtime_bench,
)
from .exact import (
    DEFAULT_SIZE_CAP,
    AssignmentProblem,
    SizeCapError,
    brute_force_distance,
    build_assignment,
    exact_distance,
    ot_augmented,
)
from .flowtree import (
    KIND_CROSS,
    KIND_P_TO_DIAGONAL,
    KIND_Q_TO_DIAGONAL,
    AugmentedMatching,
    MatchPair,
    flowtree_distance,
    greedy_match,
    multi_tree_estimate,
    write_matching,
)
from .quadtree import (
    OutsideRootError,
    ShiftedQuadtree,
    TreeConfig,
    build_tree,
    union_coords,
)

__version__ = "0.1.0"

__all__ = [
    "AssignmentProblem",
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
    "MatchPair",
    "OutsideRootError",
    "PDPoint",
    "PairErrorRow",
    "PersistenceDiagram",
    "RecallCurve",
    "ShiftedQuadtree",
    "SizeCapError",
    "TreeConfig",
    "TreeMismatchError",
    "brute_force_distance",
    "build_assignment",
    "build_tree",
    "diagonal_distance",
    "embed",
    "error_suite",
    "exact_distance",
    "flowtree_distance",
    "gen_gaussian",
    "gen_uniform",
    "greedy_match",
    "knn_distances",
    "l1_distance",
    "load_diagram",
    "multi_tree_estimate",
    "ot_augmented",
    "project_to_diagonal",
    "ranking_table",
    "read_vector",
    "recall_at_m",
    "relative_error",
    "runtime_bench",
    "save_diagram",
    "union_coords",
    "write_matching",
    "write_vector",
]
