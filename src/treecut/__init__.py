"""Hierarchical tree cut-sparsifiers with mechanically checked certificates."""

from .config import Config, DEFAULT
from .graph import (
    Graph,
    GraphError,
    SizeError,
    Measure,
    SubdivisionGraph,
    ClusterView,
    capacity,
    cut_capacity,
    cut_expansion,
    min_ratio_cut,
    subdivide,
    parse_edge_list,
    parse_measure,
)
from .demand import (
    DemandError,
    DemandMatrix,
    DemandState,
    from_matrix,
    invariant_check,
    leaf_init,
    parse_demands,
    respects_exact,
    update,
)
from .oracle import (
    OracleError,
    OracleOutcome,
    RefinedOutcome,
    check_outcome,
    check_refined,
    cut_or_expander,
    refined_cut_or_expander,
    sparsest_cut,
)
from .merge import MergeError, MergePartition, merge_phase
from .refine import (
    RefineError,
    RefinementResult,
    refine,
)
from .tree import (
    DecompositionTree,
    TreeError,
    TreeNode,
    build_basic,
    build_improved,
    mincut_in_tree,
)
from .replay import (
    ChargeLedger,
    ReplayError,
    ReplayReport,
    full_replay,
    replay_merge_cluster,
)
from .verify import (
    QualityReport,
    VerifyError,
    verify_quality,
)

__all__ = [
    "Config", "DEFAULT",
    "Graph", "GraphError", "SizeError", "Measure", "SubdivisionGraph",
    "ClusterView", "capacity", "cut_capacity", "cut_expansion",
    "min_ratio_cut", "subdivide", "parse_edge_list", "parse_measure",
    "DemandError", "DemandMatrix", "DemandState", "from_matrix",
    "invariant_check", "leaf_init", "parse_demands", "respects_exact",
    "update",
    "OracleError", "OracleOutcome", "RefinedOutcome", "check_outcome",
    "check_refined", "cut_or_expander", "refined_cut_or_expander",
    "sparsest_cut",
    "MergeError", "MergePartition", "merge_phase",
    "RefineError", "RefinementResult", "refine",
    "DecompositionTree", "TreeError", "TreeNode", "build_basic",
    "build_improved", "mincut_in_tree",
    "ChargeLedger", "ReplayError", "ReplayReport", "full_replay",
    "replay_merge_cluster",
    "QualityReport", "VerifyError", "verify_quality",
]
