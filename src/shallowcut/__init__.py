"""Hopset and shortcut construction for directed graphs.

Turns any shortcut/hopset oracle for shallow digraphs into a constructor
for arbitrary digraphs, via a randomized low-diameter decomposition and a
clustered-DAG reduction, with brute-force verification of every
guarantee.
"""

__version__ = "0.1.0"

from .dag_reduce import (
    ClusteredInput,
    DagIterationRecord,
    DagReduceTrace,
    reduce_clustered_dag,
)
from .generators import FAMILIES, GeneratorSpec, generate
from .graphs import (
    INF,
    DiGraph,
    EdgeSet,
    WeightedEdgeSet,
    dist_all_pairs,
    dist_from_sources,
    hop_limited_dist,
    induced_subgraph,
    pairs_reachable,
    reachable_pairs,
    scc_topological,
    strong_diameter,
)
from .ldd import (
    LddResult,
    ball,
    estimate_removal_probability,
    find_balanced_set,
    low_diameter_decomposition,
)
from .oracles import (
    ExactReachabilityOracle,
    ExactTransitiveOracle,
    HubSamplingOracle,
    OracleCall,
    OracleSizeLaw,
    ShallowOracle,
    ShortcutOracleAdapter,
    SizeLawViolation,
    checked_call,
    shortcut_as_hopset,
)
from .shallow_reduce import (
    ReductionConfig,
    ReductionReport,
    build_stars,
    phase_sigma,
    reduce_hopset,
    reduce_shortcut,
    run_phase,
    scale_down_graph,
    scaled_length,
)
from .verify import (
    DEFAULT_CEILING,
    SizeCeilingError,
    VerificationReport,
    Violation,
    verify_clustered,
    verify_distance_preservation,
    verify_hopset,
    verify_ldd,
    verify_shortcut,
)

__all__ = [
    "INF",
    "DEFAULT_CEILING",
    "FAMILIES",
    "DiGraph",
    "EdgeSet",
    "WeightedEdgeSet",
    "GeneratorSpec",
    "generate",
    "dist_all_pairs",
    "dist_from_sources",
    "hop_limited_dist",
    "reachable_pairs",
    "pairs_reachable",
    "scc_topological",
    "strong_diameter",
    "induced_subgraph",
    "LddResult",
    "ball",
    "find_balanced_set",
    "low_diameter_decomposition",
    "estimate_removal_probability",
    "OracleCall",
    "OracleSizeLaw",
    "ShallowOracle",
    "SizeLawViolation",
    "checked_call",
    "ExactTransitiveOracle",
    "ExactReachabilityOracle",
    "HubSamplingOracle",
    "ShortcutOracleAdapter",
    "shortcut_as_hopset",
    "ClusteredInput",
    "DagIterationRecord",
    "DagReduceTrace",
    "reduce_clustered_dag",
    "ReductionConfig",
    "ReductionReport",
    "phase_sigma",
    "scaled_length",
    "scale_down_graph",
    "build_stars",
    "run_phase",
    "reduce_hopset",
    "reduce_shortcut",
    "Violation",
    "VerificationReport",
    "SizeCeilingError",
    "verify_distance_preservation",
    "verify_hopset",
    "verify_shortcut",
    "verify_ldd",
    "verify_clustered",
]
