"""Community detection from relation strength matrices.

Build a relation strength matrix over a graph (shortest-path distance,
effective electrical resistance, similarity-network combination, or an
external matrix), threshold it at a community parameter epsilon, and
enumerate all maximal communities of the surviving relation graph.
"""

from .cli import PipelineConfig, PipelineResult, run_pipeline
from .community import (
    Community,
    EffectiveEdgeGraph,
    communities_to_csv,
    communities_to_dot,
    communities_to_json,
    count_maximal_communities,
    enumerate_maximal_communities,
    refine,
)
from .datasets import builtin_dataset_names, load_builtin_dataset
from .errors import (
    DimensionMismatchError,
    DirectedInputError,
    DuplicateEdgeError,
    InvalidSpecError,
    LabelError,
    MatrixValueError,
    NumericalError,
    ParseError,
    RsmcError,
    SingularityError,
    ThresholdError,
    UnknownDatasetError,
    WeightError,
)
from .graph import Graph, parse_edge_list, serialize_edge_list
from .rsm import (
    RsmMatrix,
    RsmValidationReport,
    Violation,
    erf_matrix,
    rsm_from_csv,
    rsm_from_json,
    rsm_to_csv,
    rsm_to_json,
    sdf_matrix,
    validate_rsm,
)
from .similarity import (
    CaseTable,
    SimilaritySpec,
    combine_similarities,
    parse_similarity_json,
)

__version__ = "0.1.0"

__all__ = [
    "CaseTable",
    "Community",
    "DimensionMismatchError",
    "DirectedInputError",
    "DuplicateEdgeError",
    "EffectiveEdgeGraph",
    "Graph",
    "InvalidSpecError",
    "LabelError",
    "MatrixValueError",
    "NumericalError",
    "ParseError",
    "PipelineConfig",
    "PipelineResult",
    "RsmMatrix",
    "RsmValidationReport",
    "RsmcError",
    "SimilaritySpec",
    "SingularityError",
    "ThresholdError",
    "UnknownDatasetError",
    "Violation",
    "WeightError",
    "builtin_dataset_names",
    "combine_similarities",
    "communities_to_csv",
    "communities_to_dot",
    "communities_to_json",
    "count_maximal_communities",
    "enumerate_maximal_communities",
    "erf_matrix",
    "load_builtin_dataset",
    "parse_edge_list",
    "parse_similarity_json",
    "refine",
    "rsm_from_csv",
    "rsm_from_json",
    "rsm_to_csv",
    "rsm_to_json",
    "run_pipeline",
    "sdf_matrix",
    "serialize_edge_list",
    "validate_rsm",
]
