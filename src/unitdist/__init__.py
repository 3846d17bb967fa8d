"""Exact independence and chromatic numbers of unit-distance graphs.

Constructors for Hamming-distance cube graphs, their even half-cubes and
hyperplane slices, and the Gosset graph on the 240 shortest E8 vectors;
exact branch-and-bound solvers for maximum independent sets, k-colorability
and chromatic numbers; a greedy alpha-preserving point augmentation with
independently verifiable certificates; and deterministic file formats for
graphs, coordinates, witnesses, and result tables.
"""
from .core import (
    BoundReport,
    DuplicatePointError,
    Graph,
    PointCloud,
    VertexSet,
    connected_components,
    degree_profile,
    graph_from_points,
    induced_subgraph,
    ratio_lower_bound,
)
from .hypercube import (
    append_zero_embedding,
    half_cube,
    hamming_graph,
    slice_graph,
)
from .e8 import (
    AugmentationState,
    CandidatePool,
    Certificate,
    CertificateError,
    RootSet,
    addition_preserves_alpha,
    augment_greedy,
    build_g0,
    enumerate_ball,
    gosset_roots,
    initial_state,
    rational_rescale_check,
    shipped_certificate,
    verify_certificate,
)
from .solve import (
    ChiBracket,
    ColoringResult,
    KColorOutcome,
    MisIncomplete,
    MisResult,
    SolveOptions,
    alpha_vertex_transitive,
    check_coloring,
    check_independent_set,
    chromatic_number,
    clique_lower_bound,
    greedy_coloring_bound,
    k_colorable,
    max_independent_set,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
