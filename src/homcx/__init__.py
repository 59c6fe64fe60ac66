"""Hom complexes of graphs: cells, homology, and chromatic constructions."""

from .builders import (
    chi4_girth5_graph,
    circulant_graph,
    complete_graph,
    cycle_graph,
    high_girth_library,
    path_graph,
    petersen_graph,
    walker_graph_1,
    walker_graph_2,
)
from .coloring import chromatic_number, greedy_coloring
from .constructions import (
    FamilyMember,
    PipelineCertificate,
    certificate_json,
    fiber_certificate,
    find_high_girth_high_chromatic,
    glue_cylinder,
    prop32_hypothesis,
    replace_edges_with_paths,
    shortest_odd_cycle,
    subdivide_edge,
    theorem51_pipeline,
    uniformly_small_m,
)
from .certs import LoadedCertificate, load_certificate, verify_certificate
from .errors import (
    BipartiteInputError,
    DisconnectedGraphError,
    GraphFormatError,
    HomcxError,
    InvalidParameterError,
    NotFoundWithinBudgetError,
    ResourceLimitError,
)
from .graphs import Graph, GraphHom
from .homology import (
    ChainComplex,
    HomologyProfile,
    cellular_chain_complex,
    homology,
    induced_map_homology,
    order_complex_homology,
)
from .homs import (
    CellMap,
    HomComplex,
    Involution,
    MultiHom,
    enumerate_cells,
    enumerate_homs,
    pullback,
    pushforward,
    x_homotopy_classes,
    z2_structure,
)

__version__ = "0.1.0"

# The kernel implementation, reported by run logs and benchmark reports;
# the pure-Python kernels are the only ones.
BACKEND = "pure"

__all__ = [
    "BACKEND",
    "BipartiteInputError",
    "CellMap",
    "ChainComplex",
    "DisconnectedGraphError",
    "FamilyMember",
    "Graph",
    "GraphFormatError",
    "GraphHom",
    "HomComplex",
    "HomcxError",
    "HomologyProfile",
    "InvalidParameterError",
    "Involution",
    "LoadedCertificate",
    "MultiHom",
    "NotFoundWithinBudgetError",
    "PipelineCertificate",
    "ResourceLimitError",
    "certificate_json",
    "cellular_chain_complex",
    "chromatic_number",
    "complete_graph",
    "cycle_graph",
    "enumerate_cells",
    "enumerate_homs",
    "fiber_certificate",
    "find_high_girth_high_chromatic",
    "glue_cylinder",
    "greedy_coloring",
    "high_girth_library",
    "homology",
    "induced_map_homology",
    "circulant_graph",
    "chi4_girth5_graph",
    "load_certificate",
    "order_complex_homology",
    "path_graph",
    "petersen_graph",
    "prop32_hypothesis",
    "pullback",
    "pushforward",
    "replace_edges_with_paths",
    "shortest_odd_cycle",
    "subdivide_edge",
    "theorem51_pipeline",
    "uniformly_small_m",
    "verify_certificate",
    "walker_graph_1",
    "walker_graph_2",
    "x_homotopy_classes",
    "z2_structure",
]
