"""Exact toolkit for minimal vertex covers of unmixed bipartite graphs.

Enumerate the minimal covers of a graph, decide unmixedness, normalize an
unmixed bipartite graph so that each {x_i, y_i} is an edge, project the
covers onto the x side to get a bounded sublattice of the subset lattice,
and tie the rank of that lattice to the exact rank of the cover incidence
matrix: the dimension of the semigroup generated by the cover monomials is
always the lattice rank plus one, and every pipeline run re-verifies that.
"""

from .exceptions import CoverError, GraphError, InconsistencyError, LatticeError
from .graphs import (
    Bipartition,
    Graph,
    LabeledBipartiteGraph,
    as_graph,
    bipartition,
    graph_from_edges,
    neighborhood,
    parse_graph,
    parse_labeled,
    serialize_graph,
    serialize_labeled,
)
from .covers import (
    DEFAULT_MAX_VERTICES,
    Relabeling,
    enumerate_minimal_covers,
    format_covers,
    hall_condition_holds,
    is_unmixed,
    perfect_matching,
    relabel,
    x_parts,
)
from .lattice import (
    ClosureCertificate,
    CoverLattice,
    HasseDiagram,
    enumerate_sublattices,
    format_lattice,
    graph_from_lattice,
    hasse,
    hasse_to_dot,
    is_sublattice,
    lattice_from_covers,
    parse_lattice,
    random_sublattice,
    rank,
)
from .algebra import (
    DimensionReport,
    dimension_report,
    format_report,
    monomial_string,
    multichain_counts,
    rank_exact,
    rank_mod,
)
from .pipeline import GraphAnalysis, LatticeVerification, analyze_graph, verify_lattice

__version__ = "0.1.0"

__all__ = [
    "Bipartition",
    "ClosureCertificate",
    "CoverError",
    "CoverLattice",
    "DEFAULT_MAX_VERTICES",
    "DimensionReport",
    "GraphAnalysis",
    "Graph",
    "GraphError",
    "HasseDiagram",
    "InconsistencyError",
    "LabeledBipartiteGraph",
    "LatticeError",
    "LatticeVerification",
    "Relabeling",
    "analyze_graph",
    "as_graph",
    "bipartition",
    "dimension_report",
    "enumerate_minimal_covers",
    "enumerate_sublattices",
    "format_covers",
    "format_lattice",
    "format_report",
    "graph_from_edges",
    "graph_from_lattice",
    "hall_condition_holds",
    "hasse",
    "hasse_to_dot",
    "is_sublattice",
    "is_unmixed",
    "lattice_from_covers",
    "monomial_string",
    "multichain_counts",
    "neighborhood",
    "parse_graph",
    "parse_labeled",
    "parse_lattice",
    "perfect_matching",
    "random_sublattice",
    "rank",
    "rank_exact",
    "rank_mod",
    "relabel",
    "serialize_graph",
    "serialize_labeled",
    "verify_lattice",
    "x_parts",
]
