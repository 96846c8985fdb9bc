"""Exact toolkit for minimal vertex covers of unmixed bipartite graphs.

Enumerate the minimal covers of a graph, decide unmixedness, normalize an
unmixed bipartite graph so that each {x_i, y_i} is an edge, read its cover
lattice off the labeled edges (the down-sets of i <= j iff x_i y_j is an
edge), and tie the lattice rank to the exact rank of the cover incidence
matrix: the semigroup of the cover monomials has dimension rank plus one,
and every pipeline run re-verifies that.
"""

from .exceptions import CoverError, GraphError, InconsistencyError, LatticeError
from .graphs import (
    Bipartition,
    Graph,
    LabeledBipartiteGraph,
    as_graph,
    bipartition,
    graph_from_edges,
    parse_graph,
    parse_labeled,
    serialize_labeled,
)
from .covers import (
    DEFAULT_MAX_VERTICES,
    Relabeling,
    enumerate_minimal_covers,
    format_covers,
    perfect_matching,
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
    parse_lattice,
    random_sublattice,
    rank,
)
from .algebra import (
    DimensionReport,
    dimension_report,
    format_report,
    multichain_counts,
    rank_exact,
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
    "hasse",
    "hasse_to_dot",
    "multichain_counts",
    "parse_graph",
    "parse_labeled",
    "parse_lattice",
    "perfect_matching",
    "random_sublattice",
    "rank",
    "rank_exact",
    "serialize_labeled",
    "verify_lattice",
]
