"""End-to-end drivers shared by the command-line tool and the test harness."""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import DimensionReport, build_matrices, dimension_report, growth_oracle
from .covers import (
    DEFAULT_MAX_VERTICES,
    Cover,
    Relabeling,
    enumerate_minimal_covers,
    is_unmixed,
    relabel,
    x_parts,
)
from .exceptions import InconsistencyError
from .graphs import Bipartition, Graph, LabeledBipartiteGraph, as_graph, bipartition
from .lattice import CoverLattice, graph_from_lattice, lattice_from_covers

__all__ = ["GraphAnalysis", "LatticeVerification", "analyze_graph", "verify_lattice"]

GROWTH_MAX_ROWS = 12
GROWTH_MAX_PAIRS = 6


@dataclass(frozen=True)
class GraphAnalysis:
    """Everything derivable from one input graph.

    The lattice-and-dimension fields stay None unless the graph is both
    bipartite and unmixed.
    """

    graph: Graph
    partition: Bipartition | None
    covers: tuple[Cover, ...]
    unmixed: bool
    labeled: LabeledBipartiteGraph | None = None
    relabeling: Relabeling | None = None
    labeled_covers: tuple[Cover, ...] | None = None
    lattice: CoverLattice | None = None
    report: DimensionReport | None = None


def analyze_graph(g: Graph, max_vertices: int = DEFAULT_MAX_VERTICES) -> GraphAnalysis:
    """Bipartition and covers always; the full dimension pipeline when possible."""
    part = bipartition(g)
    covers = enumerate_minimal_covers(g, max_vertices=max_vertices)
    unmixed = is_unmixed(covers)
    if part is None or not unmixed:
        return GraphAnalysis(g, part, covers, unmixed)
    labeled, relabeling = relabel(g, part, covers)
    labeled_covers = enumerate_minimal_covers(as_graph(labeled), max_vertices=max_vertices)
    if len(labeled_covers) != len(covers):
        raise InconsistencyError(
            "relabeled graph has a different number of minimal covers",
            details={"original": len(covers), "relabeled": len(labeled_covers)},
        )
    lat = lattice_from_covers(x_parts(labeled, labeled_covers), labeled.n)
    report = dimension_report(labeled, labeled_covers, lat)
    return GraphAnalysis(
        g, part, covers, unmixed, labeled, relabeling, labeled_covers, lat, report
    )


@dataclass(frozen=True)
class LatticeVerification:
    """Outcome of driving one lattice through every cross-check."""

    lattice: CoverLattice
    labeled: LabeledBipartiteGraph
    report: DimensionReport
    growth_dimension: int | None  # None when skipped or inconclusive
    growth_skipped: bool  # True when the state-space guard excluded the instance


def verify_lattice(
    lat: CoverLattice,
    growth_max_degree: int = 10,
    use_growth: bool = True,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> LatticeVerification:
    """Drive one lattice instance through the whole verification pipeline.

    graph_from_lattice certifies its output on down-sets of the preorder; on
    top of that this enumerates the graph's minimal covers (Bron-Kerbosch)
    and checks that their x-parts reproduce the lattice, an independent
    route back from the graph. It then computes the dimension report, which
    ties the preorder rank to the exact matrix ranks, and cross-checks the
    dimension against the growth estimate when the state-space guard
    allows. Any violation raises InconsistencyError; inconclusive growth is
    reported, not raised.
    """
    lg = graph_from_lattice(lat)
    covers = enumerate_minimal_covers(as_graph(lg), max_vertices=max_vertices)
    reproduced = lattice_from_covers(x_parts(lg, covers), lat.n)
    if reproduced.elements != lat.elements:
        raise InconsistencyError(
            "cover projection does not reproduce the lattice",
            details={
                "expected": [sorted(e) for e in lat.elements],
                "actual": [sorted(e) for e in reproduced.elements],
            },
        )
    report = dimension_report(lg, covers, lat)
    matrix, _ = build_matrices(covers, lg)
    growth: int | None = None
    skipped = True
    if (
        use_growth
        and len(matrix.rows) <= GROWTH_MAX_ROWS
        and matrix.n <= GROWTH_MAX_PAIRS
        and growth_max_degree <= 12
    ):
        skipped = False
        growth = growth_oracle(matrix, growth_max_degree)
        if growth is not None and growth != report.rank_full:
            raise InconsistencyError(
                f"growth estimate {growth} disagrees with exact rank {report.rank_full}",
                details={
                    "n": lat.n,
                    "lattice": [sorted(e) for e in lat.elements],
                    "rows": [list(r) for r in matrix.rows],
                },
            )
    return LatticeVerification(lat, lg, report, growth, skipped)
