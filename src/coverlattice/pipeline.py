"""End-to-end drivers shared by the command-line tool and the test harness."""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import DimensionReport, dimension_report, multichain_counts
from .covers import (
    DEFAULT_MAX_VERTICES,
    Cover,
    Relabeling,
    _x_masks,
    enumerate_minimal_covers,
    is_unmixed,
    relabel,
)
from .exceptions import InconsistencyError
from .graphs import Bipartition, Graph, LabeledBipartiteGraph, as_graph, bipartition
from .lattice import CoverLattice, _edge_preorder, _element_key, _mask_to_set, graph_from_lattice

__all__ = ["GraphAnalysis", "LatticeVerification", "analyze_graph", "verify_lattice"]


@dataclass(frozen=True)
class GraphAnalysis:
    """Everything derivable from one input graph.

    The lattice-and-dimension fields stay None unless the graph is both
    bipartite and unmixed; the lattice elements are the x-parts of the covers of labeled.
    """

    graph: Graph
    partition: Bipartition | None
    covers: tuple[Cover, ...]
    unmixed: bool
    labeled: LabeledBipartiteGraph | None = None
    relabeling: Relabeling | None = None
    lattice: CoverLattice | None = None
    report: DimensionReport | None = None


def analyze_graph(g: Graph, max_vertices: int = DEFAULT_MAX_VERTICES) -> GraphAnalysis:
    """Bipartition and covers always; the full dimension pipeline when possible.

    The lattice is the down-sets of the labeled edge relation (Villarreal): a
    preorder with one down-set per minimal cover, else InconsistencyError.
    """
    part = bipartition(g)
    covers = enumerate_minimal_covers(g, max_vertices=max_vertices)
    unmixed = is_unmixed(covers)
    if part is None or not unmixed:
        return GraphAnalysis(g, part, covers, unmixed)
    labeled, relabeling = relabel(g, part, covers)
    lat = CoverLattice._from_preorder(labeled.n, _edge_preorder(labeled))
    if len(lat.masks) != len(covers):
        raise InconsistencyError(
            f"lattice of the labeled edges has {len(lat.masks)} elements, covers={len(covers)}",
            details={"n": labeled.n, "edges": sorted(labeled.edges)},
        )
    report = dimension_report(labeled, lat)
    return GraphAnalysis(g, part, covers, unmixed, labeled, relabeling, lat, report)


@dataclass(frozen=True)
class LatticeVerification:
    """Outcome of driving one lattice through every cross-check."""

    lattice: CoverLattice
    labeled: LabeledBipartiteGraph
    report: DimensionReport
    growth_dimension: int  # degree of the multichain count plus one
    growth_skipped: bool = False  # always False; kept for bench/tracing.py, which reads it


def verify_lattice(
    lat: CoverLattice, max_vertices: int = DEFAULT_MAX_VERTICES
) -> LatticeVerification:
    """Drive one lattice instance through the whole verification pipeline.

    graph_from_lattice certifies its output on down-sets of the preorder; on
    top of that this enumerates the graph's minimal covers (Bron-Kerbosch)
    and checks that their x-parts reproduce the lattice, an independent
    route back from the graph. It then computes the dimension report, which
    ties the preorder rank to the exact matrix ranks, and checks the
    dimension against the Hilbert function of the cover semigroup ring: the
    multichain count M(t) of the lattice, whose degree must be rank_full - 1.
    Any violation raises InconsistencyError.
    """
    lg = graph_from_lattice(lat)
    covers = enumerate_minimal_covers(as_graph(lg), max_vertices=max_vertices)
    parts = set(_x_masks(lg.n, covers))
    if parts != set(lat.masks):
        raise InconsistencyError(
            "cover projection does not reproduce the lattice",
            details={
                "expected": [sorted(e) for e in lat.elements],
                "actual": [sorted(e) for e in sorted(map(_mask_to_set, parts), key=_element_key)],
            },
        )
    report = dimension_report(lg, lat)
    # M(t) = sum_k s_k * C(t-1, k-1) with s_k the k-element strict chains, so
    # the forward differences of M at t = 1 are s_1, s_2, ...; r + 2 values
    # give s_1..s_{r+2}, and the degree is r iff s_{r+1} > 0 = s_{r+2}
    multichains = multichain_counts(lat, report.lattice_rank + 2)
    chains, level = [], multichains
    while level:
        chains.append(level[0])
        level = [b - a for a, b in zip(level, level[1:])]
    growth = max(k for k, s in enumerate(chains) if s) + 1
    if growth != report.rank_full:
        raise InconsistencyError(
            f"multichain count disagrees with rank_full={report.rank_full}: "
            f"strict chain counts {chains}",
            details={
                "n": lat.n,
                "lattice": [sorted(e) for e in lat.elements],
                "multichains": multichains,
                "strict_chains": chains,
            },
        )
    return LatticeVerification(lat, lg, report, growth)
