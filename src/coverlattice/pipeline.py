"""End-to-end drivers shared by the command-line tool and the test harness."""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import DimensionReport, dimension_report, multichain_counts
from .covers import (
    DEFAULT_MAX_VERTICES,
    Relabeling,
    _check_cap,
    _cover_masks,
    _cover_size_counts,
    _relabel,
    perfect_matching,
)
from .exceptions import InconsistencyError
from .graphs import (
    Bipartition,
    Graph,
    LabeledBipartiteGraph,
    _canonical,
    _mask_to_set,
    as_graph,
    bipartition,
)
from .lattice import CoverLattice, _edge_preorder, _is_preorder, graph_from_lattice

__all__ = ["GraphAnalysis", "LatticeVerification", "analyze_graph", "verify_lattice"]


@dataclass(frozen=True)
class GraphAnalysis:
    """Everything derivable from one input graph.

    The lattice-and-dimension fields stay None unless the graph is both
    bipartite and unmixed; the lattice elements are the x-parts of the
    covers of labeled. cover_size_counts holds (size, count) pairs of the
    minimal covers of graph, ascending by size; no cover is kept. On an
    unmixed bipartite graph it is ((n, |L|),), with |L| the dimension
    report's count from the preorder, and no element is listed. Only on the
    other graphs does Bron-Kerbosch find it, one connected component at a
    time.
    """

    graph: Graph
    partition: Bipartition | None
    cover_size_counts: tuple[tuple[int, int], ...]
    unmixed: bool
    labeled: LabeledBipartiteGraph | None = None
    relabeling: Relabeling | None = None
    lattice: CoverLattice | None = None
    report: DimensionReport | None = None


def analyze_graph(g: Graph, max_vertices: int = DEFAULT_MAX_VERTICES) -> GraphAnalysis:
    """Bipartition always; the lattice from the edges, or the covers from Bron-Kerbosch.

    A bipartite graph with a perfect matching is relabeled through it, and
    it is unmixed iff the labeled edge relation "x_i y_j is an edge" is a
    preorder i <= j (Villarreal). Then its lattice is the down-sets of that
    preorder (Birkhoff), one per minimal cover, so no cover is enumerated.
    Every other graph (mixed, not bipartite, or without a perfect matching)
    gets its cover sizes from Bron-Kerbosch, as check prints their count and
    counting the minimal covers of a mixed graph is #P-hard. The search runs
    on each connected component alone and the size histograms convolve,
    since a minimal cover of a disjoint union is one minimal cover per
    component. Covers of one size there, on a graph whose labeled edges are
    no preorder, contradict Villarreal and raise InconsistencyError.
    """
    _check_cap(g, max_vertices)  # the cap is refused before any other work
    part = bipartition(g)
    matching = None if part is None else perfect_matching(g, part)
    labeled = None
    if matching is not None:
        labeled, relabeling = _relabel(g, part, matching)
        pred = _edge_preorder(labeled)
        if _is_preorder(pred):
            lat = CoverLattice._from_preorder(labeled.n, pred)
            report = dimension_report(lat)
            counts = ((labeled.n, report.cover_count),)
            return GraphAnalysis(g, part, counts, True, labeled, relabeling, lat, report)
    counts = _cover_size_counts(g)
    unmixed = len(counts) == 1
    if labeled is not None and unmixed:
        ((size, count),) = counts
        raise InconsistencyError(
            f"all {count} minimal covers have size {size}, "
            "but the labeled edges are not a preorder",
            details={"n": labeled.n, "edges": sorted(labeled.edges), "stage": "analyze_graph"},
        )
    return GraphAnalysis(g, part, counts, unmixed)


@dataclass(frozen=True)
class LatticeVerification:
    """Outcome of driving one lattice through every cross-check."""

    lattice: CoverLattice
    labeled: LabeledBipartiteGraph
    report: DimensionReport
    growth_dimension: int  # degree of the multichain count plus one
    growth_skipped: bool = False  # always False; kept for bench/tracing.py, which reads it


def verify_lattice(lat: CoverLattice) -> LatticeVerification:
    """Drive one lattice instance through the whole verification pipeline.

    CoverLattice's down-set check certifies graph_from_lattice's output; on
    top of that this enumerates the graph's minimal covers (Bron-Kerbosch),
    an independent route back from the graph, and checks the bijection
    behind the cover semigroup ring: they are exactly the covers
    C_A = {x_i : i in A} + {y_j : j not in A}, one per element A of the
    lattice. It then computes the dimension report, which ties the preorder
    rank to the exact matrix ranks, and checks the dimension against the
    Hilbert function of the cover semigroup ring: the multichain count M(t)
    of the lattice, whose degree must be rank_full - 1. Any violation
    raises InconsistencyError.
    """
    lg = graph_from_lattice(lat)
    n, full = lg.n, (1 << lg.n) - 1
    found = set(_cover_masks(as_graph(lg)))  # bit i - 1 for x_i, bit n + j - 1 for y_j
    expected = {a | (full ^ a) << n for a in lat.masks}
    if found != expected:

        def listed(masks, width):
            return [sorted(_mask_to_set(m)) for m in _canonical(masks, width)]

        raise InconsistencyError(
            "cover projection does not reproduce the lattice",
            details={
                "expected": [sorted(e) for e in lat.elements],
                "actual": listed({c & full for c in found}, n),  # the found covers' x-parts
                "unexpected": listed(found - expected, 2 * n),  # found, but no C_A
                "stage": "cover_projection",
            },
        )
    report = dimension_report(lat)
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
                "stage": "multichain",
            },
        )
    return LatticeVerification(lat, lg, report, growth)
