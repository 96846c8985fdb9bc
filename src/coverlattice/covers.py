"""Minimal vertex covers and the matching-based normal form.

A minimal vertex cover is exactly the complement of a maximal independent
set, so one search, Bron-Kerbosch with a Tomita pivot over bit-mask vertex
sets (_bron_kerbosch), finds them. It records a leaf without a call and
never enters a branch with no candidates but some excluded vertex, which
can only die. A minimal cover of a disjoint union is one minimal cover per
connected component, so _component_covers runs the search once per
component (graphs._components), and every listing takes that one route:
_cover_masks, for verify, returns the unions of one cover per component;
_sorted_cover_masks checks the vertex cap and sorts them in the canonical
order (ascending size, then lexicographic on the members). The covers
command prints those masks through _cover_lines, and
enumerate_minimal_covers returns them as frozensets.
For check of a graph that is not unmixed bipartite, _cover_size_counts
convolves the components' size histograms and lists no cover of the whole
graph. The pipeline reads an unmixed bipartite graph's lattice off its
labeled edges and runs no search on it. All of it reads Graph._nbr.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from .exceptions import CoverError
from .graphs import (
    Bipartition,
    Graph,
    LabeledBipartiteGraph,
    _bits,
    _canonical,
    _components,
    _mask_to_set,
    _set_texts,
    _to_mask,
)

__all__ = [
    "DEFAULT_MAX_VERTICES",
    "Relabeling",
    "enumerate_minimal_covers",
    "perfect_matching",
    "format_covers",
]

DEFAULT_MAX_VERTICES = 24

Cover = frozenset[int]


def enumerate_minimal_covers(
    g: Graph, max_vertices: int = DEFAULT_MAX_VERTICES
) -> tuple[Cover, ...]:
    """All minimal vertex covers of g, in the canonical set order."""
    return tuple(map(_mask_to_set, _sorted_cover_masks(g, max_vertices)))


def _sorted_cover_masks(g: Graph, max_vertices: int) -> list[int]:
    """The minimal vertex covers of g as masks in canonical order, after the vertex cap."""
    _check_cap(g, max_vertices)
    return _canonical(_cover_masks(g), g.vertex_count)


def _check_cap(g: Graph, max_vertices: int) -> None:
    """CoverError when g has more vertices than the enumeration cap."""
    if g.vertex_count > max_vertices:
        raise CoverError(
            f"{g.vertex_count} vertices exceeds the enumeration cap of {max_vertices}; "
            "raise max_vertices to override"
        )


def _cover_masks(g: Graph) -> list[int]:
    """The minimal vertex covers of g as masks, in no fixed order.

    The unions of one minimal cover per connected component
    (_component_covers), the first component's list used as it is, so a
    connected graph keeps one list. Exponential in the worst case, so
    enumerate_minimal_covers checks the vertex cap first; verify_lattice
    needs none, as the graph of a lattice has one minimal cover per element.
    """
    parts = _component_covers(g)
    masks = next(parts)  # a Graph has an edge, so one component at least
    for covers in parts:
        masks = [m | c for m in masks for c in covers]
    return masks


def _cover_size_counts(g: Graph) -> tuple[tuple[int, int], ...]:
    """(size, count) of the minimal vertex covers of g, ascending by size.

    The convolution of the components' cover sizes (_component_covers),
    one cover at a time: the work is a sum over the components where
    listing the covers would cost their product.
    """
    counts = {0: 1}
    for covers in _component_covers(g):
        convolved: dict[int, int] = {}
        for cover in covers:
            k = cover.bit_count()
            for size, count in counts.items():
                convolved[size + k] = convolved.get(size + k, 0) + count
        counts = convolved
    return tuple(sorted(counts.items()))


def _component_covers(g: Graph) -> Iterator[list[int]]:
    """Each connected component's minimal covers, as masks inside that component.

    A minimal cover of a disjoint union is one minimal cover per component,
    so Bron-Kerbosch runs on each component alone (graphs._components).
    """
    non_nbr = _complement(g._nbr)
    for layers in _components(g._nbr):
        component = sum(layers)  # the layers are disjoint
        yield [component ^ s for s in _bron_kerbosch(non_nbr, component)]


def _complement(nbr: Sequence[int]) -> list[int]:
    """The complement graph: non_nbr[i], the vertices that can join an independent set with i."""
    full = (1 << len(nbr)) - 1
    return [full & ~m & ~(1 << i) for i, m in enumerate(nbr)]


def _bron_kerbosch(non_nbr: list[int], within: int) -> list[int]:
    """The maximal independent sets of the subgraph induced on within, as masks.

    The maximal cliques of the complement graph, by Bron-Kerbosch with a
    Tomita pivot, in no fixed order. The one search behind every cover
    enumeration. A branch whose candidates run out is a leaf when nothing
    is excluded, and is recorded without a call; with some vertex excluded
    it can only die, so it is never entered.
    """
    if not within:
        return [0]
    independent: list[int] = []
    record = independent.append

    def expand(chosen: int, candidates: int, excluded: int) -> None:
        # the pivot: the vertex of candidates | excluded that keeps the most candidates
        rest, most, keep = candidates | excluded, -1, 0
        while rest:
            low = rest & -rest
            kept = non_nbr[low.bit_length() - 1]
            k = (candidates & kept).bit_count()
            if k > most:
                most, keep = k, kept
            rest ^= low
        branch = candidates & ~keep
        while branch:
            low = branch & -branch
            kept = non_nbr[low.bit_length() - 1]
            inner = candidates & kept
            if inner:
                expand(chosen | low, inner, excluded & kept)
            elif not excluded & kept:
                record(chosen | low)
            candidates ^= low
            excluded |= low
            branch ^= low

    expand(0, within, 0)
    return independent


def perfect_matching(g: Graph, part: Bipartition) -> dict[int, int] | None:
    """Pair side_u with side_v, or None when no perfect matching exists.

    Deterministic: side_u is processed in ascending order, neighbors are
    scanned ascending, and a free partner is taken before any augmenting
    path is tried.
    """
    if len(part.side_u) != len(part.side_v):
        return None
    order = {u: [j + 1 for j in _bits(g._nbr[u - 1])] for u in part.side_u}
    partner_of_u: dict[int, int] = {}
    partner_of_v: dict[int, int] = {}

    def augment(u: int, visited: set[int]) -> bool:
        for v in order[u]:
            if v not in visited and v not in partner_of_v:
                visited.add(v)
                partner_of_v[v] = u
                partner_of_u[u] = v
                return True
        for v in order[u]:
            if v not in visited:
                visited.add(v)
                if augment(partner_of_v[v], visited):
                    partner_of_v[v] = u
                    partner_of_u[u] = v
                    return True
        return False

    for u in sorted(part.side_u):
        if not augment(u, set()):
            return None
    return dict(sorted(partner_of_u.items()))


@dataclass(frozen=True)
class Relabeling:
    """Records which original vertex became x_i / y_i (position i-1)."""

    x_source: tuple[int, ...]
    y_source: tuple[int, ...]


def _relabel(
    g: Graph, part: Bipartition, matching: dict[int, int]
) -> tuple[LabeledBipartiteGraph, Relabeling]:
    """Label g through a perfect matching of part: side_u ascending is x_1..x_n, partners y_i.

    Any bipartite graph with a perfect matching relabels; its labeled edges
    are a preorder i <= j exactly when it is unmixed (Villarreal 2007). No
    other matching changes them then: pairing each x_i with y_pi(i) gives
    i <= pi(i) <= pi^2(i) <= ... <= i, so it only permutes y vertices within
    one class of the preorder, which shows only in Relabeling.y_source.
    part is bipartition(g), so each x vertex's neighbour mask holds y vertices only.
    """
    xs = sorted(part.side_u)
    y_index = {matching[v]: i for i, v in enumerate(xs, start=1)}
    edges = frozenset(
        (i, y_index[w + 1]) for i, v in enumerate(xs, start=1) for w in _bits(g._nbr[v - 1])
    )
    labeled = LabeledBipartiteGraph(len(xs), edges)
    relabeling = Relabeling(tuple(xs), tuple(matching[v] for v in xs))
    return labeled, relabeling


def _cover_lines(masks: Sequence[int], width: int) -> str:
    """One cover per line as ascending vertex indices (graphs._set_texts)."""
    return "\n".join(_set_texts(masks, width, " ")) + "\n"


def format_covers(covers: Sequence[Cover]) -> str:
    """One cover per line as sorted vertex indices."""
    masks = list(map(_to_mask, covers))
    return _cover_lines(masks, max(masks, default=0).bit_length())
