"""Minimal vertex covers, unmixedness, and the matching-based normal form.

A minimal vertex cover is exactly the complement of a maximal independent
set, so enumeration runs Bron-Kerbosch with pivoting over bit-mask vertex
sets. Everything downstream assumes the deterministic cover order fixed
here: ascending size, then lexicographic on the sorted members.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .exceptions import CoverError
from .graphs import Bipartition, Graph, LabeledBipartiteGraph
from .lattice import _bits, _element_key, _mask_to_set, _to_mask

__all__ = [
    "DEFAULT_MAX_VERTICES",
    "Relabeling",
    "enumerate_minimal_covers",
    "is_unmixed",
    "perfect_matching",
    "relabel",
    "x_parts",
    "hall_condition_holds",
    "format_covers",
]

DEFAULT_MAX_VERTICES = 24

Cover = frozenset[int]


def enumerate_minimal_covers(
    g: Graph, max_vertices: int = DEFAULT_MAX_VERTICES
) -> tuple[Cover, ...]:
    """All minimal vertex covers of g, deterministically ordered.

    Enumerates maximal independent sets (maximal cliques of the complement,
    Bron-Kerbosch with a Tomita pivot) and complements them. Exponential in
    the worst case, hence the vertex cap.
    """
    v = g.vertex_count
    if v > max_vertices:
        raise CoverError(
            f"{v} vertices exceeds the enumeration cap of {max_vertices}; "
            "raise max_vertices to override"
        )
    nbr = [0] * v
    for a, b in g.edges:
        nbr[a - 1] |= 1 << (b - 1)
        nbr[b - 1] |= 1 << (a - 1)
    full = (1 << v) - 1
    # non_nbr[i]: vertices that can extend an independent set containing i
    non_nbr = [full & ~nbr[i] & ~(1 << i) for i in range(v)]
    independent: list[int] = []

    def expand(chosen: int, candidates: int, excluded: int) -> None:
        if candidates == 0 and excluded == 0:
            independent.append(chosen)
            return
        pool = candidates | excluded
        pivot = max(_bits(pool), key=lambda i: (candidates & non_nbr[i]).bit_count())
        for i in list(_bits(candidates & ~non_nbr[pivot])):
            bit = 1 << i
            expand(chosen | bit, candidates & non_nbr[i], excluded & non_nbr[i])
            candidates &= ~bit
            excluded |= bit

    expand(0, full, 0)
    return tuple(sorted((_mask_to_set(full ^ s) for s in independent), key=_element_key))


def is_unmixed(covers: Sequence[Cover]) -> bool:
    """True when every minimal cover has the same cardinality."""
    if not covers:
        raise CoverError("empty cover family")
    return len({len(c) for c in covers}) == 1


def perfect_matching(g: Graph, part: Bipartition) -> dict[int, int] | None:
    """Pair side_u with side_v, or None when no perfect matching exists.

    Deterministic: side_u is processed in ascending order, neighbors are
    scanned ascending, and a free partner is taken before any augmenting
    path is tried.
    """
    if len(part.side_u) != len(part.side_v):
        return None
    adj = g.adjacency()
    order = {u: sorted(adj[u]) for u in part.side_u}
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

    def label_of(self, vertex: int) -> tuple[str, int]:
        for side, sources in (("x", self.x_source), ("y", self.y_source)):
            if vertex in sources:
                return side, sources.index(vertex) + 1
        raise KeyError(vertex)


def _validate_matching(g: Graph, part: Bipartition, matching: Mapping[int, int]) -> None:
    if set(matching) != set(part.side_u) or set(matching.values()) != set(part.side_v):
        raise CoverError("matching must pair side_u bijectively with side_v")
    for u, v in matching.items():
        key = (u, v) if u < v else (v, u)
        if key not in g.edges:
            raise CoverError(f"matched pair {u}-{v} is not an edge")


def relabel(
    g: Graph,
    part: Bipartition,
    covers: Sequence[Cover],
    matching: Mapping[int, int] | None = None,
) -> tuple[LabeledBipartiteGraph, Relabeling]:
    """Normalize an unmixed bipartite graph so that (i, i) is an edge for all i.

    side_u keeps its ascending order as x_1..x_n and the matched partner of
    the i-th x vertex becomes y_i. Any perfect matching is a valid choice;
    pass one explicitly to override the deterministic default.
    """
    if not is_unmixed(covers):
        sizes = sorted({len(c) for c in covers})
        raise CoverError(f"graph is not unmixed: cover sizes {sizes}")
    if len(part.side_u) != len(part.side_v):
        raise CoverError("sides differ in size, so they cannot both be minimal covers")
    family = set(covers)
    if frozenset(part.side_u) not in family or frozenset(part.side_v) not in family:
        raise CoverError("each side must itself be one of the minimal covers")
    if matching is None:
        matching = perfect_matching(g, part)
        if matching is None:
            raise CoverError(
                "inconsistent input: no perfect matching exists, "
                "which cannot happen for an unmixed bipartite graph"
            )
    else:
        _validate_matching(g, part, matching)
    xs = sorted(part.side_u)
    x_index = {v: i for i, v in enumerate(xs, start=1)}
    y_index = {matching[v]: i for i, v in enumerate(xs, start=1)}
    edges: set[tuple[int, int]] = set()
    for a, b in g.edges:
        if a in x_index:
            u, w = a, b
        elif b in x_index:
            u, w = b, a
        else:
            raise CoverError(f"edge {a}-{b} misses side_u; partition does not 2-color it")
        if w not in y_index:
            raise CoverError(f"edge {u}-{w} does not cross the bipartition")
        edges.add((x_index[u], y_index[w]))
    labeled = LabeledBipartiteGraph(len(xs), frozenset(edges))
    relabeling = Relabeling(tuple(xs), tuple(matching[v] for v in xs))
    return labeled, relabeling


def _x_masks(n: int, covers: Sequence[Cover]) -> list[int]:
    """x_parts as masks, with its checks: bit i - 1 stands for x_i."""
    full = (1 << n) - 1
    parts = []
    for cover in covers:
        if len(cover) != n:
            raise CoverError(
                f"cover {sorted(cover)} has size {len(cover)}, expected {n}: "
                "graph is not unmixed-labeled"
            )
        mask = _to_mask(cover)
        x, y = mask & full, mask >> n
        if x ^ y != full:
            bad = full & ~(x ^ y)
            i = (bad & -bad).bit_length()
            state = "both present" if x >> (i - 1) & 1 else "both absent"
            raise CoverError(
                f"complementarity violated at pair {i} in cover {sorted(cover)} ({state})"
            )
        parts.append(x)
    return parts


def x_parts(
    lg: LabeledBipartiteGraph, covers: Sequence[Cover]
) -> tuple[frozenset[int], ...]:
    """Project each minimal cover of the labeled graph onto its x side.

    covers must be the minimal covers of ``as_graph(lg)`` (x_i is vertex i,
    y_j is vertex n+j). Each cover must pick exactly one of x_i, y_i per
    pair; a violation means lg was not an unmixed labeling and is an error.
    """
    return tuple(map(_mask_to_set, _x_masks(lg.n, covers)))


def hall_condition_holds(lg: LabeledBipartiteGraph) -> bool:
    """Exhaustively check |U'| <= |N(U')| over all subsets of the x side."""
    n = lg.n
    nbr = [0] * (n + 1)
    for i, j in lg.edges:
        nbr[i] |= 1 << (j - 1)
    for mask in range(1, 1 << n):
        neighbors = 0
        for i in _bits(mask):
            neighbors |= nbr[i + 1]
        if neighbors.bit_count() < mask.bit_count():
            return False
    return True


def format_covers(covers: Sequence[Cover]) -> str:
    """One cover per line as sorted vertex indices."""
    return "\n".join(" ".join(map(str, sorted(c))) for c in covers) + "\n"
