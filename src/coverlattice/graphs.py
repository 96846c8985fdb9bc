"""Simple graphs, bipartitions, diagonal-labeled bipartite graphs, and the bitmask format.

Vertices are 1-based everywhere, matching the file formats. All types are
immutable and every function is pure, so concurrent callers need no
synchronization. A set is held as an int mask, bit i - 1 for member i;
_bits, _to_mask and _members (the members ascending, every JSON list of a
set) serve the whole package, and _mask_to_set makes a frozenset only
where a public function returns one. Every set the package prints, in
lattice files, DOT nodes, cover lines and certificates, is written by
one single-pass writer, _set_texts. The canonical
order _canonical sorts masks that do not come from a preorder's search:
the certificate scan of a refused family, the minimal covers and the sets
in error details (a lattice's masks take the same order from
lattice._downsets). Graph._nbr, built on first read, is a graph's one
neighbour-mask list, and _components its one component walk.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

from .exceptions import GraphError

__all__ = [
    "Graph",
    "Bipartition",
    "LabeledBipartiteGraph",
    "graph_from_edges",
    "parse_graph",
    "bipartition",
    "as_graph",
    "parse_labeled",
    "serialize_labeled",
]


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _to_mask(e: Iterable[int]) -> int:
    mask = 0
    for i in e:
        mask |= 1 << (i - 1)
    return mask


def _members(mask: int) -> list[int]:
    """The members of mask, ascending: every JSON list of a set."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return out


def _mask_to_set(mask: int) -> frozenset[int]:
    # frozenset(a set) takes 64 slots at 16-18 members; from a list, 32
    return frozenset(_members(mask))


def _set_texts(masks: Iterable[int], width: int, sep: str) -> list[str]:
    """Each mask's members joined by sep, in the order given; the empty set is "".

    The one writer of every set the package prints, members of 1..width
    only. Labels are made once. In one pass, the text of a mask is the text
    of the mask less its top member, when that came earlier, then sep and
    that member's label; when it did not, the labels are joined. The table
    and the output hold the same string, one per listed mask.
    """
    labels = [str(i) for i in range(1, width + 1)]
    texts = {0: ""}
    out = []
    for m in masks:
        if not m:
            out.append("")
            continue
        top = m.bit_length() - 1
        rest = m ^ 1 << top
        head = texts.get(rest)
        if head is None:  # every line of an antichain, such as the minimal covers
            parts, left = [], m
            while left:
                low = left & -left
                parts.append(labels[low.bit_length() - 1])
                left ^= low
            text = sep.join(parts)
        else:
            text = f"{head}{sep}{labels[top]}" if rest else labels[top]
        out.append(text)
        texts[m] = text
    return out


def _canonical(masks: Iterable[int], width: int) -> list[int]:
    """By size, then the set holding the lowest differing member first: (len, sorted) order."""
    full = (1 << width) - 1  # reversed, the complement's bit string has a 0 first at that member
    return sorted(masks, key=lambda m: (m.bit_count(), f"{full ^ m:0{width}b}"[::-1]))


@dataclass(frozen=True)
class Graph:
    """Finite simple graph on vertices 1..vertex_count, no isolated vertices.

    Edges are stored normalized as (u, v) with u < v.
    """

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.vertex_count < 1:
            raise GraphError("a graph needs at least one vertex")
        if not self.edges:
            raise GraphError("a graph needs at least one edge")
        touched: set[int] = set()
        for u, v in self.edges:
            if u == v:
                raise GraphError(f"loop edge {u}-{v} is not allowed")
            if not 1 <= u < v <= self.vertex_count:
                raise GraphError(f"edge {u}-{v} is out of range or not normalized")
            touched.add(u)
            touched.add(v)
        isolated = self.vertex_count - len(touched)  # vertex_count may dwarf the input
        if isolated:
            missing = (v for v in range(1, self.vertex_count + 1) if v not in touched)
            shown = list(islice(missing, 10))
            more = f" and {isolated - 10} more" if isolated > 10 else ""
            raise GraphError(f"isolated vertices are not allowed: {shown}{more}")

    @cached_property
    def _nbr(self) -> tuple[int, ...]:
        """_nbr[v - 1]: the neighbours of vertex v as a mask, bit j - 1 for vertex j."""
        nbr = [0] * self.vertex_count
        for a, b in self.edges:
            nbr[a - 1] |= 1 << (b - 1)
            nbr[b - 1] |= 1 << (a - 1)
        return tuple(nbr)


@dataclass(frozen=True)
class Bipartition:
    """A 2-coloring of a graph: every edge crosses from side_u to side_v."""

    side_u: frozenset[int]
    side_v: frozenset[int]


@dataclass(frozen=True)
class LabeledBipartiteGraph:
    """Bipartite graph on x_1..x_n versus y_1..y_n; edge (i, j) means {x_i, y_j}.

    Every diagonal pair (i, i) must be present. That is the normal form
    produced by matching-based relabeling, and downstream cover arithmetic
    relies on it.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise GraphError("a labeled graph needs n >= 1")
        for i, j in self.edges:
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise GraphError(f"labeled edge ({i},{j}) is out of range 1..{self.n}")
        for i in range(1, self.n + 1):
            if (i, i) not in self.edges:
                raise GraphError(f"diagonal edge ({i},{i}) is missing")


def graph_from_edges(edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a validated Graph, normalizing edge orientation.

    The vertex count is the largest index mentioned; a gap below it means an
    isolated vertex and is rejected.
    """
    normalized: set[tuple[int, int]] = set()
    top = 0
    for u, v in edges:
        if u < 1 or v < 1:
            raise GraphError(f"vertex indices are 1-based, got {u}-{v}")
        if u == v:
            raise GraphError(f"loop edge {u}-{v} is not allowed")
        a, b = (u, v) if u < v else (v, u)
        normalized.add((a, b))
        top = max(top, b)
    if not normalized:
        raise GraphError("a graph needs at least one edge")
    return Graph(top, frozenset(normalized))


def _content_lines(text: str) -> Iterator[tuple[int, str, str]]:
    """(lineno, line, raw): each raw line, stripped of its '#' comment, that is not blank."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line, raw


def parse_graph(text: str) -> Graph:
    """Parse an edge-list document: one "u v" pair per line, '#' starts a comment."""
    edges: dict[tuple[int, int], int] = {}
    top = 0
    for lineno, line, raw in _content_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(f"line {lineno}: non-integer vertex in {raw!r}") from None
        if u < 1 or v < 1:
            raise GraphError(f"line {lineno}: vertex indices are 1-based")
        if u == v:
            raise GraphError(f"line {lineno}: loop edge {u}-{v}")
        key = (u, v) if u < v else (v, u)
        if key in edges:
            raise GraphError(
                f"line {lineno}: duplicate edge {u}-{v} (first seen on line {edges[key]})"
            )
        edges[key] = lineno
        top = max(top, key[1])
    if not edges:
        raise GraphError("no edges found")
    return Graph(top, frozenset(edges))


def _components(nbr: Sequence[int]) -> Iterator[list[int]]:
    """Each connected component's breadth-first layers from its lowest vertex, as masks.

    Layer k holds the vertices at distance k; components come lowest vertex first.
    """
    seen, full = 0, (1 << len(nbr)) - 1
    while seen != full:
        layers, frontier = [], ~seen & (seen + 1)  # the lowest vertex not yet seen
        while frontier:
            layers.append(frontier)
            seen |= frontier
            reach = 0
            for i in _bits(frontier):
                reach |= nbr[i]
            frontier = reach & ~seen
        yield layers


def bipartition(g: Graph) -> Bipartition | None:
    """2-color the graph if possible, None if some component has an odd cycle.

    Deterministic: every edge joins two adjacent breadth-first layers of a
    component or lies inside one (_components), and an edge inside a layer
    closes an odd cycle through the root. Without one, the even layers go
    to side_u, so each component's lowest vertex lands there.
    """
    nbr = g._nbr
    sides = [0, 0]
    for layers in _components(nbr):
        for k, layer in enumerate(layers):
            for i in _bits(layer):
                if nbr[i] & layer:
                    return None
            sides[k & 1] |= layer
    return Bipartition(*(frozenset(_members(side)) for side in sides))


def as_graph(lg: LabeledBipartiteGraph) -> Graph:
    """Flatten to a plain graph on 1..2n: x_i becomes i, y_j becomes n + j."""
    n = lg.n
    return Graph(2 * n, frozenset((i, n + j) for i, j in lg.edges))


def serialize_labeled(lg: LabeledBipartiteGraph) -> str:
    """Labeled-graph text: an "n=<n>" header, then sorted "i j" lines."""
    lines = [f"n={lg.n}"]
    lines.extend(f"{i} {j}" for i, j in sorted(lg.edges))
    return "\n".join(lines) + "\n"


def parse_labeled(text: str) -> LabeledBipartiteGraph:
    """Parse the labeled-graph format written by serialize_labeled."""
    n: int | None = None
    pairs: set[tuple[int, int]] = set()
    for lineno, line, raw in _content_lines(text):
        if n is None:
            if not line.startswith("n="):
                raise GraphError(f"line {lineno}: expected header 'n=<count>', got {raw!r}")
            try:
                n = int(line[2:])
            except ValueError:
                raise GraphError(f"line {lineno}: bad count in {raw!r}") from None
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected 'i j', got {raw!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(f"line {lineno}: non-integer index in {raw!r}") from None
        pairs.add((i, j))
    if n is None:
        raise GraphError("missing 'n=<count>' header")
    return LabeledBipartiteGraph(n, frozenset(pairs))
