"""Simple graphs, bipartitions, and diagonal-labeled bipartite graphs.

Vertices are 1-based everywhere, matching the file formats. All types are
immutable and every function is pure, so concurrent callers need no
synchronization.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass
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

    def adjacency(self) -> dict[int, frozenset[int]]:
        nbrs: dict[int, set[int]] = {v: set() for v in range(1, self.vertex_count + 1)}
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return {v: frozenset(s) for v, s in nbrs.items()}


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


def parse_graph(text: str) -> Graph:
    """Parse an edge-list document: one "u v" pair per line, '#' starts a comment."""
    edges: dict[tuple[int, int], int] = {}
    top = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
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


def bipartition(g: Graph) -> Bipartition | None:
    """2-color the graph if possible, None if some component has an odd cycle.

    Deterministic: each component is explored breadth-first from its lowest
    vertex, and that root lands on side_u.
    """
    adj = g.adjacency()
    color: dict[int, int] = {}
    for root in range(1, g.vertex_count + 1):
        if root in color:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in sorted(adj[v]):
                if w not in color:
                    color[w] = color[v] ^ 1
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    side_u = frozenset(v for v, c in color.items() if c == 0)
    side_v = frozenset(v for v, c in color.items() if c == 1)
    return Bipartition(side_u, side_v)


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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
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
