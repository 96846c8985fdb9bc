"""Brute-force reference implementations the fast paths are checked against.

Everything here trades efficiency for obviousness and shares no code with
the package internals: covers come from filtering every vertex subset, rank
comes from cofactor-expansion minors, odd cycles come from adjacency-matrix
powers, chain length comes from dynamic programming over the full subset
order, the sublattice a family generates comes from adding pairwise
unions and intersections until nothing changes, the preorder of a lattice
comes from intersecting the members that contain each point, Hasse
diagrams come from testing every triple of elements, cover matrix rows come
from the enumerated covers, and the Hilbert function of the cover semigroup
ring comes from collecting every distinct sum of t rows.
"""

from __future__ import annotations

import itertools

from coverlattice import Graph, graph_from_edges


def brute_force_minimal_covers(g: Graph) -> tuple[frozenset[int], ...]:
    """Filter all 2^V subsets for the cover property, then drop non-minimal ones."""
    v = g.vertex_count
    nbr = [0] * v
    for a, b in g.edges:
        nbr[a - 1] |= 1 << (b - 1)
        nbr[b - 1] |= 1 << (a - 1)
    full = (1 << v) - 1
    covers = []
    for mask in range(full + 1):
        outside = full ^ mask
        rest = outside
        is_cover = True
        while rest:
            low = rest & -rest
            if nbr[low.bit_length() - 1] & outside:
                is_cover = False
                break
            rest ^= low
        if is_cover:
            covers.append(mask)
    covers.sort(key=lambda m: m.bit_count())
    minimal: list[int] = []
    for c in covers:
        if not any(m & c == m for m in minimal):
            minimal.append(c)
    out = [frozenset(i + 1 for i in range(v) if c >> i & 1) for c in minimal]
    out.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return tuple(out)


def _det(matrix, rows: tuple[int, ...], cols: tuple[int, ...]) -> int:
    """Determinant of the given submatrix by cofactor expansion on the first row."""
    if len(rows) == 1:
        return matrix[rows[0]][cols[0]]
    r0, rest = rows[0], rows[1:]
    total = 0
    sign = 1
    for idx, c in enumerate(cols):
        entry = matrix[r0][c]
        if entry:
            total += sign * entry * _det(matrix, rest, cols[:idx] + cols[idx + 1 :])
        sign = -sign
    return total


def rank_by_minors(matrix, p: int | None = None) -> int:
    """Largest k such that some k x k minor has nonzero determinant.

    With a prime p, the rank over the field with p elements: a minor counts
    when its determinant is not divisible by p.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    for k in range(min(m, n), 0, -1):
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                det = _det(matrix, rows, cols)
                if (det % p if p else det) != 0:
                    return k
    return 0


def has_odd_closed_walk(g: Graph) -> bool:
    """Some odd-length closed walk exists (equivalently, an odd cycle).

    Checks the diagonal of adjacency-matrix powers A^k for odd k up to |V|;
    an odd cycle fits in |V| steps and any odd closed walk contains one.
    """
    v = g.vertex_count
    adj = [[0] * v for _ in range(v)]
    for a, b in g.edges:
        adj[a - 1][b - 1] = 1
        adj[b - 1][a - 1] = 1
    power = [row[:] for row in adj]
    for k in range(1, v + 1):
        if k % 2 == 1 and any(power[i][i] for i in range(v)):
            return True
        power = [
            [sum(power[i][t] * adj[t][j] for t in range(v)) for j in range(v)]
            for i in range(v)
        ]
    return False


def longest_chain_cardinality(elements) -> int:
    """Longest subset-chain among the given sets, by DP over the full subset order."""
    elems = sorted((frozenset(e) for e in elements), key=lambda e: (len(e), tuple(sorted(e))))
    best: list[int] = []
    for i, e in enumerate(elems):
        below = [best[j] for j in range(i) if elems[j] < e]
        best.append(1 + (max(below) if below else 0))
    return max(best) if best else 0


def brute_force_hasse(elements) -> list[tuple[frozenset[int], frozenset[int]]]:
    """Pairs (A, B) with A strictly below B and no element strictly between, sorted."""
    nodes = [frozenset(e) for e in elements]
    edges = [
        (a, b)
        for a in nodes
        for b in nodes
        if a < b and not any(a < c < b for c in nodes)
    ]

    def key(e):
        return (len(e), tuple(sorted(e)))

    edges.sort(key=lambda ab: (key(ab[0]), key(ab[1])))
    return edges


def hilbert_function(rows, max_degree: int) -> list[int]:
    """Number of distinct sums of exactly t rows (repetition allowed), t = 1..max_degree.

    The rows generate a semigroup; its degree-t part is the set of these sums,
    so this is the Hilbert function of the semigroup ring.
    """
    counts = []
    current = {tuple(0 for _ in rows[0])}
    for _ in range(max_degree):
        current = {tuple(a + b for a, b in zip(s, r)) for s in current for r in rows}
        counts.append(len(current))
    return counts


def preorder_by_intersection(elements, n: int) -> list[frozenset[int]]:
    """Entry j - 1: the intersection of the members that contain j (the points at or below j)."""
    return [
        frozenset.intersection(*(frozenset(e) for e in elements if j in e))
        for j in range(1, n + 1)
    ]


def cover_rows(covers, n: int) -> list[tuple[int, ...]]:
    """The 0/1 row of each cover of a labeled graph on 2n vertices, in the given order.

    Coordinate v - 1 is vertex v: x_i is vertex i and y_i is vertex n + i.
    """
    return [tuple(int(v in cover) for v in range(1, 2 * n + 1)) for cover in covers]


def brute_force_closure(family, n: int) -> frozenset[frozenset[int]]:
    """Add both bounds, then pairwise unions and intersections until nothing changes."""
    closed = {frozenset(e) for e in family} | {frozenset(), frozenset(range(1, n + 1))}
    while True:
        grown = closed | {a | b for a in closed for b in closed} | {
            a & b for a in closed for b in closed
        }
        if grown == closed:
            return frozenset(closed)
        closed = grown


def random_graph(rng, max_vertices: int = 14) -> Graph:
    """A random valid graph: endpoints relabeled compactly so nothing is isolated."""
    v = rng.randint(2, max_vertices)
    possible = list(itertools.combinations(range(1, v + 1), 2))
    edges = rng.sample(possible, rng.randint(1, len(possible)))
    used = sorted({w for e in edges for w in e})
    compact = {w: i for i, w in enumerate(used, start=1)}
    return graph_from_edges([(compact[a], compact[b]) for a, b in edges])
