"""Brute-force reference implementations the fast paths are checked against.

Everything here trades efficiency for obviousness and shares no code with
the package internals: covers come from filtering every vertex subset, rank
comes from cofactor-expansion minors, odd cycles come from adjacency-matrix
powers, chain length comes from dynamic programming over the full subset
order, and the sublattice a family generates comes from adding pairwise
unions and intersections until nothing changes.
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


def rank_by_minors(matrix) -> int:
    """Largest k such that some k x k minor has nonzero determinant."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    for k in range(min(m, n), 0, -1):
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                if _det(matrix, rows, cols) != 0:
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
