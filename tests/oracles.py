"""Brute-force reference implementations the fast paths are checked against.

Everything here trades efficiency for obviousness and shares no code with
the package internals: covers come from filtering every vertex subset and
unmixedness from their sizes, rank comes from cofactor-expansion minors
and, over GF(p), also from plain elimination mod p, Hall's condition comes
from listing every subset of the x side, odd cycles come from
adjacency-matrix powers, chain length and multichain counts come from
dynamic programming over the full subset order, the sublattice a family
generates comes from adding pairwise unions and intersections until nothing
changes, the preorder of a lattice comes from intersecting the members that
contain each point, the down-sets of a relation come from closing the
empty set under union with each pred[j], the lattice file comes from
sorting those down-sets by (size, sorted members) and joining each one's
members bit by bit, Hasse diagrams come from testing every triple of
elements and their Graphviz text from those pairs with its own set
formatting, cover matrix rows come
from the enumerated covers, and the Hilbert function of the cover semigroup
ring comes from collecting every distinct sum of t rows. Two oracles are
built on the package. dimension_report_by_listing takes the Gram matrix
from the columns of every listed element and its two exact ranks through
the package's rank_exact, and the ranks over GF(2) and GF(3) from rank_mod
on every listed row: the package counts the Gram entries from the
preorder, takes one elimination for both exact ranks, and reads the GF(p)
ranks off the preorder. analyze_graph_by_covers redoes analyze_graph from
one call of the package's search kernel, covers._bron_kerbosch, on the
whole vertex set of its own neighbour masks, made from the edge list, with
no split into connected components; it labels the graph from its edge list
rather than from the package's neighbour masks, and takes the report by
listing. The package reads unmixed bipartite graphs off their edges, and
every listing or count of covers it makes runs the search once per
component.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import isqrt

from coverlattice import (
    DEFAULT_MAX_VERTICES,
    CoverError,
    CoverLattice,
    DimensionReport,
    Graph,
    GraphAnalysis,
    LabeledBipartiteGraph,
    Relabeling,
    bipartition,
    graph_from_edges,
    perfect_matching,
    rank_exact,
)
from coverlattice.covers import _bron_kerbosch, _check_cap


def _neighbour_masks(g: Graph) -> list[int]:
    """nbr[v - 1], the mask of v's neighbours, from the edge list."""
    nbr = [0] * g.vertex_count
    for a, b in g.edges:
        nbr[a - 1] |= 1 << (b - 1)
        nbr[b - 1] |= 1 << (a - 1)
    return nbr


def brute_force_minimal_covers(g: Graph) -> tuple[frozenset[int], ...]:
    """Filter all 2^V subsets for the cover property, then drop non-minimal ones."""
    v = g.vertex_count
    nbr = _neighbour_masks(g)
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


def is_unmixed(covers) -> bool:
    """True when every minimal cover has the same cardinality."""
    if not covers:
        raise CoverError("empty cover family")
    return len({len(c) for c in covers}) == 1


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


def rank_mod(rows, p: int) -> int:
    """Rank over the field with p elements (p prime), by row elimination.

    Eliminates on the transpose, which has the same rank: a cover matrix has
    2n columns and one row per cover, so the transpose has few long rows.
    """
    if p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        raise ValueError("p must be a prime >= 2")
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    m = [[int(e) % p for e in col] for col in zip(*rows)]
    pivots = 0
    for i, row in enumerate(m):
        col = next((c for c, e in enumerate(row) if e), None)
        if col is None:
            continue
        pivots += 1
        inv = pow(row[col], -1, p)
        for r in range(i + 1, len(m)):
            f = m[r][col] * inv % p
            if f:
                m[r] = [(a - f * b) % p for a, b in zip(m[r], row)]
    return pivots


def hall_condition_holds(lg: LabeledBipartiteGraph) -> bool:
    """|U'| <= |N(U')| for every nonempty subset U' of the x side, each listed."""
    for size in range(1, lg.n + 1):
        for subset in itertools.combinations(range(1, lg.n + 1), size):
            if len({j for i, j in lg.edges if i in subset}) < size:
                return False
    return True


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


def dot_text_by_triples(elements) -> str:
    """Graphviz text of the Hasse diagram from brute_force_hasse, nodes in (size, members) order."""

    def name(e):
        return '"{' + ",".join(str(i) for i in sorted(e)) + '}"'

    nodes = sorted((frozenset(e) for e in elements), key=lambda e: (len(e), sorted(e)))
    lines = ["digraph hasse {", "  rankdir=BT;"]
    lines += ["  %s;" % name(e) for e in nodes]
    lines += ["  %s -> %s;" % (name(a), name(b)) for a, b in brute_force_hasse(nodes)]
    return "\n".join(lines + ["}", ""])


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


def multichain_counts_by_subset_order(elements, max_length: int) -> list[int]:
    """Number of multichains A_1 <= ... <= A_t of the elements, t = 1..max_length.

    Dynamic programming over the subset order of all pairs of elements: the
    multichains of length t + 1 that end at B extend those of length t that
    end at some A <= B.
    """
    elements = [frozenset(e) for e in elements]
    below = [[i for i, a in enumerate(elements) if a <= b] for b in elements]
    ending = [1] * len(elements)
    counts = []
    for _ in range(max_length):
        counts.append(sum(ending))
        ending = [sum(ending[i] for i in idx) for idx in below]
    return counts


def preorder_by_intersection(elements, n: int) -> list[frozenset[int]]:
    """Entry j - 1: the intersection of the members that contain j (the points at or below j)."""
    return [
        frozenset.intersection(*(frozenset(e) for e in elements if j in e))
        for j in range(1, n + 1)
    ]


def downsets_by_unions(pred, limit: int) -> set[int] | None:
    """The empty set and every union of the pred[j]; None past limit of them.

    For a preorder these are its down-sets; for any relation, the sets its
    rows generate under union.
    """
    found = {0}
    for p in set(pred):
        found |= {d | p for d in found}
        if len(found) > limit:
            return None
    return found


def format_lattice_by_bits(lat: CoverLattice) -> str:
    """The lattice file of lat: its down-sets by (size, sorted members), one per line."""
    members = [
        [i + 1 for i in range(lat.n) if m >> i & 1] for m in downsets_by_unions(lat.pred, 1 << lat.n)
    ]
    members.sort(key=lambda e: (len(e), e))
    lines = [",".join(str(i) for i in e) if e else "{}" for e in members]
    return "\n".join([f"n={lat.n}", *lines]) + "\n"


def cover_rows(covers, n: int) -> list[tuple[int, ...]]:
    """The 0/1 row of each cover of a labeled graph on 2n vertices, in the given order.

    Coordinate v - 1 is vertex v: x_i is vertex i and y_i is vertex n + i.
    """
    return [tuple(int(v in cover) for v in range(1, 2 * n + 1)) for cover in covers]


def cover_columns(elements, n: int) -> list[int]:
    """The n + 1 columns of [X | 1] as bitmasks, bit r for the r-th element.

    Column x_i holds the elements containing i and the last column holds
    every element: one bit per element, so the columns are |L| bits long.
    """
    x_columns = [sum(1 << r for r, e in enumerate(elements) if i in e) for i in range(1, n + 1)]
    return x_columns + [(1 << len(elements)) - 1]


def dimension_report_by_listing(lat: CoverLattice) -> DimensionReport:
    """dimension_report from every element of the lattice, with no identity checked.

    The Gram matrix of the listed columns of [X | 1] gives rank_full, and
    its leading n x n block, X^T X, gives rank_truncated, each by its own
    rank_exact call; the ranks over GF(2) and GF(3) come from rank_mod on
    the rows (chi_A, 1) of every element A. The lattice rank is the number
    of distinct preorder entries, each the intersection of the elements
    holding a point.
    """
    n, elements = lat.n, lat.elements
    columns = cover_columns(elements, n)
    gram = [[(a & b).bit_count() for b in columns] for a in columns]
    rank_full = rank_exact(gram)
    rank_truncated = rank_exact([row[:n] for row in gram[:n]])
    lattice_rank = len(set(preorder_by_intersection(elements, n)))
    rows = [[int(i in e) for i in range(1, n + 1)] + [1] for e in elements]
    return DimensionReport(
        n=n,
        cover_count=len(elements),
        rank_full=rank_full,
        rank_truncated=rank_truncated,
        lattice_rank=lattice_rank,
        dimension=rank_full,
        dim_matches_lattice_rank=rank_full == lattice_rank + 1,
        cohen_macaulay=lattice_rank == n,
        rank_full_mod2=rank_mod(rows, 2),
        rank_full_mod3=rank_mod(rows, 3),
    )


def lattice_covers(elements, n: int) -> set[frozenset[int]]:
    """C_A = A + {n + j : j not in A} for each element A: the minimal covers of its graph.

    x_i is vertex i and y_j is vertex n + j, as in cover_rows.
    """
    return {frozenset(a) | {n + j for j in range(1, n + 1) if j not in a} for a in elements}


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


def disjoint_union(graphs) -> Graph:
    """The graphs side by side, each one's vertices shifted past the previous ones."""
    edges, offset = [], 0
    for g in graphs:
        edges += [(a + offset, b + offset) for a, b in g.edges]
        offset += g.vertex_count
    return graph_from_edges(edges)


def analyze_graph_by_covers(g: Graph, max_vertices: int = DEFAULT_MAX_VERTICES) -> GraphAnalysis:
    """analyze_graph from the minimal covers of every graph, never from the edge preorder.

    The covers come from one Bron-Kerbosch search of the whole vertex set,
    never split by component. The (size, count) histogram counts them, unmixedness
    comes from the cover sizes, and on an unmixed bipartite graph the
    lattice is the family of the covers' x-parts under the relabeling,
    validated by the public CoverLattice constructor, and its report is
    dimension_report_by_listing's. The relabeling is
    redone here from the edge list by dict lookups: side_u ascending is
    x_1..x_n, and y_i is x_i's partner in the matching.
    """
    _check_cap(g, max_vertices)
    nbr = _neighbour_masks(g)
    full = (1 << len(nbr)) - 1
    non_nbr = [full & ~m & ~(1 << i) for i, m in enumerate(nbr)]
    covers = [
        frozenset(i + 1 for i in range(len(nbr)) if (full ^ s) >> i & 1)
        for s in _bron_kerbosch(non_nbr, full)
    ]
    counts = tuple(sorted(Counter(len(c) for c in covers).items()))
    part = bipartition(g)
    unmixed = is_unmixed(covers)
    if part is None or not unmixed:
        return GraphAnalysis(g, part, counts, unmixed)
    matching = perfect_matching(g, part)
    xs = sorted(part.side_u)
    x_label = {v: i for i, v in enumerate(xs, start=1)}
    y_label = {matching[v]: i for i, v in enumerate(xs, start=1)}
    edges = {
        (x_label[a], y_label[b]) if a in x_label else (x_label[b], y_label[a])
        for a, b in g.edges
    }
    labeled = LabeledBipartiteGraph(len(xs), frozenset(edges))
    relabeling = Relabeling(tuple(xs), tuple(matching[v] for v in xs))
    parts = [{i for i, v in enumerate(relabeling.x_source, start=1) if v in c} for c in covers]
    lat = CoverLattice(labeled.n, parts)
    report = dimension_report_by_listing(lat)
    return GraphAnalysis(g, part, counts, unmixed, labeled, relabeling, lat, report)
