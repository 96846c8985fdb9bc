"""The cover matrix of a lattice, exact integer rank, and the dimension checks.

Each minimal cover of an unmixed labeled graph is the 0/1 row (chi_A,
1 - chi_A) of length 2n (x coordinates first, then y) for its x-part A, one
row per element of the cover lattice L; so the cover matrix M is read off
L's bitmasks and never built from the covers. The dimension of the
semigroup generated by the cover monomials equals the rank of M over the
rationals. Adding each x column of M to its y column is a unimodular column
operation over the integers (determinant 1), and it turns M into
[X | 1 ... 1] with n equal all-ones columns; so M has the rank of the n + 1
columns [X | 1] over the rationals and over every GF(p). The package takes
that rank from the (n + 1) x (n + 1) Gram matrix G = [X | 1]^T [X | 1],
whose entry (a, b) counts the covers holding both coordinates a and b: for
a rational vector v, v^T G v = |[X | 1] v|^2 vanishes only when [X | 1] v
does, so G has the rank of [X | 1], and the leading n x n block of G is
X^T X, the Gram matrix of the x-side truncation. G has n + 1 rows where M
has one per cover, and the rank of M is at most n + 1. Both ranks are
computed fraction-free, tied to the lattice rank, and any failure of the
identities between those quantities raises an InconsistencyError carrying
the full instance. The Gram identity fails over a field of characteristic
p (a nonzero vector can have |Mv|^2 = 0 there), so the ranks over GF(2) and
GF(3), which on a cover matrix equal the rank over the rationals, come from
elimination on the same n + 1 columns packed as bitmasks: XORs over GF(2),
and bit-sliced (ones, twos) mask pairs over GF(3). No rank over a general
GF(p) is computed here; the tests hold that one, as the reference for the
bit elimination.

The semigroup ring is the Hibi ring of the cover lattice L (Hibi 1987;
Herzog-Hibi-Ohsugi, arXiv:0811.0747): its degree-t monomials correspond to
the multichains A_1 <= ... <= A_t of L, so multichain_counts is its Hilbert
function, and the degree of that polynomial is the lattice rank exactly.
Each level of the count is a zeta transform over L, summed over the
preorder's classes, its join-irreducibles (Bjorklund, Husfeldt, Kaski,
Koivisto, Nederlof and Parviainen, "Fast zeta transforms for lattices with
few irreducibles", ACM Trans. Algorithms 12(1), 2016).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import asdict, dataclass

from .exceptions import InconsistencyError
from .lattice import CoverLattice, graph_from_lattice, rank

__all__ = [
    "DimensionReport",
    "rank_exact",
    "dimension_report",
    "multichain_counts",
    "format_report",
]


def rank_exact(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals by fraction-free (Bareiss) integer elimination.

    Entries stay integers throughout: each interior division is exact by the
    Sylvester determinant identity, and that exactness is asserted, so the
    result involves no floating point and no rounding anywhere.
    """
    m = [list(map(int, r)) for r in rows]
    if not m:
        return 0
    width = len(m[0])
    if any(len(r) != width for r in m):
        raise ValueError("ragged matrix")
    pivots = 0
    prev = 1
    for col in range(width):
        piv = next((r for r in range(pivots, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[pivots], m[piv] = m[piv], m[pivots]
        lead = m[pivots][col]
        pivot_row = m[pivots]
        for r in range(pivots + 1, len(m)):
            row = m[r]
            factor = row[col]
            for c in range(col + 1, width):
                num = row[c] * lead - factor * pivot_row[c]
                quot, rem = divmod(num, prev)
                if rem:
                    raise ArithmeticError("fraction-free elimination lost exactness (bug)")
                row[c] = quot
            row[col] = 0
        prev = lead
        pivots += 1
        if pivots == len(m):
            break
    return pivots


def _add3(a1: int, a2: int, b1: int, b2: int) -> tuple[int, int]:
    """Entrywise sum over GF(3) of two vectors, each a (ones, twos) pair of disjoint masks."""
    t = (a1 | b2) ^ (a2 | b1)
    return (a2 | b2) ^ t, (a1 | b1) ^ t


def _rank_bits(columns: Sequence[int], p: int) -> int:
    """Rank over GF(p), p = 2 or 3, of 0/1 vectors given as bitmasks.

    Each pivot is kept under its top bit. A new vector is reduced by the
    pivots from the highest top down, which clears every pivot's top bit in
    it; what is left, if nonzero, is a new pivot. Over GF(3) a vector is a
    (ones, twos) pair and each pivot is scaled to hold 1 at its top, so a
    vector holding 1 there subtracts it (adds the swapped pair) and one
    holding 2 adds it.
    """
    pivots: dict[int, tuple[int, int]] = {}
    for ones in columns:
        twos = 0
        for top in sorted(pivots, reverse=True):
            b1, b2 = pivots[top]
            if ones >> top & 1:
                ones, twos = (ones ^ b1, 0) if p == 2 else _add3(ones, twos, b2, b1)
            elif twos >> top & 1:
                ones, twos = _add3(ones, twos, b1, b2)
        if ones | twos:
            top = (ones | twos).bit_length() - 1
            pivots[top] = (ones, twos) if ones >> top & 1 else (twos, ones)
    return len(pivots)


def _cover_columns(lat: CoverLattice) -> list[int]:
    """The n + 1 columns of [X | 1] as bitmasks, bit r for the element lat.masks[r].

    Column x_i holds the elements containing i, and the last column holds
    every element; one pass over the set bits of each element builds the x
    columns. The cover matrix [X | 1 - X] has the same rank over every field.
    """
    x_columns = [0] * lat.n
    for r, m in enumerate(lat.masks):
        bit = 1 << r
        while m:
            low = m & -m
            x_columns[low.bit_length() - 1] |= bit
            m ^= low
    return x_columns + [(1 << len(lat.masks)) - 1]


@dataclass(frozen=True)
class DimensionReport:
    """Every rank and dimension quantity of one instance, cross-checked.

    rank_full_mod2 and rank_full_mod3 are the ranks of the cover matrix over
    GF(2) and GF(3); the report checks that both equal rank_full.
    """

    n: int
    cover_count: int
    rank_full: int
    rank_truncated: int
    lattice_rank: int
    dimension: int
    dim_matches_lattice_rank: bool
    cohen_macaulay: bool
    rank_full_mod2: int
    rank_full_mod3: int

    def as_dict(self) -> dict:
        """Every field, in declaration order."""
        return asdict(self)


def dimension_report(lat: CoverLattice) -> DimensionReport:
    """Compute the report and verify the identities tying its fields together.

    Required on every valid instance:
    rank_full = rank_truncated + 1, rank_truncated = lattice rank (so the
    dimension, rank_full, is lattice rank + 1), and the ranks over GF(2) and
    GF(3) equal rank_full. Any violation raises
    InconsistencyError with the whole instance attached; on genuine inputs
    that never happens, so a raise is a bug alarm worth keeping loud.
    """
    # the rows are 0/1, so popcounts of the pairwise intersections of the
    # columns are the entries of the Gram matrix
    columns = _cover_columns(lat)
    gram = [[(a & b).bit_count() for b in columns] for a in columns]
    rank_full = rank_exact(gram)
    rank_trunc = rank_exact([row[: lat.n] for row in gram[: lat.n]])
    # rank_p(M) = rank_full for every prime p: the rows (chi_A, 1) of [X | 1]
    # span the indicators of the preorder's classes, which have disjoint
    # supports, and the all-ones row
    mod2 = _rank_bits(columns, 2)
    mod3 = _rank_bits(columns, 3)
    lattice_rank = rank(lat)
    dimension = rank_full
    cm = lattice_rank == lat.n
    problems = []
    if rank_full != rank_trunc + 1:
        problems.append(f"rank_full={rank_full} is not rank_truncated+1={rank_trunc + 1}")
    if rank_trunc != lattice_rank:
        problems.append(f"rank_truncated={rank_trunc} differs from lattice_rank={lattice_rank}")
    if mod2 != rank_full or mod3 != rank_full:
        problems.append(
            f"characteristic-p ranks {mod2} (p=2) and {mod3} (p=3) "
            f"differ from rank_full={rank_full}"
        )
    if problems:
        raise InconsistencyError(
            "; ".join(problems),
            details={
                "n": lat.n,
                "edges": sorted(graph_from_lattice(lat).edges),
                "lattice": [sorted(e) for e in lat.elements],
                "rank_full": rank_full,
                "rank_truncated": rank_trunc,
                "lattice_rank": lattice_rank,
                "rank_full_mod2": mod2,
                "rank_full_mod3": mod3,
                "stage": "dimension_report",
            },
        )
    return DimensionReport(
        n=lat.n,
        cover_count=len(lat.masks),
        rank_full=rank_full,
        rank_truncated=rank_trunc,
        lattice_rank=lattice_rank,
        dimension=dimension,
        dim_matches_lattice_rank=dimension == lattice_rank + 1,
        cohen_macaulay=cm,
        rank_full_mod2=mod2,
        rank_full_mod3=mod3,
    )


def multichain_counts(lat: CoverLattice, max_length: int) -> list[int]:
    """Number of multichains A_1 <= ... <= A_t of lattice elements, t = 1..max_length.

    The multichains of length t + 1 that end at B extend those of length t
    that end at some A <= B, so each level is the zeta transform
    g(B) = sum of f(A) over the elements A <= B of the level before. The
    transform runs over the preorder's classes, the join-irreducibles of L,
    in O(v |L|) for v classes (Bjorklund et al., TALG 2016): for each class c
    in turn, it adds g(B - c) into g(B) for every element B holding pred[c]
    with B - c in L, that is with c maximal in B. The classes must be taken
    in a linear extension of the preorder, smaller classes first, as
    increasing popcount of pred gives; in another order an element below a
    class not yet taken is missed.
    """
    index = {m: k for k, m in enumerate(lat.masks)}
    steps = []
    for p in sorted(set(lat.pred), key=int.bit_count):
        c = sum(1 << j for j, q in enumerate(lat.pred) if q == p)
        steps += [
            (k, index[b ^ c]) for k, b in enumerate(lat.masks) if b & p == p and b ^ c in index
        ]
    ending = [1] * len(lat.masks)
    counts = []
    for _ in range(max_length):
        counts.append(sum(ending))
        for k, a in steps:
            ending[k] += ending[a]
    return counts


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def format_report(report: DimensionReport) -> str:
    """Flat key=value block, one field per line."""
    lines = [
        f"n={report.n}",
        f"covers={report.cover_count}",
        f"rank_full={report.rank_full}",
        f"rank_truncated={report.rank_truncated}",
        f"lattice_rank={report.lattice_rank}",
        f"dimension={report.dimension}",
        f"dim_matches_lattice_rank={_yn(report.dim_matches_lattice_rank)}",
        f"cohen_macaulay={_yn(report.cohen_macaulay)}",
        f"rank_full_mod2={report.rank_full_mod2}",
        f"rank_full_mod3={report.rank_full_mod3}",
    ]
    return "\n".join(lines) + "\n"
