"""The cover matrix of a lattice, exact integer rank, and the dimension checks.

Each minimal cover of an unmixed labeled graph is the 0/1 row (chi_A,
1 - chi_A) of length 2n (x coordinates first, then y) for its x-part A, one
row per element of the cover lattice L, the down-sets of the preorder pred.
The dimension of the semigroup generated by the cover monomials equals the
rank of that cover matrix M over the rationals. Adding each x column of M
to its y column is a unimodular column operation over the integers
(determinant 1), and it turns M into [X | 1 ... 1] with n equal all-ones
columns; so M has the rank of the n + 1 columns [X | 1] over the rationals
and over every GF(p). The report reads only n and pred, and it lists no
element of L.

The exact ranks come from the (n + 1) x (n + 1) Gram matrix
G = [X | 1]^T [X | 1], whose entry (a, b) counts the elements holding both
coordinates a and b. An element holds i and j iff it holds the down-set
pred[i] | pred[j], so G[x_i, x_j] = c_ij, the number of down-sets of the
preorder restricted to the points outside pred[i] | pred[j];
G[x_i, 1] = c_ii, and G[1, 1] = |L|, the cover count. One memo,
lattice._downset_counter, serves all (n + 1)(n + 2) / 2 counts, with at
most 2^n states whatever |L| is. For a rational vector v,
v^T G v = |[X | 1] v|^2 vanishes only when [X | 1] v does, so G has the rank
of [X | 1], and G is positive semidefinite. One symmetric fraction-free
pass over the upper triangle of G, _psd_pivots, gives both ranks and
certifies that: its diagonal pivots among the first k indices number
rank G[:k, :k], the rank of the first k columns of [X | 1], so those among
the first n number rank X = rank_truncated, and the final count is
rank_full. It updates only the entries on and above the diagonal and
searches or swaps no row, about half the work of the general Bareiss pass,
_pivot_columns, which rank_exact keeps for any matrix. The listing oracle
in the tests ranks through rank_exact, so it shares no elimination with
this route. Both ranks are tied to the lattice rank, and any failure of
the identities between those quantities, or of the certificate, raises an
InconsistencyError carrying the full instance.

The ranks over GF(2) and GF(3) need no elimination of their own: they are
v + 1 for the v classes of the preorder (each the points sharing one pred
entry), and v is the lattice rank. Every down-set is a union of classes,
so [X | 1] has at most v + 1 distinct columns. Its rows (chi_A, 1) for A
the empty set and each distinct pred[k], restricted to the 1 and one point
per class with the classes in a linear extension, are unitriangular, so
they have rank v + 1 over every field. The tests take both ranks by
elimination mod p over every listed row.

The semigroup ring is the Hibi ring of the cover lattice L (Hibi 1987;
Herzog-Hibi-Ohsugi, arXiv:0811.0747): its degree-t monomials correspond to
the multichains A_1 <= ... <= A_t of L, so multichain_counts is its Hilbert
function, and the degree of that polynomial is the lattice rank exactly.
Each level of the count is a zeta transform over L along its cover
relation, lattice._cover_steps, summed over the preorder's classes, its
join-irreducibles (Bjorklund, Husfeldt, Kaski, Koivisto, Nederlof and
Parviainen, "Fast zeta transforms for lattices with few irreducibles",
ACM Trans. Algorithms 12(1), 2016).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .exceptions import InconsistencyError
from .graphs import _members
from .lattice import CoverLattice, _cover_steps, _downset_counter, graph_from_lattice, rank

__all__ = [
    "DimensionReport",
    "rank_exact",
    "dimension_report",
    "multichain_counts",
    "format_report",
]


def _pivot_columns(rows: Sequence[Sequence[int]]) -> list[int]:
    """The pivot columns, ascending, of fraction-free (Bareiss) integer elimination.

    Columns are taken left to right, so the pivots among the first k columns
    number the rank of those k columns over the rationals. Entries stay
    integers throughout: each interior division is exact by the Sylvester
    determinant identity, and that exactness is asserted, so the result
    involves no floating point and no rounding anywhere.
    """
    m = [list(map(int, r)) for r in rows]
    if not m:
        return []
    width = len(m[0])
    if any(len(r) != width for r in m):
        raise ValueError("ragged matrix")
    pivots: list[int] = []
    prev = 1
    for col in range(width):
        k = len(pivots)
        piv = next((r for r in range(k, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[k], m[piv] = m[piv], m[k]
        lead = m[k][col]
        pivot_row = m[k]
        for r in range(k + 1, len(m)):
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
        pivots.append(col)
        if len(pivots) == len(m):
            break
    return pivots


def rank_exact(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals by fraction-free (Bareiss) integer elimination."""
    return len(_pivot_columns(rows))


def _psd_pivots(upper: Sequence[Sequence[int]]) -> list[int]:
    """The pivots, ascending, of symmetric fraction-free elimination of a Gram matrix.

    upper[r] holds the entries (r, c), c >= r, of a symmetric integer matrix
    G, and only those are read and updated. Pivots are the diagonal entries,
    taken left to right, with Bareiss's exact division by the previous pivot
    (asserted): after the pivots P, entry (i, j) is the minor of G on rows
    P + i and columns P + j. If G is positive semidefinite, so is each
    remainder after a pivot, so every diagonal is >= 0 and a zero one has an
    all-zero row, which stays zero and is skipped. Index k is then a pivot
    iff its diagonal is > 0, and the pivots among the first k indices number
    rank G[:k, :k]. A negative diagonal, or a zero one with a nonzero entry
    left in its row, proves G is not positive semidefinite, so not a Gram
    matrix; that and an inexact division raise ArithmeticError.
    """
    m = [list(row) for row in upper]
    pivots: list[int] = []
    prev = 1
    for k, pivot_row in enumerate(m):
        lead = pivot_row[0]
        if lead <= 0:
            if lead or any(pivot_row):
                raise ArithmeticError(
                    f"not positive semidefinite: diagonal {k} is {lead} after elimination, "
                    f"its row {pivot_row}"
                )
            continue
        for d in range(1, len(pivot_row)):  # row k + d holds columns k + d onwards
            row, factor = m[k + d], pivot_row[d]
            for c in range(len(row)):
                quot, rem = divmod(row[c] * lead - factor * pivot_row[d + c], prev)
                if rem:
                    raise ArithmeticError("fraction-free elimination lost exactness (bug)")
                row[c] = quot
        prev = lead
        pivots.append(k)
    return pivots


@dataclass(frozen=True)
class DimensionReport:
    """Every rank and dimension quantity of one instance, cross-checked.

    rank_full_mod2 and rank_full_mod3 are the ranks of the cover matrix over
    GF(2) and GF(3), lattice_rank + 1 by the module's argument.
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
        """Every field, in declaration order: a shallow dict of the flat values."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


def _report_alarm(lat: CoverLattice, problems: Sequence[str], **found) -> InconsistencyError:
    """The dimension_report stage's alarm: the problems, the whole instance and what was found."""
    return InconsistencyError(
        "; ".join(problems),
        details={
            "n": lat.n,
            "edges": sorted(graph_from_lattice(lat).edges),
            "lattice": list(map(_members, lat.masks)),
            **found,
            "stage": "dimension_report",
        },
    )


def dimension_report(lat: CoverLattice) -> DimensionReport:
    """Compute the report and verify the identities tying its fields together.

    Required on every valid instance: the Gram matrix is positive
    semidefinite, rank_full = rank_truncated + 1 and rank_truncated = lattice
    rank, so the dimension, rank_full, is lattice rank + 1. Any violation
    raises InconsistencyError with the whole instance attached; on genuine
    inputs that never happens, so a raise is a bug alarm worth keeping loud.
    """
    # entry (a, b) of G = [X | 1]^T [X | 1] counts the elements holding both
    # coordinates: the down-sets holding pred[i] | pred[j] for x_i and x_j,
    # those holding pred[i] for x_i and 1, and all of L for 1 and 1; G is
    # symmetric, so only its upper triangle is counted
    n, pred = lat.n, lat.pred
    count, full, need = _downset_counter(pred), (1 << n) - 1, [*pred, 0]
    upper = [[count(full & ~(p | q)) for q in need[a:]] for a, p in enumerate(need)]
    try:
        pivots = _psd_pivots(upper)
    except ArithmeticError as err:
        gram = [[upper[min(a, b)][abs(a - b)] for b in range(n + 1)] for a in range(n + 1)]
        raise _report_alarm(lat, [str(err)], gram=gram) from None
    # the first n columns of G are [X | 1]^T X, whose null space is X's, so
    # the pivots among them number rank(X) = rank_truncated
    rank_full = len(pivots)
    rank_trunc = sum(col < n for col in pivots)
    lattice_rank = rank(lat)
    dimension = rank_full
    cm = lattice_rank == lat.n
    problems = []
    if rank_full != rank_trunc + 1:
        problems.append(f"rank_full={rank_full} is not rank_truncated+1={rank_trunc + 1}")
    if rank_trunc != lattice_rank:
        problems.append(f"rank_truncated={rank_trunc} differs from lattice_rank={lattice_rank}")
    if problems:
        raise _report_alarm(
            lat,
            problems,
            rank_full=rank_full,
            rank_truncated=rank_trunc,
            lattice_rank=lattice_rank,
        )
    return DimensionReport(
        n=lat.n,
        cover_count=upper[n][0],
        rank_full=rank_full,
        rank_truncated=rank_trunc,
        lattice_rank=lattice_rank,
        dimension=dimension,
        dim_matches_lattice_rank=dimension == lattice_rank + 1,
        cohen_macaulay=cm,
        rank_full_mod2=lattice_rank + 1,
        rank_full_mod3=lattice_rank + 1,
    )


def multichain_counts(lat: CoverLattice, max_length: int) -> list[int]:
    """Number of multichains A_1 <= ... <= A_t of lattice elements, t = 1..max_length.

    The multichains of length t + 1 that end at B extend those of length t
    that end at some A <= B, so each level is the zeta transform
    g(B) = sum of f(A) over the elements A <= B of the level before. The
    transform runs over the preorder's classes, the join-irreducibles of L,
    in O(v |L|) for v classes (Bjorklund et al., TALG 2016): for each class c
    in turn, it adds g(B - c) into g(B) for every B covering B - c, the pairs
    of _cover_steps. The classes must be taken in a linear extension, as
    _cover_steps gives them; in another order an element below a class not
    yet taken is missed.
    """
    steps = _cover_steps(lat)
    ending = [1] * len(lat.masks)
    counts = []
    for _ in range(max_length):
        counts.append(sum(ending))
        for k, a in steps:
            ending[k] += ending[a]
    return counts


def _key_values(record: dict, rename: dict[str, str], sep: str) -> str:
    """The record's key=value tokens joined by sep: the one writer of key=value text.

    A key is written as rename gives it, a flag as yes or no, and a None
    value is left out.
    """
    return sep.join(
        f"{rename.get(k, k)}={('yes' if v else 'no') if isinstance(v, bool) else v}"
        for k, v in record.items()
        if v is not None
    )


def format_report(report: DimensionReport) -> str:
    """Flat key=value block, one field per line, cover_count written as covers."""
    return _key_values(report.as_dict(), {"cover_count": "covers"}, "\n") + "\n"
