"""Bounded sublattices of the subset lattice of {1..n}, held as bitmasks.

Sets are masks in the package's one format (graphs._bits and its
siblings). By Birkhoff's theorem a bounded sublattice is the family of
down-sets of one preorder on {1..n}: pred[j], the intersection of the
members that contain j, holds the elements at or below j. CoverLattice
accepts a family only if it equals the down-sets of its own preorder, and
keeps pred; parse_lattice builds the masks as it reads and hands them to
that check through CoverLattice._from_masks, which keeps them too, in the
order the check listed them.

Producers that hold a preorder, such as a labeled graph's edges
(_edge_preorder), use CoverLattice._from_preorder, which tests the
relation with _is_preorder and lists no down-set, or _if_preorder, which
returns None where _from_preorder raises: the masks are listed on
first read, and the dimension report never reads them. The rank is the
number of distinct pred[j], and the inverse graph writes pred out as edges.

Every walk of the preorder lives here. _downsets lists the down-sets by
one binary search, in canonical order after a stable sort by size.
_above(pred), each point's up-set, serves that search and
_downset_counter, which counts down-sets without listing them (the
dimension report's Gram entries). _cover_steps, L's one cover relation,
serves algebra.multichain_counts in O(v |L|) for v classes, and
_hasse_pairs sorts it into index pairs for hasse and for the command
line's --dot export. That export (_dot) and format_lattice write their
sets from the masks through graphs._set_texts and build no frozenset.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Collection, Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import and_, or_

from .exceptions import InconsistencyError, LatticeError
from .graphs import (
    LabeledBipartiteGraph,
    _bits,
    _canonical,
    _content_lines,
    _mask_to_set,
    _members,
    _set_texts,
    _to_mask,
)

__all__ = [
    "CoverLattice",
    "HasseDiagram",
    "ClosureCertificate",
    "hasse",
    "rank",
    "graph_from_lattice",
    "enumerate_sublattices",
    "random_sublattice",
    "format_lattice",
    "parse_lattice",
    "hasse_to_dot",
]

MAX_LATTICE_N = 256  # parse_lattice's cap on n: the inverse graph has up to n^2 edges


@dataclass(frozen=True)
class ClosureCertificate:
    """Witness that a family is not a bounded sublattice."""

    kind: str  # "missing-bottom" | "missing-top" | "union" | "intersection"
    left: frozenset[int] | None = None
    right: frozenset[int] | None = None
    missing: frozenset[int] | None = None

    def __str__(self) -> str:
        if self.kind == "missing-bottom":
            return "the empty set is missing"
        if self.kind == "missing-top":
            return "the full set is missing"
        op = "|" if self.kind == "union" else "&"
        sets = (self.left, self.right, self.missing)
        masks = [_to_mask(e or ()) for e in sets]
        texts = _set_texts(masks, max(masks).bit_length(), ",")
        a, b, m = ("?" if e is None else f"{{{t}}}" for e, t in zip(sets, texts))
        return f"{a} {op} {b} = {m} is missing"


def _preorder(masks: Collection[int], points: int) -> list[int]:
    """pred[j]: the intersection of the members that contain point j + 1, for each j in points.

    pred is indexed by bit position and is 0 at every position outside points.
    """
    pred = [0] * points.bit_length()
    for j in _bits(points):
        p = points
        for a in masks:
            if a >> j & 1:
                p &= a
        pred[j] = p
    return pred


def _above(pred: Sequence[int]) -> list[int]:
    """above[i]: the mask of the points j with i in pred[j], the up-set of point i + 1."""
    above = [0] * len(pred)
    for j, p in enumerate(pred):
        for i in _bits(p):
            above[i] |= 1 << j
    return above


def _downsets(pred: Sequence[int], limit: int) -> list[int] | None:
    """The down-sets of the preorder pred on the union of the pred[j], each once.

    A binary search: each node branches on its lowest undecided point x. The
    branch with x takes pred[x]; the branch without x drops every point above
    x. Both end in a down-set, so the search has 2|L| - 1 nodes. Two
    down-sets agree on every point below the lowest point where they differ,
    and the one that holds that point, from the branch with it, comes first.
    Stable-sorted by size, the list is therefore in canonical order.

    pred is indexed by bit position. Returns None as soon as there are more
    than limit of them, so the work stays O(n^2 + limit) steps however many
    down-sets the preorder has. Each branch decides x, so the search ends on
    any relation, a preorder or not.
    """
    above = _above(pred)
    found: list[int] = []
    stack = [(0, reduce(or_, pred, 0))]
    while stack:
        chosen, undecided = stack.pop()
        while undecided:  # take the branch with x at once; the one without waits
            low = undecided & -undecided
            x = low.bit_length() - 1
            p = pred[x]
            stack.append((chosen, undecided & ~(above[x] | low)))
            chosen |= p
            undecided &= ~(p | low)
        found.append(chosen)
        if len(found) > limit:
            return None
    return found


def _downset_counter(pred: Sequence[int]) -> Callable[[int], int]:
    """N(S), the number of down-sets of the preorder pred restricted to the points of S.

    A down-set of S leaves out a point x of S and every point above it, or
    holds x and every point below it, so N(S) = N(S - up(x)) + N(S - pred[x])
    with N(empty) = 1. Every call shares one memo, whose states are convex
    sets, at most 2^n of them however many down-sets the preorder has.
    """
    up = _above(pred)
    memo = {0: 1}

    def count(s: int) -> int:
        if s not in memo:
            x = s.bit_length() - 1
            memo[s] = count(s & ~up[x]) + count(s & ~pred[x])
        return memo[s]

    return count


def _is_preorder(pred: list[int]) -> bool:
    """Whether pred is reflexive and transitive, in O(n^2) bit operations.

    pred[j] must hold j, and pred[i] must lie inside pred[j] for every i in pred[j].
    """
    return all(p >> j & 1 and all(pred[i] & ~p == 0 for i in _bits(p)) for j, p in enumerate(pred))


def _edge_preorder(lg: LabeledBipartiteGraph) -> list[int]:
    """pred[j - 1]: the mask of the i with x_i y_j an edge, the relation i <= j."""
    pred = [0] * lg.n
    for i, j in lg.edges:
        pred[j - 1] |= 1 << (i - 1)
    return pred


def _lattice_preorder(masks: set[int], points: int) -> tuple[list[int], list[int]] | None:
    """The preorder of distinct masks within points and its down-sets as _downsets lists them.

    None unless the masks are exactly those down-sets. Every member holds
    pred[j] for each of its points j, so it is a down-set of its own
    preorder: the masks are among the down-sets, and they are all of them
    as soon as _downsets finds no more than len(masks).
    """
    if 0 not in masks or points not in masks:  # down-sets hold both; test before n x n bits
        return None
    pred = _preorder(masks, points)
    found = _downsets(pred, len(masks))
    return None if found is None else (pred, found)


def _element_masks(elements: Iterable[Iterable[int]], n: int) -> set[int]:
    """The masks of the distinct elements; LatticeError if one is not a subset of 1..n."""
    distinct = set(map(frozenset, elements))
    outside = [sorted(e) for e in distinct if e and (min(e) < 1 or max(e) > n)]
    if outside:
        e = min(outside, key=lambda members: (len(members), members))
        raise LatticeError(f"element {e} is not a subset of 1..{n}")
    return set(map(_to_mask, distinct))


def _certificate(masks: set[int], n: int) -> ClosureCertificate:
    """Name what a family that failed the preorder test lacks.

    A violating pair is the more informative certificate, so the pairwise
    scan, in canonical order, comes before the bounds. A failed family with
    no violating pair and the empty set must lack the full set. A closed
    family has no violating pair, so it skips the quadratic scan. Every
    member holds the meet and lies in the join, and removing the meet keeps
    both operations, so the family is closed iff what is left is a bounded
    sublattice on the points of the join outside the meet: O(n |family|) steps.
    """
    meet, join = reduce(and_, masks, -1), reduce(or_, masks, 0)  # empty: no 0, fails at once
    if _lattice_preorder({m ^ meet for m in masks}, join ^ meet) is None:
        ordered = _canonical(masks, n)
        for idx, a in enumerate(ordered):
            for b in ordered[idx + 1 :]:
                for kind, m in (("union", a | b), ("intersection", a & b)):
                    if m not in masks:
                        return ClosureCertificate(kind, *map(_mask_to_set, (a, b, m)))
    if 0 not in masks:
        return ClosureCertificate("missing-bottom", missing=frozenset())
    return ClosureCertificate("missing-top", missing=frozenset(range(1, n + 1)))


@dataclass(frozen=True, init=False)
class CoverLattice:
    """A bounded sublattice of the subset lattice of {1..n}.

    Elements are deduplicated; construction fails loudly if the family is
    not closed. pred[j] is the mask of the points at or below point j + 1
    in the preorder, computed once, by the validation. The lattice is the
    down-sets of pred, so n and pred alone decide equality and the hash.
    masks, the elements as bitmasks in canonical order, is kept from a
    parsed family and otherwise listed on first read; elements, the
    frozensets of masks, is built on first read.
    """

    n: int
    pred: tuple[int, ...]

    def __init__(self, n: int, elements: Iterable[Iterable[int]]) -> None:
        if n < 1:
            raise LatticeError("need n >= 1")
        self._hold(n, _element_masks(elements, n))

    @classmethod
    def _from_masks(cls, n: int, masks: set[int]) -> CoverLattice:
        """The constructor's check on distinct masks its caller made inside 1..n."""
        lat = object.__new__(cls)
        lat._hold(n, masks)
        return lat

    @classmethod
    def _from_preorder(cls, n: int, pred: list[int]) -> CoverLattice:
        """The down-sets of pred; InconsistencyError unless pred is a preorder."""
        lat = cls._if_preorder(n, pred)
        if lat is None:
            raise InconsistencyError(
                "relation is not a preorder (reflexive and transitive)",
                details={
                    "n": n,
                    "pred": list(map(_members, pred)),
                    "stage": "from_preorder",
                },
            )
        return lat

    @classmethod
    def _if_preorder(cls, n: int, pred: list[int]) -> CoverLattice | None:
        """The down-sets of pred, or None unless pred is a preorder.

        Their own preorder is pred exactly when pred is reflexive and
        transitive, so _is_preorder, tested before any down-set is built, is
        the whole check.
        """
        if not _is_preorder(pred):
            return None
        lat = object.__new__(cls)
        object.__setattr__(lat, "n", n)
        object.__setattr__(lat, "pred", tuple(pred))
        return lat

    def _hold(self, n: int, masks: set[int]) -> None:
        """Keep the family, in canonical order, and its own pred, or raise LatticeError."""
        held = _lattice_preorder(masks, (1 << n) - 1)
        if held is None:
            cert = _certificate(masks, n)
            raise LatticeError(f"not a bounded sublattice: {cert}", certificate=cert)
        pred, found = held
        found.sort(key=int.bit_count)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "pred", tuple(pred))
        object.__setattr__(self, "masks", tuple(found))

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """The elements as bitmasks in canonical order: the down-sets of pred."""
        found = _downsets(self.pred, 1 << self.n)
        found.sort(key=int.bit_count)  # stable: by size, then in the search's order
        return tuple(found)

    @cached_property
    def elements(self) -> tuple[frozenset[int], ...]:
        """The elements as frozensets, in the order of masks."""
        return tuple(map(_mask_to_set, self.masks))


@dataclass(frozen=True)
class HasseDiagram:
    """Cover relation of the subset order restricted to the lattice elements."""

    nodes: tuple[frozenset[int], ...]
    edges: tuple[tuple[frozenset[int], frozenset[int]], ...]


def _cover_steps(lat: CoverLattice) -> list[tuple[int, int]]:
    """The pairs (B, A) of indices into lat.masks with B covering A in L.

    Elements are unions of classes (points sharing one pred entry), and B
    covers A iff B - A is one class c maximal in B: B holds pred[c] and B - c
    is in L. The pairs are grouped by class, the classes in a linear
    extension (increasing popcount of pred). The zeta transform of
    multichain_counts depends on that order; hasse sorts, so it does not.
    """
    index = {m: k for k, m in enumerate(lat.masks)}
    steps = []
    for p in sorted(set(lat.pred), key=int.bit_count):
        c = sum(1 << j for j, q in enumerate(lat.pred) if q == p)
        steps += [
            (k, index[b ^ c]) for k, b in enumerate(lat.masks) if b & p == p and b ^ c in index
        ]
    return steps


def _hasse_pairs(lat: CoverLattice) -> list[tuple[int, int]]:
    """The pairs (a, b) of indices into lat.masks with b covering a, sorted."""
    return sorted((a, b) for b, a in _cover_steps(lat))


def hasse(lat: CoverLattice) -> HasseDiagram:
    """Edges (A, B) with B covering A in L, in the canonical order of A, then of B."""
    e = lat.elements
    return HasseDiagram(e, tuple((e[a], e[b]) for a, b in _hasse_pairs(lat)))


def rank(lat: CoverLattice) -> int:
    """Longest chain cardinality minus one.

    A distributive lattice is graded, and its rank is its number of
    join-irreducibles (Birkhoff): here the distinct principal down-sets
    pred[j] of its preorder.
    """
    return len(set(lat.pred))


def graph_from_lattice(lat: CoverLattice) -> LabeledBipartiteGraph:
    """The unique labeled bipartite graph whose cover x-parts reproduce lat.

    Edge rule: (i, j) is present iff every element containing j also
    contains i, that is iff i lies in pred[j]. The edges are pred written
    out, and CoverLattice holds pred only after checking that its down-sets
    are exactly the elements, so that check certifies the returned graph:
    the cover lattice of its edges is lat.
    """
    edges = frozenset((i + 1, j + 1) for j, p in enumerate(lat.pred) for i in _bits(p))
    return LabeledBipartiteGraph(lat.n, edges)


def enumerate_sublattices(n: int) -> Iterator[CoverLattice]:
    """Every bounded sublattice of the subset lattice of {1..n}, exactly once.

    Brute-force filter over all families of the 2^n - 2 intermediate
    subsets, so feasible only for n <= 4 (16384 candidate families there).
    Deterministic order.
    """
    if not 1 <= n <= 4:
        raise LatticeError(f"exhaustive enumeration is limited to 1 <= n <= 4, got {n}")
    full = (1 << n) - 1
    middle = list(range(1, full))
    for combo in range(1 << len(middle)):
        family = {0, full, *(m for t, m in enumerate(middle) if combo >> t & 1)}
        if (held := _lattice_preorder(family, full)) is not None:
            yield CoverLattice._from_preorder(n, held[0])


def random_sublattice(n: int, generator_count: int, seed: int) -> CoverLattice:
    """Union/intersection closure of seeded random subsets plus the two bounds.

    Deterministic per (n, generator_count, seed). The closure is the set of
    down-sets of the preorder the draws induce.
    """
    if not 1 <= n <= 16:
        raise LatticeError(f"random generation is limited to 1 <= n <= 16, got {n}")
    if generator_count < 0:
        raise LatticeError("generator_count must be non-negative")
    rng = random.Random(seed)
    drawn = {0, (1 << n) - 1}
    drawn.update(rng.getrandbits(n) for _ in range(generator_count))
    return CoverLattice._from_preorder(n, _preorder(drawn, (1 << n) - 1))


def format_lattice(lat: CoverLattice) -> str:
    """Lattice file: "n=<n>" header, then one element per line.

    Elements are comma-separated sorted indices (graphs._set_texts); the
    empty set, first in canonical order, prints as {}.
    """
    lines = _set_texts(lat.masks, lat.n, ",")
    lines[0] = f"n={lat.n}\n{{}}"  # lat.masks[0] is the empty set
    return "\n".join(lines) + "\n"


def parse_lattice(text: str) -> CoverLattice:
    """Parse a lattice file and validate it.

    Raises LatticeError on malformed input; for closure failures the error
    carries the certificate.
    """
    n: int | None = None
    masks: set[int] = set()
    for lineno, line, raw in _content_lines(text):
        if n is None:
            if not line.startswith("n="):
                raise LatticeError(f"line {lineno}: expected header 'n=<count>', got {raw!r}")
            try:
                n = int(line[2:])
            except ValueError:
                raise LatticeError(f"line {lineno}: bad count in {raw!r}") from None
            if n < 1:
                raise LatticeError(f"line {lineno}: need n >= 1")
            if n > MAX_LATTICE_N:
                raise LatticeError(f"line {lineno}: n={n} exceeds the cap of {MAX_LATTICE_N}")
            continue
        if line == "{}":
            masks.add(0)
            continue
        try:
            members = [int(tok) for tok in line.split(",")]
        except ValueError:
            raise LatticeError(
                f"line {lineno}: expected comma-separated indices or {{}}, got {raw!r}"
            ) from None
        mask = 0
        for i in members:  # the first bad index in the line's order, before any shift by it
            if not 1 <= i <= n:
                raise LatticeError(f"line {lineno}: index {i} is out of range 1..{n}")
            mask |= 1 << (i - 1)
        masks.add(mask)
    if n is None:
        raise LatticeError("missing 'n=<count>' header")
    return CoverLattice._from_masks(n, masks)


def _dot(masks: Sequence[int], width: int, pairs: Iterable[tuple[int, int]]) -> str:
    """Graphviz text of a diagram: one node per mask, an edge a -> b per index pair."""
    text = [f'"{{{t}}}"' for t in _set_texts(masks, width, ",")]
    lines = ["digraph hasse {", "  rankdir=BT;", *(f"  {t};" for t in text)]
    lines += [f"  {text[a]} -> {text[b]};" for a, b in pairs]
    return "\n".join(lines) + "\n}\n"


def hasse_to_dot(diagram: HasseDiagram) -> str:
    """Graphviz text for the Hasse diagram, edges pointing small to large; one text per node."""
    masks = list(map(_to_mask, diagram.nodes))
    index = {e: k for k, e in enumerate(diagram.nodes)}
    pairs = [(index[a], index[b]) for a, b in diagram.edges]
    return _dot(masks, max(masks, default=0).bit_length(), pairs)
