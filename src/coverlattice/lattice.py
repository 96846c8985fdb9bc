"""Bounded sublattices of the subset lattice of {1..n}, held as bitmasks.

Sets are masks in the package's one format (graphs._bits and its
siblings). By Birkhoff's theorem a bounded sublattice is the family of
down-sets of one preorder on {1..n}: pred[j], the intersection of the
members that contain j, holds the elements at or below j. CoverLattice
accepts a family only if it equals the down-sets of its own preorder, and
keeps pred; parse_lattice builds the masks as it reads and hands them to
that check through CoverLattice._from_masks, which keeps them too.
Producers that hold a preorder, such as a labeled graph's edges
(_edge_preorder), use CoverLattice._from_preorder, which tests the
relation with _is_preorder and lists no down-set: the masks are listed on
first read, and the dimension report never reads them. The rank is the
number of distinct pred[j], and the inverse graph writes pred out as edges.
"""

from __future__ import annotations

import random
from collections.abc import Collection, Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import and_, or_

from .exceptions import InconsistencyError, LatticeError
from .graphs import LabeledBipartiteGraph, _bits, _canonical, _content_lines, _mask_to_set, _to_mask

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


def _set_str(e: frozenset[int] | None) -> str:
    if e is None:
        return "?"
    return "{" + ",".join(map(str, sorted(e))) + "}"


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
        return (
            f"{_set_str(self.left)} {op} {_set_str(self.right)} "
            f"= {_set_str(self.missing)} is missing"
        )


def _preorder(masks: Collection[int], points: int) -> list[int]:
    """The intersection of the members that contain point j + 1, for each j in points."""
    pred = []
    for j in _bits(points):
        p = points
        for a in masks:
            if a >> j & 1:
                p &= a
        pred.append(p)
    return pred


def _downsets(pred: Collection[int], limit: int) -> set[int] | None:
    """The down-sets of pred: the empty set and every union of the pred[j].

    Returns None as soon as there are more than limit of them, so the work
    stays O(n * limit) however many down-sets the preorder has.
    """
    found = {0}
    for p in set(pred):
        found |= {d | p for d in found}
        if len(found) > limit:
            return None
    return found


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


def _lattice_preorder(masks: set[int], points: int) -> list[int] | None:
    """The preorder of distinct masks within points, or None unless they are its down-sets."""
    if 0 not in masks or points not in masks:  # down-sets hold both; test before n x n bits
        return None
    pred = _preorder(masks, points)
    return pred if _downsets(pred, len(masks)) == masks else None


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
        """The down-sets of pred; InconsistencyError unless pred is a preorder.

        Their own preorder is pred exactly when pred is reflexive and
        transitive, so _is_preorder, tested before any down-set is built, is
        the whole check.
        """
        if not _is_preorder(pred):
            raise InconsistencyError(
                "relation is not a preorder (reflexive and transitive)",
                details={
                    "n": n,
                    "pred": [sorted(_mask_to_set(p)) for p in pred],
                    "stage": "from_preorder",
                },
            )
        lat = object.__new__(cls)
        object.__setattr__(lat, "n", n)
        object.__setattr__(lat, "pred", tuple(pred))
        return lat

    def _hold(self, n: int, masks: set[int]) -> None:
        """Keep masks and the family's own pred, or raise LatticeError."""
        pred = _lattice_preorder(masks, (1 << n) - 1)
        if pred is None:
            cert = _certificate(masks, n)
            raise LatticeError(f"not a bounded sublattice: {cert}", certificate=cert)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "pred", tuple(pred))
        object.__setattr__(self, "masks", tuple(_canonical(masks, n)))

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """The elements as bitmasks in canonical order: the down-sets of pred."""
        return tuple(_canonical(_downsets(self.pred, 1 << self.n), self.n))

    @cached_property
    def elements(self) -> tuple[frozenset[int], ...]:
        """The elements as frozensets, in the order of masks."""
        return tuple(map(_mask_to_set, self.masks))


@dataclass(frozen=True)
class HasseDiagram:
    """Cover relation of the subset order restricted to the lattice elements."""

    nodes: tuple[frozenset[int], ...]
    edges: tuple[tuple[frozenset[int], frozenset[int]], ...]


def hasse(lat: CoverLattice) -> HasseDiagram:
    """Edges (A, B) with A strictly below B and nothing of the lattice between.

    Every element above A is a down-set holding some j outside A, so it
    contains A | pred[j], itself a down-set and hence an element. The
    elements covering A are therefore the minimal sets among those unions,
    which makes the diagram O(|L| * n^2) rather than cubic in |L|.
    """
    index = {m: k for k, m in enumerate(lat.masks)}
    edges = []
    for a, am in zip(lat.elements, lat.masks):
        above = {am | p for j, p in enumerate(lat.pred) if not am >> j & 1}
        tops = sorted(index[b] for b in above if not any(c != b and c & b == c for c in above))
        edges.extend((a, lat.elements[k]) for k in tops)  # canonical order throughout
    return HasseDiagram(lat.elements, tuple(edges))


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
        if (pred := _lattice_preorder(family, full)) is not None:
            yield CoverLattice._from_preorder(n, pred)


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

    Elements are comma-separated sorted indices; the empty set prints as {}.
    """
    lines = [f"n={lat.n}"]
    for m in lat.masks:
        lines.append(",".join(str(i + 1) for i in _bits(m)) if m else "{}")
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


def hasse_to_dot(diagram: HasseDiagram) -> str:
    """Graphviz text for the Hasse diagram, edges pointing small to large."""
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for e in diagram.nodes:
        lines.append(f'  "{_set_str(e)}";')
    for a, b in diagram.edges:
        lines.append(f'  "{_set_str(a)}" -> "{_set_str(b)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
