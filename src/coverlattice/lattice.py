"""Bounded sublattices of the subset lattice of {1..n}.

The elements come from cover x-parts. By Birkhoff's theorem a bounded
sublattice is the family of down-sets of one preorder on {1..n}: pred[j],
the intersection of the members that contain j, holds the elements at or
below j. CoverLattice accepts a family only if it equals the down-sets of
its own preorder, so holding one is proof that it contains the empty and
the full set and is closed under union and intersection. The rank is the
number of distinct pred[j], and the inverse construction reads off the
preorder the unique diagonal-labeled bipartite graph whose cover
projections reproduce the family. Hasse diagrams serve DOT export only.
"""

from __future__ import annotations

import random
from collections.abc import Collection, Iterable, Iterator
from dataclasses import dataclass

from .exceptions import InconsistencyError, LatticeError
from .graphs import LabeledBipartiteGraph

__all__ = [
    "CoverLattice",
    "HasseDiagram",
    "ClosureCertificate",
    "is_sublattice",
    "lattice_from_covers",
    "hasse",
    "rank",
    "is_full",
    "graph_from_lattice",
    "enumerate_sublattices",
    "random_sublattice",
    "format_lattice",
    "parse_lattice",
    "hasse_to_dot",
]


def _element_key(e: frozenset[int]) -> tuple[int, tuple[int, ...]]:
    return (len(e), tuple(sorted(e)))


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


def _to_mask(e: Iterable[int]) -> int:
    return sum(1 << (i - 1) for i in e)


def _mask_to_set(mask: int) -> frozenset[int]:
    out = set()
    while mask:
        low = mask & -mask
        out.add(low.bit_length())
        mask ^= low
    return frozenset(out)


def _preorder(masks: Collection[int], n: int) -> list[int]:
    """pred[j]: the intersection of the members that contain element j + 1."""
    pred = []
    for j in range(n):
        p = (1 << n) - 1
        for a in masks:
            if a >> j & 1:
                p &= a
        pred.append(p)
    return pred


def _downsets(pred: list[int], limit: int) -> set[int] | None:
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


def _is_downset_family(masks: set[int], n: int) -> bool:
    """A family is a bounded sublattice iff it is the down-sets of its own preorder.

    That covers both bounds: the down-sets hold the empty and the full set.
    """
    return _downsets(_preorder(masks, n), len(masks)) == masks


def is_sublattice(
    family: Iterable[frozenset[int]], n: int
) -> tuple[bool, ClosureCertificate | None]:
    """Check boundary membership and union/intersection closure.

    Returns (True, None) or (False, certificate) where the certificate names
    the missing boundary element or a violating pair.
    """
    elems = {frozenset(e) for e in family}
    for e in elems:
        if not all(1 <= i <= n for i in e):
            raise LatticeError(f"element {sorted(e)} is not a subset of 1..{n}")
    if _is_downset_family({_to_mask(e) for e in elems}, n):
        return True, None
    return False, _certificate(elems, n)


def _certificate(elems: set[frozenset[int]], n: int) -> ClosureCertificate:
    """Name what a family that failed the preorder test lacks.

    A violating pair is the more informative certificate, so the pairwise
    scan comes before the bounds. A failed family with no violating pair
    and the empty set must lack the full set.
    """
    ordered = sorted(elems, key=_element_key)
    for idx, a in enumerate(ordered):
        for b in ordered[idx + 1 :]:
            u = a | b
            if u not in elems:
                return ClosureCertificate("union", a, b, u)
            i = a & b
            if i not in elems:
                return ClosureCertificate("intersection", a, b, i)
    if frozenset() not in elems:
        return ClosureCertificate("missing-bottom", missing=frozenset())
    return ClosureCertificate("missing-top", missing=frozenset(range(1, n + 1)))


@dataclass(frozen=True)
class CoverLattice:
    """A bounded sublattice of the subset lattice of {1..n}.

    Elements are deduplicated and canonically ordered by (size, sorted
    members); construction fails loudly if the family is not closed.
    """

    n: int
    elements: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise LatticeError("need n >= 1")
        canonical = tuple(sorted({frozenset(e) for e in self.elements}, key=_element_key))
        object.__setattr__(self, "elements", canonical)
        ok, cert = is_sublattice(canonical, self.n)
        if not ok:
            raise LatticeError(f"not a bounded sublattice: {cert}", certificate=cert)


def lattice_from_covers(parts: Iterable[frozenset[int]], n: int) -> CoverLattice:
    """Collect cover x-parts into their lattice.

    For x-parts of a genuine unmixed labeled graph the closure requirements
    cannot fail; a LatticeError here therefore signals an upstream bug.
    """
    return CoverLattice(n, tuple(frozenset(p) for p in parts))


@dataclass(frozen=True)
class HasseDiagram:
    """Cover relation of the subset order restricted to the lattice elements."""

    nodes: tuple[frozenset[int], ...]
    edges: tuple[tuple[frozenset[int], frozenset[int]], ...]


def hasse(lat: CoverLattice) -> HasseDiagram:
    """Edges (A, B) with A strictly below B and nothing of the lattice between."""
    nodes = lat.elements
    edges = [
        (a, b)
        for a in nodes
        for b in nodes
        if a < b and not any(a < c < b for c in nodes)
    ]
    edges.sort(key=lambda ab: (_element_key(ab[0]), _element_key(ab[1])))
    return HasseDiagram(nodes, tuple(edges))


def rank(lat: CoverLattice) -> int:
    """Longest chain cardinality minus one.

    A distributive lattice is graded, and its rank is its number of
    join-irreducibles (Birkhoff): here the distinct principal down-sets
    pred[j] of its preorder.
    """
    return len(set(_preorder([_to_mask(e) for e in lat.elements], lat.n)))


def is_full(lat: CoverLattice) -> bool:
    """Rank equals n. Full lattices belong to the Cohen-Macaulay graphs."""
    return rank(lat) == lat.n


def graph_from_lattice(lat: CoverLattice) -> LabeledBipartiteGraph:
    """The unique labeled bipartite graph whose cover x-parts reproduce lat.

    Edge rule: (i, j) is present iff every element containing j also
    contains i, that is iff i lies in pred[j]. Each call reads the relation
    back from the graph's edges and checks that its down-sets are the input
    elements; a mismatch aborts loudly, so a returned graph is certified
    correct for its instance.
    """
    n = lat.n
    masks = {_to_mask(e) for e in lat.elements}
    pred = _preorder(masks, n)
    edges = frozenset((i, j + 1) for j, p in enumerate(pred) for i in _mask_to_set(p))
    lg = LabeledBipartiteGraph(n, edges)
    back = [0] * n
    for i, j in lg.edges:
        back[j - 1] |= 1 << (i - 1)
    if _downsets(back, len(masks)) != masks:
        raise InconsistencyError(
            "reconstructed cover lattice differs from the input lattice",
            details={
                "n": n,
                "input_elements": [sorted(e) for e in lat.elements],
                "edges": sorted(lg.edges),
            },
        )
    return lg


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
        if _is_downset_family(family, n):
            yield CoverLattice(n, tuple(_mask_to_set(s) for s in sorted(family)))


def random_sublattice(n: int, generator_count: int, seed: int) -> CoverLattice:
    """Union/intersection closure of seeded random subsets plus the two bounds.

    Deterministic per (n, generator_count, seed). The closure is the set of
    down-sets of the preorder the draws induce, at most the 2^n subsets of
    the ground set.
    """
    if not 1 <= n <= 16:
        raise LatticeError(f"random generation is limited to 1 <= n <= 16, got {n}")
    if generator_count < 0:
        raise LatticeError("generator_count must be non-negative")
    rng = random.Random(seed)
    drawn = {0, (1 << n) - 1}
    drawn.update(rng.getrandbits(n) for _ in range(generator_count))
    closed = _downsets(_preorder(drawn, n), 1 << n)
    return CoverLattice(n, tuple(_mask_to_set(s) for s in sorted(closed)))


def format_lattice(lat: CoverLattice) -> str:
    """Lattice file: "n=<n>" header, then one element per line.

    Elements are comma-separated sorted indices; the empty set prints as {}.
    """
    lines = [f"n={lat.n}"]
    for e in lat.elements:
        lines.append(",".join(map(str, sorted(e))) if e else "{}")
    return "\n".join(lines) + "\n"


def parse_lattice(text: str) -> CoverLattice:
    """Parse a lattice file and validate it.

    Raises LatticeError on malformed input; for closure failures the error
    carries the certificate.
    """
    n: int | None = None
    elements: list[frozenset[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            if not line.startswith("n="):
                raise LatticeError(f"line {lineno}: expected header 'n=<count>', got {raw!r}")
            try:
                n = int(line[2:])
            except ValueError:
                raise LatticeError(f"line {lineno}: bad count in {raw!r}") from None
            if n < 1:
                raise LatticeError(f"line {lineno}: need n >= 1")
            continue
        if line == "{}":
            elements.append(frozenset())
            continue
        try:
            members = frozenset(int(tok) for tok in line.split(","))
        except ValueError:
            raise LatticeError(
                f"line {lineno}: expected comma-separated indices or {{}}, got {raw!r}"
            ) from None
        for i in members:
            if not 1 <= i <= n:
                raise LatticeError(f"line {lineno}: index {i} is out of range 1..{n}")
        elements.append(members)
    if n is None:
        raise LatticeError("missing 'n=<count>' header")
    return CoverLattice(n, tuple(elements))


def hasse_to_dot(diagram: HasseDiagram) -> str:
    """Graphviz text for the Hasse diagram, edges pointing small to large."""
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for e in diagram.nodes:
        lines.append(f'  "{_set_str(e)}";')
    for a, b in diagram.edges:
        lines.append(f'  "{_set_str(a)}" -> "{_set_str(b)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
