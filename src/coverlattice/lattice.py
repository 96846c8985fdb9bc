"""Bounded sublattices of the subset lattice of {1..n}, and the package's bitmask format.

A set of points or vertices is held as an int mask, bit i - 1 for member
i; _bits, _to_mask, _mask_to_set and the canonical set order _element_key
(size, then sorted members) are defined here once. By Birkhoff's theorem a
bounded sublattice is the family of down-sets of one preorder on {1..n}:
pred[j], the intersection of the members that contain j, holds the
elements at or below j. CoverLattice accepts a family only if it equals
the down-sets of its own preorder, and keeps the element masks and pred;
producers that hold a preorder, such as a labeled graph's edges
(_edge_preorder), build it with CoverLattice._from_preorder. The rank is
the number of distinct pred[j], and the inverse graph writes pred out as edges.
"""

from __future__ import annotations

import random
from collections.abc import Collection, Iterable, Iterator
from dataclasses import dataclass, field

from .exceptions import InconsistencyError, LatticeError
from .graphs import LabeledBipartiteGraph

__all__ = [
    "CoverLattice",
    "HasseDiagram",
    "ClosureCertificate",
    "is_sublattice",
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


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _to_mask(e: Iterable[int]) -> int:
    mask = 0
    for i in e:
        mask |= 1 << (i - 1)
    return mask


def _mask_to_set(mask: int) -> frozenset[int]:
    out = []  # frozenset(a set) takes 64 slots at 16-18 members; from a list, 32
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return frozenset(out)


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


def _edge_preorder(lg: LabeledBipartiteGraph) -> list[int]:
    """pred[j - 1]: the mask of the i with x_i y_j an edge, the relation i <= j."""
    pred = [0] * lg.n
    for i, j in lg.edges:
        pred[j - 1] |= 1 << (i - 1)
    return pred


def _lattice_preorder(masks: set[int], n: int) -> list[int] | None:
    """The preorder of distinct masks, or None unless they are its down-sets."""
    if 0 not in masks or (1 << n) - 1 not in masks:  # down-sets hold both; test before n x n bits
        return None
    pred = _preorder(masks, n)
    return pred if _downsets(pred, len(masks)) == masks else None


def _element_masks(elements: Iterable[Iterable[int]], n: int) -> dict[frozenset[int], int]:
    """Each distinct element with its mask; LatticeError if one is not a subset of 1..n."""
    distinct = set(map(frozenset, elements))
    outside = [e for e in distinct if e and (min(e) < 1 or max(e) > n)]
    if outside:
        e = min(outside, key=_element_key)
        raise LatticeError(f"element {sorted(e)} is not a subset of 1..{n}")
    return {e: _to_mask(e) for e in distinct}


def is_sublattice(
    family: Iterable[frozenset[int]], n: int
) -> tuple[bool, ClosureCertificate | None]:
    """Check boundary membership and union/intersection closure.

    Returns (True, None) or (False, certificate) where the certificate names
    the missing boundary element or a violating pair.
    """
    mask_of = _element_masks(family, n)
    ok = _lattice_preorder(set(mask_of.values()), n) is not None
    return ok, None if ok else _certificate(set(mask_of), n)


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
    masks[k] is elements[k] as a bitmask (bit i - 1 for member i), and
    pred[j] is the mask of the points at or below point j + 1 in the
    preorder; both are computed once, by the validation.
    """

    n: int
    elements: tuple[frozenset[int], ...]
    masks: tuple[int, ...] = field(init=False, repr=False, compare=False)
    pred: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise LatticeError("need n >= 1")
        mask_of = _element_masks(self.elements, self.n)
        pred = _lattice_preorder(set(mask_of.values()), self.n)
        if pred is None:
            cert = _certificate(set(mask_of), self.n)
            raise LatticeError(f"not a bounded sublattice: {cert}", certificate=cert)
        self._hold(mask_of, pred)

    @classmethod
    def _from_preorder(cls, n: int, pred: list[int]) -> CoverLattice:
        """The down-sets of pred; InconsistencyError unless pred is a preorder.

        Their own preorder is pred exactly when pred is reflexive and transitive.
        """
        masks = _downsets(pred, 1 << n)
        if _preorder(masks, n) != pred:
            raise InconsistencyError(
                "relation is not a preorder (reflexive and transitive)",
                details={"n": n, "pred": [sorted(_mask_to_set(p)) for p in pred]},
            )
        lat = object.__new__(cls)
        object.__setattr__(lat, "n", n)
        lat._hold({_mask_to_set(m): m for m in masks}, pred)
        return lat

    def _hold(self, mask_of: dict[frozenset[int], int], pred: list[int]) -> None:
        elements = tuple(sorted(mask_of, key=_element_key))
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "masks", tuple(map(mask_of.__getitem__, elements)))
        object.__setattr__(self, "pred", tuple(pred))


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
    contains i, that is iff i lies in pred[j]. Each call reads the relation
    back from the graph's edges and checks that its down-sets are the input
    elements; a mismatch aborts loudly, so a returned graph is certified
    correct for its instance.
    """
    n = lat.n
    edges = frozenset((i + 1, j + 1) for j, p in enumerate(lat.pred) for i in _bits(p))
    lg = LabeledBipartiteGraph(n, edges)
    if _downsets(_edge_preorder(lg), len(lat.masks)) != set(lat.masks):
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
        if (pred := _lattice_preorder(family, n)) is not None:
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
    return CoverLattice._from_preorder(n, _preorder(drawn, n))


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
            if n > MAX_LATTICE_N:
                raise LatticeError(f"line {lineno}: n={n} exceeds the cap of {MAX_LATTICE_N}")
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
