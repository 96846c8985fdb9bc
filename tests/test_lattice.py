import gc
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from coverlattice import (
    CoverLattice,
    HasseDiagram,
    InconsistencyError,
    LatticeError,
    enumerate_sublattices,
    format_lattice,
    graph_from_edges,
    graph_from_lattice,
    hasse,
    hasse_to_dot,
    parse_lattice,
    random_sublattice,
    rank,
)

from coverlattice.covers import _cover_lines, _sorted_cover_masks
from coverlattice.graphs import _canonical, _members
from coverlattice.lattice import (
    MAX_LATTICE_N,
    _downsets,
    _is_preorder,
    _lattice_preorder,
    _preorder,
)

from oracles import (
    brute_force_closure,
    brute_force_hasse,
    dot_text_by_triples,
    downsets_by_unions,
    format_lattice_by_bits,
    lattice_covers,
    longest_chain_cardinality,
    preorder_by_intersection,
)

EMPTY = frozenset()


def lat(n, *sets):
    return CoverLattice(n, tuple(frozenset(s) for s in sets))


class TestConstruction:
    def test_canonical_order_and_dedup(self):
        built = lat(2, {1, 2}, (), {1}, {1})
        assert built.elements == (EMPTY, frozenset({1}), frozenset({1, 2}))

    def test_rejects_open_family(self):
        with pytest.raises(LatticeError) as info:
            lat(2, (), {1}, {2})
        assert info.value.certificate.kind == "union"

    def test_rejects_missing_bottom(self):
        with pytest.raises(LatticeError) as info:
            lat(2, {1}, {1, 2})
        assert info.value.certificate.kind == "missing-bottom"

    def test_preorder_matches_intersection_oracle(self):
        def as_masks(sets):
            return tuple(sum(1 << (i - 1) for i in s) for s in sets)

        built = [b for n in (1, 2, 3, 4) for b in enumerate_sublattices(n)]
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(5, 8)
            built.append(random_sublattice(n, rng.randint(0, 18), rng.getrandbits(32)))
        for b in built:
            assert b.pred == as_masks(preorder_by_intersection(b.elements, b.n))
            assert b.masks == as_masks(b.elements)
        assert len(built) == 389 + 40
        # both generators build through the preorder entry; the public
        # constructor, fed the elements in another order, agrees with them
        for b in built:
            public = CoverLattice(b.n, tuple(set(e) for e in reversed(b.elements)))
            assert (public.elements, public.masks, public.pred) == (b.elements, b.masks, b.pred)

    @pytest.mark.parametrize("n, preorders", [(1, 1), (2, 4), (3, 29), (4, 355)])
    def test_preorder_entry_accepts_exactly_the_preorders(self, n, preorders):
        """Every relation on n points: pred[j] is the set of i with i <= j + 1."""
        accepted = 0
        for code in range(1 << n * n):
            pred = [code >> (n * j) & ((1 << n) - 1) for j in range(n)]
            le = [[pred[j] >> i & 1 for j in range(n)] for i in range(n)]
            is_preorder = all(le[i][i] for i in range(n)) and all(
                le[i][k] or not (le[i][j] and le[j][k])
                for i in range(n)
                for j in range(n)
                for k in range(n)
            )
            try:
                built = CoverLattice._from_preorder(n, pred)
            except InconsistencyError as exc:
                assert not is_preorder
                assert exc.details["n"] == n
                continue
            assert is_preorder
            accepted += 1
            public = CoverLattice(n, built.elements)
            assert (built.elements, built.masks, built.pred) == (
                public.elements,
                public.masks,
                public.pred,
            )
        assert accepted == preorders  # OEIS A000798, the preorders on n labeled points

    def test_preorder_entry_refuses_a_relation_before_listing_down_sets(self):
        # identity plus 1 <= 2 <= 3 without 1 <= 3: the down-sets of the
        # relation would number about 2^59
        pred = [1 << j for j in range(60)]
        pred[1] |= 0b001
        pred[2] |= 0b010
        with pytest.raises(InconsistencyError, match="relation is not a preorder") as info:
            CoverLattice._from_preorder(60, pred)
        assert info.value.details["n"] == 60
        assert info.value.details["pred"][:3] == [[1], [1, 2], [2, 3]]

    @given(
        st.integers(1, 8).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n),
                st.booleans(),
            )
        )
    )
    @settings(deadline=None)
    def test_is_preorder_is_the_down_set_round_trip(self, case):
        n, pred, close = case
        if close:  # half the draws become preorders: add j <= j, then close transitively
            pred = [p | 1 << j for j, p in enumerate(pred)]
            for k in range(n):
                pred = [p | pred[k] if p >> k & 1 else p for p in pred]
            assert _is_preorder(pred)
        downsets = downsets_by_unions(pred, 1 << n)
        assert _is_preorder(pred) == (_preorder(downsets, (1 << n) - 1) == pred)

    def test_public_and_preorder_constructions_are_equal(self):
        # {} <= {1} <= {1,2,3}, {1,2}, {1,3}: 2 and 3 both sit above 1
        public = lat(3, (), {1}, {1, 2}, {1, 3}, {1, 2, 3})
        built = CoverLattice._from_preorder(3, [0b001, 0b011, 0b101])
        assert public == built and hash(public) == hash(built)
        assert public.pred == built.pred
        assert public != lat(3, (), {1}, {1, 2}, {1, 2, 3})
        assert "elements" not in vars(public) and "elements" not in vars(built)

    def test_preorder_lattice_equals_its_parsed_twin_and_lists_masks_on_first_read(self):
        # the class {1, 2} below 3
        built = CoverLattice._from_preorder(3, [0b011, 0b011, 0b111])
        parsed = parse_lattice("n=3\n{}\n1,2\n1,2,3\n")
        assert built == parsed and hash(built) == hash(parsed)
        assert "masks" not in vars(built)  # equality and hash read n and pred only
        assert "masks" in vars(parsed)  # kept from the parsed family
        assert built.masks == parsed.masks == (0b000, 0b011, 0b111)
        assert vars(built)["masks"] is built.masks
        for n in (1, 2, 3, 4):
            for b in enumerate_sublattices(n):
                twin = parse_lattice(format_lattice(b))
                fresh = CoverLattice._from_preorder(n, list(b.pred))
                assert b == twin == fresh and hash(b) == hash(twin) == hash(fresh)
                assert "masks" not in vars(fresh)

    def test_elements_are_the_masks_built_on_first_read(self):
        built = random_sublattice(6, 5, 123)
        assert "elements" not in vars(built)
        assert [sum(1 << (i - 1) for i in e) for e in built.elements] == list(built.masks)
        assert vars(built)["elements"] is built.elements

    @given(st.integers(1, 26).flatmap(
        lambda w: st.tuples(st.just(w), st.lists(st.integers(0, (1 << w) - 1), max_size=40))
    ))
    @settings(deadline=None)
    def test_canonical_is_size_then_sorted_members(self, case):
        width, masks = case

        def members(m):
            return [i + 1 for i in range(width) if m >> i & 1]

        expected = sorted(masks, key=lambda m: (len(members(m)), members(m)))
        assert _canonical(masks, width) == expected

    def test_range_error_names_the_first_element_in_canonical_order(self):
        with pytest.raises(LatticeError, match=r"element \[3\] is not a subset of 1..2"):
            lat(2, (), {1, 5}, {4}, {3}, {1, 2})
        with pytest.raises(LatticeError, match="need n >= 1"):
            lat(0, {1})


def _relations(n):
    """Relations on n points as rows: pred[j] is the set of i with i <= j + 1."""
    return st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)


def _closure(rows):
    """The least preorder holding the relation: add j <= j, then close transitively."""
    pred = [p | 1 << j for j, p in enumerate(rows)]
    for k in range(len(pred)):
        pred = [p | pred[k] if p >> k & 1 else p for p in pred]
    return pred


class _CountedReads(list):
    """A relation that fails once the search has read more than budget of its rows."""

    def __init__(self, rows, budget):
        super().__init__(rows)
        self.budget = budget

    def __getitem__(self, k):
        self.budget -= 1
        assert self.budget >= 0, "the search did not end"
        return super().__getitem__(k)


class TestDownsetSearch:
    """_downsets lists each down-set once, in the order that makes canonical order by size."""

    @staticmethod
    def _check(pred):
        found = _downsets(pred, 1 << len(pred))
        assert len(found) == len(set(found))
        assert set(found) == downsets_by_unions(pred, 1 << len(pred))
        for a, b in zip(found, found[1:]):
            differ = a ^ b
            assert a & differ & -differ  # the first holds the lowest point where they differ
        found.sort(key=int.bit_count)
        assert found == _canonical(found, len(pred))

    def test_every_preorder_up_to_four_points(self):
        preorders = [list(b.pred) for n in (1, 2, 3, 4) for b in enumerate_sublattices(n)]
        assert len(preorders) == 389
        for pred in preorders:
            self._check(pred)

    @given(st.integers(1, 10).flatmap(_relations).map(_closure))
    @settings(deadline=None)
    def test_random_preorders_up_to_ten_points(self, pred):
        assert _is_preorder(pred)
        self._check(pred)

    def test_stops_past_the_limit(self):
        boolean = [1 << j for j in range(10)]
        assert _downsets(boolean, 1023) is None
        assert len(_downsets(boolean, 1024)) == 1024

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_ends_on_relations_that_are_not_reflexive(self, n):
        full = (1 << n) - 1
        irreflexive = [full ^ 1 << j for j in range(n)]
        cycle = [1 << (j + 1) % n for j in range(n)]
        for rows in (irreflexive, cycle, [full] * n):
            pred = _CountedReads(rows, 1 << n)  # one read per branching node, < 2^n of them
            assert len(_downsets(pred, 1 << n)) <= 1 << n

    @given(st.integers(1, 8).flatmap(_relations))
    @settings(deadline=None)
    def test_ends_on_any_relation(self, rows):
        n = len(rows)
        assert len(_downsets(_CountedReads(rows, 1 << n), 1 << n)) <= 1 << n


class TestIsSublattice:
    """The CoverLattice constructor's verdict and certificate on a family."""

    def test_boolean_family(self):
        assert lat(2, (), {1}, {2}, {1, 2}).masks == (0b00, 0b01, 0b10, 0b11)

    def test_union_violation_certificate(self):
        with pytest.raises(LatticeError) as info:
            lat(2, (), {1}, {2})
        cert = info.value.certificate
        assert cert.kind == "union"
        assert {cert.left, cert.right} == {frozenset({1}), frozenset({2})}
        assert cert.missing == frozenset({1, 2})
        assert "missing" in str(cert)

    def test_chain_is_fine(self):
        assert lat(2, (), {1}, {1, 2}).masks == (0b00, 0b01, 0b11)

    def test_out_of_range_element(self):
        with pytest.raises(LatticeError, match="subset") as info:
            lat(2, (), {3}, {1, 2})
        assert info.value.certificate is None


class TestHasseAndRank:
    def test_two_element_chain(self):
        d = hasse(lat(1, (), {1}))
        assert d.edges == ((EMPTY, frozenset({1})),)

    def test_boolean_diamond(self):
        d = hasse(lat(2, (), {1}, {2}, {1, 2}))
        assert len(d.edges) == 4

    def test_chain_edges(self):
        d = hasse(lat(2, (), {1}, {1, 2}))
        assert d.edges == (
            (EMPTY, frozenset({1})),
            (frozenset({1}), frozenset({1, 2})),
        )

    def test_rank_examples(self):
        assert rank(lat(2, (), {1, 2})) == 1
        assert rank(lat(2, (), {1}, {2}, {1, 2})) == 2
        assert rank(lat(3, (), {1}, {1, 2}, {1, 2, 3})) == 3

    def test_rank_full_boolean(self):
        for n in (1, 2, 3, 4):
            full = [frozenset(s) for s in _power_set(n)]
            assert rank(CoverLattice(n, tuple(full))) == n

    def test_rank_matches_chain_oracle(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(1, 6)
            built = random_sublattice(n, rng.randint(0, 10), rng.getrandbits(32))
            assert rank(built) == longest_chain_cardinality(built.elements) - 1

    def test_is_full(self):
        for built, full in (
            (lat(2, (), {1}, {2}, {1, 2}), True),
            (lat(2, (), {1, 2}), False),
            (lat(1, (), {1}), True),
        ):
            assert (rank(built) == built.n) is full

    def test_hasse_matches_triple_oracle_on_all_small_lattices(self):
        checked = 0
        for n in (1, 2, 3, 4):
            for built in enumerate_sublattices(n):
                d = hasse(built)
                assert d.nodes == built.elements
                assert list(d.edges) == brute_force_hasse(built.elements)
                assert hasse_to_dot(d) == dot_text_by_triples(built.elements)
                checked += 1
        assert checked == 1 + 4 + 29 + 355

    def test_hasse_matches_triple_oracle_on_random_lattices(self):
        rng = random.Random(11)
        for _ in range(40):
            built = random_sublattice(rng.randint(5, 7), rng.randint(0, 12), rng.getrandbits(32))
            d = hasse(built)
            assert list(d.edges) == brute_force_hasse(built.elements)
            assert hasse_to_dot(d) == dot_text_by_triples(built.elements)

    def test_rank_equals_longest_chain_on_all_small_lattices(self):
        checked = 0
        for n in (1, 2, 3, 4):
            for built in enumerate_sublattices(n):
                assert rank(built) == longest_chain_cardinality(built.elements) - 1
                checked += 1
        assert checked == 1 + 4 + 29 + 355


def _power_set(n):
    for mask in range(1 << n):
        yield {i + 1 for i in range(n) if mask >> i & 1}


class TestGraphFromLattice:
    def test_two_element_lattice_gives_complete_bipartite(self):
        lg = graph_from_lattice(lat(2, (), {1, 2}))
        assert lg.edges == frozenset({(1, 1), (1, 2), (2, 1), (2, 2)})

    def test_boolean_lattice_gives_matching(self):
        lg = graph_from_lattice(lat(2, (), {1}, {2}, {1, 2}))
        assert lg.edges == frozenset({(1, 1), (2, 2)})

    def test_chain_graph(self):
        lg = graph_from_lattice(lat(2, (), {1}, {1, 2}))
        assert lg.edges == frozenset({(1, 1), (2, 2), (1, 2)})

    def test_round_trip_exhaustive_small(self):
        from coverlattice import as_graph, enumerate_minimal_covers

        for n in (1, 2, 3):
            for built in enumerate_sublattices(n):
                lg = graph_from_lattice(built)
                covers = enumerate_minimal_covers(as_graph(lg))
                assert set(covers) == lattice_covers(built.elements, n)

    def test_edges_read_back_as_the_preorder(self):
        from coverlattice.lattice import _edge_preorder

        for n in (1, 2, 3, 4):
            for built in enumerate_sublattices(n):
                assert tuple(_edge_preorder(graph_from_lattice(built))) == built.pred

    def test_round_trip_random(self):
        rng = random.Random(99)
        for _ in range(30):
            built = random_sublattice(rng.randint(1, 8), rng.randint(0, 12), rng.getrandbits(32))
            graph_from_lattice(built)  # self-verifying


class TestEnumerateSublattices:
    def test_n1(self):
        found = list(enumerate_sublattices(1))
        assert len(found) == 1
        assert found[0].elements == (EMPTY, frozenset({1}))

    def test_n2(self):
        found = {l.elements for l in enumerate_sublattices(2)}
        assert len(found) == 4
        assert (EMPTY, frozenset({1, 2})) in found
        assert (EMPTY, frozenset({1}), frozenset({1, 2})) in found
        assert (EMPTY, frozenset({2}), frozenset({1, 2})) in found
        assert (EMPTY, frozenset({1}), frozenset({2}), frozenset({1, 2})) in found

    def test_regression_counts(self):
        # frozen after the first run; these also equal the counts of
        # preorders on 3 and 4 labeled points, an independent cross-check
        assert sum(1 for _ in enumerate_sublattices(3)) == 29
        assert sum(1 for _ in enumerate_sublattices(4)) == 355

    def test_no_duplicates(self):
        seen = [l.elements for l in enumerate_sublattices(3)]
        assert len(seen) == len(set(seen))

    def test_cap(self):
        with pytest.raises(LatticeError):
            list(enumerate_sublattices(5))


class TestRandomSublattice:
    def test_no_generators(self):
        built = random_sublattice(4, 0, 7)
        assert built.elements == (EMPTY, frozenset({1, 2, 3, 4}))

    def test_deterministic_per_seed(self):
        a = random_sublattice(6, 5, 123)
        b = random_sublattice(6, 5, 123)
        assert a == b

    def test_format_builds_no_frozensets(self):
        built = random_sublattice(10, 6, 5)
        text = format_lattice(built)
        assert "elements" not in vars(built)
        lines = ["{}" if not e else ",".join(map(str, sorted(e))) for e in built.elements]
        assert text == "\n".join([f"n={built.n}", *lines]) + "\n"

    @given(st.integers(0, 500), st.integers(0, 8))
    @settings(deadline=None)
    def test_lands_in_enumerated_set_for_n2(self, seed, generators):
        families = {l.elements for l in enumerate_sublattices(2)}
        assert random_sublattice(2, generators, seed).elements in families

    @given(st.integers(0, 500))
    @settings(deadline=None)
    def test_closure_property(self, seed):
        built = random_sublattice(5, 4, seed)
        elems = set(built.elements)
        for a in elems:
            for b in elems:
                assert a | b in elems
                assert a & b in elems


def _subset(mask):
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def _mask(e):
    return sum(1 << (i - 1) for i in e)


@st.composite
def families(draw):
    """A family over 1..n, n <= 6: random, a closed one, or a closed one less an element."""
    n = draw(st.integers(1, 6))
    family = {_subset(m) for m in draw(st.sets(st.integers(0, (1 << n) - 1), max_size=10))}
    if draw(st.booleans()):
        family = set(brute_force_closure(family, n))
        if draw(st.booleans()):
            family.discard(draw(st.sampled_from(sorted(family, key=sorted))))
    return n, family


class TestAgainstClosureOracle:
    def test_every_family_over_three_points(self):
        """The down-set count alone decides: each of the 256 families, the empty one too."""
        accepted = 0
        for combo in range(1 << 8):
            family = {m for m in range(8) if combo >> m & 1}
            sets = set(map(_subset, family))
            held = _lattice_preorder(family, 0b111)
            assert (held is not None) == (brute_force_closure(sets, 3) == sets), sorted(family)
            if held is not None:
                accepted += 1
                pred, found = held
                assert sorted(found) == sorted(family)
                assert pred == [_mask(e) for e in preorder_by_intersection(sets, 3)]
        assert accepted == 29  # the bounded sublattices of 2^[3], as verify --n 3 counts

    @given(families())
    @settings(deadline=None, max_examples=300)
    def test_verdict_matches_oracle(self, drawn):
        n, family = drawn
        if brute_force_closure(family, n) == family:
            assert set(CoverLattice(n, family).elements) == family
        else:
            with pytest.raises(LatticeError, match="^not a bounded sublattice: "):
                CoverLattice(n, family)

    @given(families())
    @settings(deadline=None, max_examples=300)
    def test_every_certificate_is_true(self, drawn):
        n, family = drawn
        try:
            CoverLattice(n, family)
            return
        except LatticeError as exc:
            cert = exc.certificate
        if cert.kind in ("union", "intersection"):
            assert cert.left in family and cert.right in family
            op = frozenset.union if cert.kind == "union" else frozenset.intersection
            assert op(cert.left, cert.right) == cert.missing
            assert cert.missing not in family
        elif cert.kind == "missing-bottom":
            assert EMPTY not in family
        else:
            assert cert.kind == "missing-top"
            assert frozenset(range(1, n + 1)) not in family

    @given(st.integers(1, 6), st.integers(0, 12), st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=200)
    def test_random_sublattice_is_oracle_closure(self, n, generators, seed):
        rng = random.Random(seed)
        drawn = [_subset(rng.getrandbits(n)) for _ in range(generators)]
        built = random_sublattice(n, generators, seed)
        assert set(built.elements) == brute_force_closure(drawn, n)


class TestModularIndicatorIdentity:
    def test_on_all_small_lattices(self):
        """Indicator vectors of lattice elements satisfy the union/intersection identity.

        chi(A | B) + chi(A & B) == chi(A) + chi(B) coordinatewise; this is the
        vector identity that lets a maximal chain span every truncated row.
        """
        for n in (2, 3):
            for built in enumerate_sublattices(n):
                for a in built.elements:
                    for b in built.elements:
                        for i in range(1, n + 1):
                            lhs = (i in (a | b)) + (i in (a & b))
                            rhs = (i in a) + (i in b)
                            assert lhs == rhs


def _first_difference(text, expected):
    """None if the texts are equal, else (line number, line, expected line) where they first differ.

    A short report: pytest's own diff of two texts of 65537 lines takes minutes.
    """
    if text == expected:
        return None
    lines, wanted = text.split("\n"), expected.split("\n")
    shorter = min(len(lines), len(wanted))
    k = next((k for k in range(shorter) if lines[k] != wanted[k]), shorter)
    return k + 1, lines[k : k + 1], wanted[k : k + 1]


class TestSerialization:
    def test_format(self):
        text = format_lattice(lat(2, (), {1}, {1, 2}))
        assert text == "n=2\n{}\n1\n1,2\n"

    def test_format_matches_the_bitwise_oracle_on_all_small_lattices(self):
        built = [b for n in (1, 2, 3, 4) for b in enumerate_sublattices(n)]
        assert len(built) == 389
        for b in built:
            assert _first_difference(format_lattice(b), format_lattice_by_bits(b)) is None

    @given(st.integers(1, 16), st.integers(0, 24), st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=60)
    def test_format_matches_the_bitwise_oracle_on_random_lattices(self, n, generators, seed):
        built = random_sublattice(n, generators, seed)
        assert _first_difference(format_lattice(built), format_lattice_by_bits(built)) is None

    def test_format_matches_the_bitwise_oracle_on_the_boolean_lattice(self):
        built = CoverLattice._from_preorder(16, [1 << j for j in range(16)])
        text = format_lattice(built)
        assert text.count("\n") == 65537
        assert _first_difference(text, format_lattice_by_bits(built)) is None

    def test_format_of_reversed_chains_matches_the_oracle_in_memory_near_its_output(self):
        # two chains of 40 points whose least point has the highest index: for
        # nearly every element, the element less its top member is not one
        k = 40
        pred = [sum(1 << c * k + i for i in range(j, k)) for c in (0, 1) for j in range(k)]
        built = CoverLattice._from_preorder(2 * k, pred)
        built.masks
        tracemalloc.start()
        try:
            text = format_lattice(built)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text.count("\n") == 1 + (k + 1) ** 2
        assert _first_difference(text, format_lattice_by_bits(built)) is None
        assert peak < 10 * len(text)
        # the minimal covers of the 16-edge matching graph, an antichain: no
        # line extends an earlier one, and each is held once, as it is printed
        masks = _sorted_cover_masks(graph_from_edges((i, i + 1) for i in range(1, 32, 2)), 32)
        tracemalloc.start()
        try:
            text = _cover_lines(masks, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == "".join(" ".join(map(str, _members(m))) + "\n" for m in masks)
        assert len(masks) == 2**16
        assert peak < 4 * len(text)

    def test_format_and_masks_leave_no_reference_cycle(self):
        # a cycle would hold each call's table of lines until the cyclic collector ran
        boolean = [1 << j for j in range(12)]
        built = CoverLattice._from_preorder(12, boolean)
        gc.collect()
        gc.disable()
        try:
            format_lattice(built)
            CoverLattice._from_preorder(12, boolean).masks
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_parse_round_trip(self):
        rng = random.Random(3)
        for _ in range(20):
            built = random_sublattice(rng.randint(1, 6), rng.randint(0, 8), rng.getrandbits(32))
            assert parse_lattice(format_lattice(built)) == built

    def test_parse_rejects_open_family(self):
        with pytest.raises(LatticeError) as info:
            parse_lattice("n=2\n{}\n1\n2\n")
        assert info.value.certificate is not None

    def test_parse_rejects_out_of_range(self):
        with pytest.raises(LatticeError, match="out of range"):
            parse_lattice("n=2\n{}\n3\n1,2\n")

    @pytest.mark.parametrize("line, bad", [("5,0,3", 5), ("1,0", 0), ("2,-1", -1), ("-4", -4)])
    def test_parse_names_the_first_bad_index_in_line_order(self, line, bad):
        # checked before the index is shifted into a mask, so 0 and -1 are range errors too
        with pytest.raises(LatticeError, match=rf"^line 3: index {bad} is out of range 1..2$"):
            parse_lattice(f"n=2\n{{}}\n{line}\n1,2\n")

    def test_parse_checks_each_index_once(self, monkeypatch):
        from coverlattice import lattice

        # the file's masks go straight to the closure check, past the constructor's range check
        monkeypatch.setattr(lattice, "_element_masks", None)
        assert parse_lattice("n=2\n{}\n1\n1,2\n").masks == (0b00, 0b01, 0b11)

    def test_parse_refuses_n_over_the_cap(self):
        with pytest.raises(LatticeError, match=f"exceeds the cap of {MAX_LATTICE_N}$"):
            parse_lattice(f"n={MAX_LATTICE_N + 1}\n{{}}\n")

    def test_parse_needs_header(self):
        with pytest.raises(LatticeError, match="header"):
            parse_lattice("{}\n1\n")

    def test_parse_skips_comments_and_blank_lines(self):
        built = parse_lattice("# c\n\nn=2  # two\n# d\n{}\n\n1  # one\n1,2\n")
        assert built == lat(2, (), {1}, {1, 2})

    def test_dot_keeps_the_given_node_and_edge_order(self):
        def name(e):
            return '"{' + ",".join(map(str, sorted(e))) + '}"'

        rng = random.Random(11)
        for _ in range(60):
            d = hasse(random_sublattice(rng.randint(1, 5), rng.randint(0, 6), rng.getrandbits(32)))
            nodes, edges = list(d.nodes), list(d.edges)
            rng.shuffle(nodes)
            rng.shuffle(edges)
            lines = ["digraph hasse {", "  rankdir=BT;", *(f"  {name(e)};" for e in nodes)]
            lines += [f"  {name(a)} -> {name(b)};" for a, b in edges]
            expected = "\n".join(lines) + "\n}\n"
            assert hasse_to_dot(HasseDiagram(tuple(nodes), tuple(edges))) == expected

    def test_dot_export(self):
        text = hasse_to_dot(hasse(lat(2, (), {1}, {1, 2})))
        assert text.startswith("digraph hasse {")
        assert '"{}" -> "{1}";' in text
        assert '"{1}" -> "{1,2}";' in text
        assert text.rstrip().endswith("}")
