import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from coverlattice import (
    CoverError,
    CoverLattice,
    as_graph,
    bipartition,
    enumerate_minimal_covers,
    enumerate_sublattices,
    format_covers,
    graph_from_edges,
    graph_from_lattice,
    parse_graph,
    perfect_matching,
    random_sublattice,
)
from coverlattice.covers import _bron_kerbosch, _complement, _cover_masks, _relabel
from coverlattice.graphs import _mask_to_set

from conftest import matching_graph
from oracles import (
    brute_force_minimal_covers,
    disjoint_union,
    hall_condition_holds,
    is_unmixed,
    random_graph,
)


def _sets(covers):
    return {frozenset(c) for c in covers}


class TestEnumeration:
    def test_five_vertex_example_complete_family(self, five_vertex_graph):
        covers = enumerate_minimal_covers(five_vertex_graph)
        # verified against the exhaustive subset filter: {1,3,4} covers all
        # five edges and dropping any of its vertices uncovers one
        assert _sets(covers) == {
            frozenset({2, 4}),
            frozenset({1, 3, 4}),
            frozenset({1, 3, 5}),
        }
        assert covers == brute_force_minimal_covers(five_vertex_graph)

    def test_four_cycle(self, four_cycle):
        covers = enumerate_minimal_covers(four_cycle)
        assert _sets(covers) == {frozenset({2, 4}), frozenset({1, 3})}

    def test_single_edge(self, single_edge):
        assert _sets(enumerate_minimal_covers(single_edge)) == {
            frozenset({1}),
            frozenset({2}),
        }

    def test_deterministic_order(self, five_vertex_graph):
        covers = enumerate_minimal_covers(five_vertex_graph)
        assert [sorted(c) for c in covers] == [[2, 4], [1, 3, 4], [1, 3, 5]]

    def test_cap_enforced(self):
        g = matching_graph(13)  # 26 vertices
        with pytest.raises(CoverError, match="cap"):
            enumerate_minimal_covers(g)
        assert len(enumerate_minimal_covers(g, max_vertices=26)) == 2**13

    def test_every_cover_is_minimal(self, five_vertex_graph):
        def is_cover(s):
            return all(u in s or v in s for u, v in five_vertex_graph.edges)

        for cover in enumerate_minimal_covers(five_vertex_graph):
            assert is_cover(cover)
            for v in cover:
                assert not is_cover(cover - {v})

    @given(st.integers(0, 10_000))
    @settings(deadline=None)
    def test_matches_brute_force(self, seed):
        g = random_graph(random.Random(seed), max_vertices=10)
        assert enumerate_minimal_covers(g) == brute_force_minimal_covers(g)

    def test_matches_brute_force_up_to_16_vertices(self):
        rng = random.Random(161616)
        for _ in range(12):
            g = random_graph(rng, max_vertices=16)
            assert enumerate_minimal_covers(g) == brute_force_minimal_covers(g)


class TestComponentSplit:
    """Every cover listing runs Bron-Kerbosch once per connected component."""

    def test_empty_within_has_the_empty_set(self):
        assert _bron_kerbosch(_complement([0b10, 0b01]), 0) == [0]

    def test_matching_graph_runs_one_search_per_edge(self, monkeypatch):
        from coverlattice import covers

        g = matching_graph(16)
        searches = []

        def recorded(non_nbr, within):
            found = _bron_kerbosch(non_nbr, within)
            searches.append((within, len(found)))
            return found

        monkeypatch.setattr(covers, "_bron_kerbosch", recorded)
        masks = _cover_masks(g)
        assert searches == [(0b11 << 2 * i, 2) for i in range(16)]
        full = (1 << 32) - 1
        whole = {full ^ s for s in _bron_kerbosch(_complement(g._nbr), full)}
        assert len(masks) == len(set(masks)) == len(whole) == 2**16
        assert set(masks) == whole

    def test_disjoint_unions_match_brute_force(self):
        rng = random.Random(2727)
        for _ in range(60):
            g = disjoint_union([random_graph(rng, 5) for _ in range(rng.randint(2, 4))])
            found = sorted(map(_mask_to_set, _cover_masks(g)), key=lambda c: (len(c), sorted(c)))
            assert tuple(found) == brute_force_minimal_covers(g)


class TestUnmixed:
    def test_five_vertex_example_mixed(self, five_vertex_graph):
        assert not is_unmixed(enumerate_minimal_covers(five_vertex_graph))

    def test_four_cycle_unmixed(self, four_cycle):
        assert is_unmixed(enumerate_minimal_covers(four_cycle))

    def test_single_edge_unmixed(self, single_edge):
        assert is_unmixed(enumerate_minimal_covers(single_edge))

    def test_empty_family_rejected(self):
        with pytest.raises(CoverError):
            is_unmixed(())


class TestMatching:
    def test_four_cycle_deterministic(self, four_cycle):
        part = bipartition(four_cycle)
        assert perfect_matching(four_cycle, part) == {1: 2, 3: 4}

    def test_single_edge(self, single_edge):
        assert perfect_matching(single_edge, bipartition(single_edge)) == {1: 2}

    def test_star_sides_unequal(self):
        star = parse_graph("1 2\n1 3\n")
        assert perfect_matching(star, bipartition(star)) is None

    def test_needs_augmenting_path(self):
        # 1 grabs 2 greedily, which must be undone to place 3
        g = graph_from_edges([(1, 2), (1, 4), (3, 2)])
        part = bipartition(g)
        assert part.side_u == frozenset({1, 3})
        matching = perfect_matching(g, part)
        assert matching == {1: 4, 3: 2}


class TestRelabel:
    def test_four_cycle_becomes_complete_bipartite(self, four_cycle):
        part = bipartition(four_cycle)
        lg, rel = _relabel(four_cycle, part, perfect_matching(four_cycle, part))
        assert lg.n == 2
        assert lg.edges == frozenset({(1, 1), (1, 2), (2, 1), (2, 2)})
        assert rel.x_source == (1, 3)
        assert rel.y_source == (2, 4)
        # the path 1-2-3-4, the four-cycle less 1-4: x1=1, x2=3, y1=2, y2=4
        path = parse_graph("1 2\n2 3\n3 4\n")
        part = bipartition(path)
        lg, rel = _relabel(path, part, perfect_matching(path, part))
        assert (rel.x_source, rel.y_source) == ((1, 3), (2, 4))
        assert lg.edges == frozenset({(1, 1), (2, 1), (2, 2)})

    def test_single_edge(self, single_edge):
        part = bipartition(single_edge)
        lg, _ = _relabel(single_edge, part, perfect_matching(single_edge, part))
        assert lg.n == 1 and lg.edges == frozenset({(1, 1)})

    def test_two_disjoint_edges(self, two_disjoint_edges):
        part = bipartition(two_disjoint_edges)
        lg, _ = _relabel(two_disjoint_edges, part, perfect_matching(two_disjoint_edges, part))
        assert lg.n == 2 and lg.edges == frozenset({(1, 1), (2, 2)})


class TestXParts:
    """_cover_masks on the graph of a lattice: bit i - 1 for x_i, bit n + j - 1 for y_j."""

    def test_complete_bipartite(self):
        lg = graph_from_lattice(CoverLattice(2, [(), (1, 2)]))
        assert sorted(_cover_masks(as_graph(lg))) == [0b0011, 0b1100]

    def test_matching_gives_boolean_family(self):
        lg = graph_from_lattice(CoverLattice(2, [(), (1,), (2,), (1, 2)]))
        assert sorted(_cover_masks(as_graph(lg))) == [0b0011, 0b0110, 0b1001, 0b1100]

    def test_single_edge(self):
        lg = graph_from_lattice(CoverLattice(1, [(), (1,)]))
        assert sorted(_cover_masks(as_graph(lg))) == [0b01, 0b10]


class TestUnmixedLabeledInvariants:
    """Structure shared by every unmixed labeled graph."""

    def _labeled_instances(self):
        for seed in range(40):
            rng = random.Random(seed)
            n = rng.randint(1, 5)
            yield graph_from_lattice(random_sublattice(n, rng.randint(0, 8), seed))

    def test_cover_shape_and_boundary_covers(self):
        for lg in self._labeled_instances():
            n = lg.n
            covers = enumerate_minimal_covers(as_graph(lg))
            all_x = frozenset(range(1, n + 1))
            all_y = frozenset(range(n + 1, 2 * n + 1))
            assert all_x in covers and all_y in covers
            for cover in covers:
                assert len(cover) == n
                for i in range(1, n + 1):
                    assert (i in cover) != (n + i in cover)

    def test_hall_condition_exhaustive(self):
        for lg in self._labeled_instances():
            assert hall_condition_holds(lg)

    def test_relabeling_invariance(self):
        """Every perfect matching of a labeled graph relabels it to the same edges.

        A perfect matching pairs each x_i with some y_pi(i), so (i, pi(i)) is an
        edge; naming y_pi(j) as y_j must give back the edge set, which is why
        _relabel may take any perfect matching.
        """
        lattices = with_alternatives = 0
        for n in (1, 2, 3, 4):
            points = range(1, n + 1)
            for lat in enumerate_sublattices(n):
                edges = graph_from_lattice(lat).edges
                matchings = [
                    pi
                    for pi in permutations(points)
                    if all((i, pi[i - 1]) in edges for i in points)
                ]
                for pi in matchings:
                    renamed = {(i, j) for i in points for j in points if (i, pi[j - 1]) in edges}
                    assert renamed == edges, (n, sorted(edges), pi)
                lattices += 1
                with_alternatives += len(matchings) > 1
        assert lattices == 1 + 4 + 29 + 355
        assert with_alternatives == 147


def test_format_covers(four_cycle):
    assert format_covers(enumerate_minimal_covers(four_cycle)) == "1 3\n2 4\n"


def test_format_covers_keeps_the_given_order():
    rng = random.Random(5)
    for _ in range(200):
        count = rng.randint(0, 8)
        covers = [frozenset(rng.sample(range(1, 13), rng.randint(0, 6))) for _ in range(count)]
        expected = "\n".join(" ".join(map(str, sorted(c))) for c in covers) + "\n"
        assert format_covers(covers) == expected
