import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from coverlattice import (
    CoverError,
    as_graph,
    bipartition,
    enumerate_minimal_covers,
    format_covers,
    graph_from_edges,
    graph_from_lattice,
    hall_condition_holds,
    is_unmixed,
    parse_graph,
    perfect_matching,
    random_sublattice,
    relabel,
    x_parts,
)

from conftest import matching_graph
from oracles import brute_force_minimal_covers, random_graph


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
        adjacency = five_vertex_graph.adjacency()

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
        covers = enumerate_minimal_covers(four_cycle)
        lg, rel = relabel(four_cycle, part, covers)
        assert lg.n == 2
        assert lg.edges == frozenset({(1, 1), (1, 2), (2, 1), (2, 2)})
        assert rel.x_source == (1, 3)
        assert rel.y_source == (2, 4)
        assert rel.label_of(3) == ("x", 2)
        assert rel.label_of(4) == ("y", 2)
        # the path 1-2-3-4, the four-cycle less 1-4: x1=1, x2=3, y1=2, y2=4
        path = parse_graph("1 2\n2 3\n3 4\n")
        lg, rel = relabel(path, bipartition(path), enumerate_minimal_covers(path))
        assert (rel.x_source, rel.y_source) == ((1, 3), (2, 4))
        assert lg.edges == frozenset({(1, 1), (2, 1), (2, 2)})

    def test_single_edge(self, single_edge):
        lg, _ = relabel(
            single_edge, bipartition(single_edge), enumerate_minimal_covers(single_edge)
        )
        assert lg.n == 1 and lg.edges == frozenset({(1, 1)})

    def test_two_disjoint_edges(self, two_disjoint_edges):
        lg, _ = relabel(
            two_disjoint_edges,
            bipartition(two_disjoint_edges),
            enumerate_minimal_covers(two_disjoint_edges),
        )
        assert lg.n == 2 and lg.edges == frozenset({(1, 1), (2, 2)})

    def test_rejects_mixed_graph(self, five_vertex_graph):
        part = bipartition(five_vertex_graph)
        covers = enumerate_minimal_covers(five_vertex_graph)
        with pytest.raises(CoverError, match="not unmixed"):
            relabel(five_vertex_graph, part, covers)

    def test_rejects_bogus_matching(self, four_cycle, two_disjoint_edges):
        part = bipartition(two_disjoint_edges)
        covers = enumerate_minimal_covers(two_disjoint_edges)
        with pytest.raises(CoverError, match="not an edge"):
            relabel(two_disjoint_edges, part, covers, matching={1: 4, 3: 2})
        part4 = bipartition(four_cycle)
        covers4 = enumerate_minimal_covers(four_cycle)
        with pytest.raises(CoverError, match="bijectively"):
            relabel(four_cycle, part4, covers4, matching={1: 2, 3: 2})

    def test_alternate_matching_still_valid(self, four_cycle):
        part = bipartition(four_cycle)
        covers = enumerate_minimal_covers(four_cycle)
        lg, rel = relabel(four_cycle, part, covers, matching={1: 4, 3: 2})
        assert lg.edges == frozenset({(1, 1), (1, 2), (2, 1), (2, 2)})
        assert rel.y_source == (4, 2)


class TestXParts:
    def test_complete_bipartite(self, four_cycle):
        part = bipartition(four_cycle)
        covers = enumerate_minimal_covers(four_cycle)
        lg, _ = relabel(four_cycle, part, covers)
        parts = x_parts(lg, enumerate_minimal_covers(as_graph(lg)))
        assert set(parts) == {frozenset(), frozenset({1, 2})}

    def test_matching_gives_boolean_family(self, two_disjoint_edges):
        part = bipartition(two_disjoint_edges)
        covers = enumerate_minimal_covers(two_disjoint_edges)
        lg, _ = relabel(two_disjoint_edges, part, covers)
        parts = x_parts(lg, enumerate_minimal_covers(as_graph(lg)))
        assert set(parts) == {
            frozenset(),
            frozenset({1}),
            frozenset({2}),
            frozenset({1, 2}),
        }

    def test_single_edge(self, single_edge):
        lg, _ = relabel(
            single_edge, bipartition(single_edge), enumerate_minimal_covers(single_edge)
        )
        parts = x_parts(lg, enumerate_minimal_covers(as_graph(lg)))
        assert set(parts) == {frozenset(), frozenset({1})}

    def test_complementarity_violation_detected(self):
        lg_edges = frozenset({(1, 1), (2, 2)})
        from coverlattice import LabeledBipartiteGraph

        lg = LabeledBipartiteGraph(2, lg_edges)
        with pytest.raises(CoverError, match="complementarity"):
            x_parts(lg, (frozenset({1, 3}),))  # x1 and y1 together
        with pytest.raises(CoverError, match="size"):
            x_parts(lg, (frozenset({1}),))

    def test_complementarity_message_names_the_first_bad_pair(self):
        from coverlattice import LabeledBipartiteGraph

        lg = LabeledBipartiteGraph(4, frozenset((i, i) for i in range(1, 5)))
        cases = [
            ({1, 2, 6, 8}, "pair 2 in cover [1, 2, 6, 8] (both present)"),
            ({1, 3, 7, 8}, "pair 2 in cover [1, 3, 7, 8] (both absent)"),
            ({1, 6, 3, 7}, "pair 3 in cover [1, 3, 6, 7] (both present)"),
            ({5, 6, 7, 3}, "pair 3 in cover [3, 5, 6, 7] (both present)"),
            ({5, 6, 7, 1}, "pair 1 in cover [1, 5, 6, 7] (both present)"),
            ({1, 2, 4, 8}, "pair 3 in cover [1, 2, 4, 8] (both absent)"),
        ]
        for cover, message in cases:
            with pytest.raises(CoverError) as info:
                x_parts(lg, (frozenset({4, 5, 6, 7}), frozenset(cover)))
            assert str(info.value) == f"complementarity violated at {message}"


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
        """Rank and dimension quantities do not depend on the matching choice."""
        from coverlattice import CoverLattice, dimension_report

        g = graph_from_edges([(i, 3 + j) for i in (1, 2, 3) for j in (1, 2, 3)])
        part = bipartition(g)
        covers = enumerate_minimal_covers(g)
        outcomes = set()
        tried = 0
        for perm in permutations(sorted(part.side_v)):
            pairing = dict(zip(sorted(part.side_u), perm))
            if not all((u, v) in g.edges for u, v in pairing.items()):
                continue
            tried += 1
            lg, _ = relabel(g, part, covers, matching=pairing)
            lcov = enumerate_minimal_covers(as_graph(lg))
            lat = CoverLattice(lg.n, x_parts(lg, lcov))
            rep = dimension_report(lg, lat)
            outcomes.add(
                (rep.rank_full, rep.rank_truncated, rep.lattice_rank, rep.dimension)
            )
        assert tried == 6  # complete bipartite side has 3! matchings
        assert len(outcomes) == 1


def test_format_covers(four_cycle):
    assert format_covers(enumerate_minimal_covers(four_cycle)) == "1 3\n2 4\n"
