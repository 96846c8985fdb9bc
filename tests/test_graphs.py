import random

import pytest
from hypothesis import given, settings, strategies as st

from coverlattice import (
    Bipartition,
    GraphError,
    LabeledBipartiteGraph,
    as_graph,
    bipartition,
    graph_from_edges,
    parse_graph,
    parse_labeled,
    serialize_labeled,
)

from coverlattice.graphs import _canonical, _members, _set_texts

from oracles import disjoint_union, has_odd_closed_walk, random_graph


def component_roots(g):
    """The lowest vertex of each connected component, by spreading the smaller label."""
    label = {v: v for v in range(1, g.vertex_count + 1)}
    changed = True
    while changed:
        changed = False
        for a, b in g.edges:
            low = min(label[a], label[b])
            if label[a] != low or label[b] != low:
                label[a] = label[b] = low
                changed = True
    return set(label.values())


class TestParse:
    def test_minimal_path(self):
        g = parse_graph("1 2\n2 3")
        assert g.vertex_count == 3
        assert g.edges == frozenset({(1, 2), (2, 3)})

    def test_five_vertex_example(self, five_vertex_graph):
        assert five_vertex_graph.vertex_count == 5
        assert five_vertex_graph.edges == frozenset(
            {(1, 2), (2, 3), (3, 4), (1, 4), (4, 5)}
        )

    def test_comments_and_blank_lines(self):
        g = parse_graph("# header\n\n1 2  # trailing\n2 3\n")
        assert g.vertex_count == 3

    def test_loop_rejected(self):
        with pytest.raises(GraphError, match="line 1.*loop"):
            parse_graph("1 1")

    def test_duplicate_rejected_with_line(self):
        with pytest.raises(GraphError, match="line 2.*duplicate"):
            parse_graph("1 2\n2 1\n")

    def test_malformed_line(self):
        with pytest.raises(GraphError, match="line 1"):
            parse_graph("1 2 3\n")

    def test_non_integer(self):
        with pytest.raises(GraphError, match="line 1.*non-integer"):
            parse_graph("a b\n")

    def test_isolated_vertex_rejected(self):
        # index 3 is below the maximum 5 but never mentioned
        with pytest.raises(GraphError, match="isolated"):
            parse_graph("1 2\n4 5\n")
        # ten isolated vertices are all named; from eleven on, the rest are counted
        listed = r"allowed: \[2, 3, 4, 5, 6, 7, 8, 9, 10, 11\]"
        with pytest.raises(GraphError, match=listed + "$"):
            parse_graph("1 12\n")
        with pytest.raises(GraphError, match=listed + " and 1 more$"):
            parse_graph("1 13\n")

    def test_zero_index_rejected(self):
        with pytest.raises(GraphError, match="1-based"):
            parse_graph("0 1\n")

    def test_empty_document(self):
        with pytest.raises(GraphError, match="no edges"):
            parse_graph("# nothing\n")

    def test_serialize_parse_identity(self, five_vertex_graph):
        text = "".join(f"{u} {v}\n" for u, v in sorted(five_vertex_graph.edges))
        assert parse_graph(text) == five_vertex_graph

    @given(st.integers(0, 10_000))
    def test_serialize_parse_round_trip_random(self, seed):
        g = random_graph(random.Random(seed), max_vertices=10)
        assert parse_graph("".join(f"{u} {v}\n" for u, v in sorted(g.edges))) == g


class TestSetWriter:
    """_set_texts, the one writer of every printed set, and _members, every JSON list."""

    def test_members_are_the_set_bits_ascending(self):
        rng = random.Random(3)
        for _ in range(500):
            m = rng.getrandbits(rng.randint(0, 40))
            assert _members(m) == [i + 1 for i in range(m.bit_length()) if m >> i & 1]

    @pytest.mark.parametrize("empty", ["absent", "first", "later"])
    def test_each_text_is_the_joined_members_in_any_order(self, empty):
        rng = random.Random(["absent", "first", "later"].index(empty))
        for _ in range(300):
            width = rng.randint(1, 9)
            masks = rng.sample(range(1, 1 << width), rng.randint(1, min(40, (1 << width) - 1)))
            order = rng.choice(["drawn", "canonical", "reversed"])
            if order != "drawn":
                masks = _canonical(masks, width)[:: 1 if order == "canonical" else -1]
            if empty == "first":
                masks.insert(0, 0)
            elif empty == "later":
                masks.insert(rng.randint(1, len(masks)), 0)
            for sep in (",", " ", ", "):
                expected = [sep.join(map(str, _members(m))) for m in masks]
                assert _set_texts(masks, width, sep) == expected


class TestBipartition:
    def test_four_cycle(self, four_cycle):
        part = bipartition(four_cycle)
        assert (part.side_u, part.side_v) == (frozenset({1, 3}), frozenset({2, 4}))

    def test_triangle_has_none(self):
        assert bipartition(parse_graph("1 2\n2 3\n1 3\n")) is None

    def test_five_vertex_example(self, five_vertex_graph):
        part = bipartition(five_vertex_graph)
        assert (part.side_u, part.side_v) == (frozenset({1, 3, 5}), frozenset({2, 4}))

    def test_two_colors_every_edge(self, five_vertex_graph):
        part = bipartition(five_vertex_graph)
        for u, v in five_vertex_graph.edges:
            assert (u in part.side_u) != (v in part.side_u)

    @given(st.integers(0, 10_000))
    def test_agrees_with_odd_walk_oracle(self, seed):
        g = random_graph(random.Random(seed), max_vertices=9)
        part = bipartition(g)
        if part is None:
            assert has_odd_closed_walk(g)
        else:
            assert not has_odd_closed_walk(g)
            for u, v in g.edges:
                assert (u in part.side_u) != (v in part.side_u)

    @given(st.integers(0, 10_000))
    @settings(deadline=None)
    def test_documented_rule_on_disjoint_unions(self, seed):
        rng = random.Random(seed)
        g = disjoint_union([random_graph(rng, max_vertices=5) for _ in range(rng.randint(1, 3))])
        part = bipartition(g)
        assert (part is None) == has_odd_closed_walk(g)
        if part is not None:
            assert part.side_u | part.side_v == set(range(1, g.vertex_count + 1))
            assert not part.side_u & part.side_v
            assert component_roots(g) <= part.side_u

    def test_odd_cycle_only_in_a_later_component(self):
        # the first component, 1-2, two-colors; the triangle 3-4-5 does not
        assert bipartition(parse_graph("1 2\n3 4\n4 5\n3 5\n")) is None
        assert bipartition(parse_graph("1 2\n3 4\n4 5\n")) == Bipartition(
            frozenset({1, 3, 5}), frozenset({2, 4})
        )


class TestLabeled:
    def test_diagonal_required(self):
        with pytest.raises(GraphError, match="diagonal"):
            LabeledBipartiteGraph(2, frozenset({(1, 1), (1, 2)}))

    def test_out_of_range_edge(self):
        with pytest.raises(GraphError, match="out of range"):
            LabeledBipartiteGraph(2, frozenset({(1, 1), (2, 2), (3, 1)}))

    def test_as_graph_offsets_y_side(self):
        lg = LabeledBipartiteGraph(2, frozenset({(1, 1), (2, 2), (2, 1)}))
        g = as_graph(lg)
        assert g.vertex_count == 4
        assert g.edges == frozenset({(1, 3), (2, 4), (2, 3)})

    def test_labeled_serialization_round_trip(self):
        lg = LabeledBipartiteGraph(3, frozenset({(1, 1), (2, 2), (3, 3), (1, 3)}))
        assert parse_labeled(serialize_labeled(lg)) == lg

    def test_labeled_parse_needs_header(self):
        with pytest.raises(GraphError, match="header"):
            parse_labeled("1 1\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# c\n\nx=2  # d\n", "line 3: expected header 'n=<count>', got 'x=2  # d'"),
            ("# c\nn=two\n1 1\n", "line 2: bad count in 'n=two'"),
            ("n=2\n1 1 2\n", "line 2: expected 'i j', got '1 1 2'"),
            ("n=2\n1 1\n\n1 x  # y\n", "line 4: non-integer index in '1 x  # y'"),
            ("# only a comment\n\n", "missing 'n=<count>' header"),
        ],
    )
    def test_labeled_parse_error_messages(self, text, message):
        with pytest.raises(GraphError) as info:
            parse_labeled(text)
        assert str(info.value) == message

    def test_labeled_parse_skips_comments_and_blank_lines(self):
        lg = parse_labeled("# c\n\nn=2  # two\n1 1\n\n2 2 # d\n1 2\n")
        assert lg == LabeledBipartiteGraph(2, frozenset({(1, 1), (2, 2), (1, 2)}))


def test_graph_from_edges_normalizes_orientation():
    g = graph_from_edges([(2, 1), (3, 2)])
    assert g.edges == frozenset({(1, 2), (2, 3)})
