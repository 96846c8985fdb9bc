import random

import pytest

from coverlattice import (
    CoverLattice,
    InconsistencyError,
    analyze_graph,
    parse_graph,
    random_sublattice,
    rank,
    verify_lattice,
)

from conftest import FOUR_CYCLE_TEXT, matching_graph
from oracles import analyze_graph_by_covers, longest_chain_cardinality


class TestAnalyzeGraph:
    def test_triangle_stops_at_bipartition(self):
        analysis = analyze_graph(parse_graph("1 2\n2 3\n1 3\n"))
        assert analysis.partition is None
        assert analysis.report is None and analysis.lattice is None
        assert analysis.unmixed  # three covers of size 2

    def test_mixed_graph_stops_before_relabel(self, five_vertex_graph):
        analysis = analyze_graph(five_vertex_graph)
        assert analysis.cover_sizes == (2, 3, 3)
        assert analysis.partition is not None
        assert not analysis.unmixed
        assert analysis.labeled is None and analysis.report is None

    def test_four_cycle_full_run(self, four_cycle):
        analysis = analyze_graph(four_cycle)
        assert analysis.cover_sizes == (2, 2)
        assert "elements" not in vars(analysis.lattice)
        assert analysis.labeled is not None
        assert analysis.relabeling.x_source == (1, 3)
        assert [sorted(e) for e in analysis.lattice.elements] == [[], [1, 2]]
        assert analysis.report.dimension == 2

    def test_disconnected_unmixed_graph(self):
        # two components, one complete bipartite and one single edge
        g = parse_graph("1 2\n2 3\n3 4\n1 4\n5 6\n")
        analysis = analyze_graph(g)
        assert analysis.unmixed
        assert analysis.report is not None
        assert analysis.report.n == 3
        assert analysis.report.dimension == analysis.report.lattice_rank + 1


class TestVerifyLattice:
    def test_growth_checked_on_small_instance(self):
        lat = CoverLattice(2, (frozenset(), frozenset({1, 2})))
        outcome = verify_lattice(lat)
        assert not outcome.growth_skipped
        assert outcome.growth_dimension == outcome.report.rank_full == 2

    def test_growth_checked_on_large_instance(self):
        boolean4 = CoverLattice(
            4,
            tuple(
                frozenset(i + 1 for i in range(4) if mask >> i & 1)
                for mask in range(16)
            ),
        )
        outcome = verify_lattice(boolean4)
        assert not outcome.growth_skipped
        assert outcome.growth_dimension == outcome.report.dimension == 5

    def test_growth_never_skipped(self):
        rng = random.Random(3)
        for _ in range(40):
            lat = random_sublattice(8, rng.randint(0, 18), rng.getrandbits(32))
            outcome = verify_lattice(lat)
            assert not outcome.growth_skipped
            assert outcome.growth_dimension == longest_chain_cardinality(lat.elements)

    @pytest.mark.parametrize("wrong_rank", [1, 3])
    def test_wrong_degree_raises(self, monkeypatch, wrong_rank):
        from coverlattice import pipeline

        def boolean_counts(lat, max_length):
            # the Hilbert function (t+1)^r of the Boolean lattice of rank r
            return [(t + 1) ** wrong_rank for t in range(1, max_length + 1)]

        monkeypatch.setattr(pipeline, "multichain_counts", boolean_counts)
        lat = CoverLattice(2, (frozenset(), frozenset({1}), frozenset({1, 2})))
        assert rank(lat) == 2
        with pytest.raises(InconsistencyError, match="multichain") as info:
            verify_lattice(lat)
        assert info.value.details["lattice"] == [[], [1], [1, 2]]

    @pytest.mark.parametrize("lost", range(4))
    def test_lost_cover_raises(self, monkeypatch, lost):
        # losing the all-x or the all-y cover leaves x-parts that are no lattice
        from coverlattice import pipeline
        from coverlattice.lattice import _canonical

        enumerate_all = pipeline._cover_masks

        def drop_one(g, max_vertices):
            masks = _canonical(enumerate_all(g, max_vertices), g.vertex_count)
            return masks[:lost] + masks[lost + 1 :]

        monkeypatch.setattr(pipeline, "_cover_masks", drop_one)
        boolean2 = CoverLattice(
            2, (frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2}))
        )
        with pytest.raises(
            InconsistencyError, match="cover projection does not reproduce the lattice"
        ) as info:
            verify_lattice(boolean2)
        assert info.value.details["expected"] == [[], [1], [2], [1, 2]]
        actual = info.value.details["actual"]
        assert len(actual) == 3 and set(map(tuple, actual)) < {(), (1,), (2,), (1, 2)}
        assert actual == sorted(actual, key=lambda e: (len(e), e))

    def test_enumeration_cap_is_the_graphs_vertex_count(self):
        # the 13-point chain: its graph has 26 vertices, over the default cap of 24
        chain = CoverLattice(13, (frozenset(), frozenset({1}), frozenset(range(1, 14))))
        outcome = verify_lattice(chain)
        assert outcome.report.rank_full == 3

    def test_labeled_graph_matches_lattice(self):
        lat = CoverLattice(2, (frozenset(), frozenset({1}), frozenset({1, 2})))
        outcome = verify_lattice(lat)
        assert outcome.labeled.edges == frozenset({(1, 1), (2, 2), (1, 2)})
        assert outcome.lattice == lat


class TestAnalyzeGraphAlarms:
    """Bron-Kerbosch on a bipartite graph with a perfect matching checks the preorder test."""

    @pytest.fixture
    def lose(self, monkeypatch):
        from coverlattice import pipeline
        from coverlattice.lattice import _canonical, _mask_to_set

        enumerate_all = pipeline._cover_masks

        def install(lost):
            # lost(k, cover) sees the k-th cover in canonical order, as a set
            def lossy(g, max_vertices):
                masks = _canonical(enumerate_all(g, max_vertices), g.vertex_count)
                return [m for k, m in enumerate(masks) if not lost(k, _mask_to_set(m))]

            monkeypatch.setattr(pipeline, "_cover_masks", lossy)

        return install

    def _dim_exit_code(self, tmp_path, text):
        from coverlattice.cli import main

        path = tmp_path / "g.txt"
        path.write_text(text)
        return main(["dim", str(path)])

    def test_lost_large_cover_fails_the_preorder(self, lose, tmp_path, capsys):
        # the path 1-...-6 is mixed only through {1,3,4,6}: its labeled edges
        # have 3 <= 2 <= 1 and not 3 <= 1, so Bron-Kerbosch runs, and without
        # that cover it finds every cover of size 3
        lose(lambda k, c: c == frozenset({1, 3, 4, 6}))
        text = "1 2\n2 3\n3 4\n4 5\n5 6\n"
        message = "all 4 minimal covers have size 3, but the labeled edges are not a preorder"
        with pytest.raises(InconsistencyError, match=message) as info:
            analyze_graph(parse_graph(text))
        assert info.value.details == {
            "n": 3,
            "edges": [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)],
            "stage": "analyze_graph",
        }
        assert self._dim_exit_code(tmp_path, text) == 1
        assert f"INCONSISTENCY: {message}" in capsys.readouterr().err


class TestPreorderRoute:
    """check, lattice and dim of an unmixed bipartite graph list no cover."""

    @pytest.mark.parametrize(
        "edges, check_line",
        [
            (FOUR_CYCLE_TEXT, "bipartite=yes unmixed=yes covers=2 cm=no\n"),
            (
                "".join(f"{u} {v}\n" for u, v in matching_graph(12).edges),
                "bipartite=yes unmixed=yes covers=4096 cm=yes\n",
            ),
        ],
    )
    def test_same_output_without_bron_kerbosch(
        self, monkeypatch, tmp_path, capsys, edges, check_line
    ):
        from coverlattice import cli, pipeline

        path = tmp_path / "g.txt"
        path.write_text(edges)

        def outputs():
            out = []
            for command in ("check", "lattice", "dim"):
                assert cli.main([command, str(path)]) == 0
                out.append(capsys.readouterr().out)
            return out

        with monkeypatch.context() as m:
            m.setattr(cli, "analyze_graph", analyze_graph_by_covers)
            expected = outputs()
        assert expected[0] == check_line

        def no_covers(g, max_vertices):
            raise AssertionError("Bron-Kerbosch ran on an unmixed bipartite graph")

        monkeypatch.setattr(pipeline, "_cover_masks", no_covers)
        assert outputs() == expected
