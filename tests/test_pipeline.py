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

from oracles import longest_chain_cardinality


class TestAnalyzeGraph:
    def test_triangle_stops_at_bipartition(self):
        analysis = analyze_graph(parse_graph("1 2\n2 3\n1 3\n"))
        assert analysis.partition is None
        assert analysis.report is None and analysis.lattice is None
        assert analysis.unmixed  # three covers of size 2

    def test_mixed_graph_stops_before_relabel(self, five_vertex_graph):
        analysis = analyze_graph(five_vertex_graph)
        assert analysis.partition is not None
        assert not analysis.unmixed
        assert analysis.labeled is None and analysis.report is None

    def test_four_cycle_full_run(self, four_cycle):
        analysis = analyze_graph(four_cycle)
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

        enumerate_all = pipeline.enumerate_minimal_covers

        def drop_one(g, max_vertices):
            covers = enumerate_all(g, max_vertices=max_vertices)
            return covers[:lost] + covers[lost + 1 :]

        monkeypatch.setattr(pipeline, "enumerate_minimal_covers", drop_one)
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

    def test_labeled_graph_matches_lattice(self):
        lat = CoverLattice(2, (frozenset(), frozenset({1}), frozenset({1, 2})))
        outcome = verify_lattice(lat)
        assert outcome.labeled.edges == frozenset({(1, 1), (2, 2), (1, 2)})
        assert outcome.lattice == lat


class TestAnalyzeGraphAlarms:
    """The lattice read off the labeled edges checks the cover enumeration."""

    @pytest.fixture
    def lose(self, monkeypatch):
        from coverlattice import pipeline

        enumerate_all = pipeline.enumerate_minimal_covers

        def install(lost):
            def lossy(g, max_vertices):
                covers = enumerate_all(g, max_vertices=max_vertices)
                return tuple(c for k, c in enumerate(covers) if not lost(k, c))

            monkeypatch.setattr(pipeline, "enumerate_minimal_covers", lossy)

        return install

    def _dim_exit_code(self, tmp_path, text):
        from coverlattice.cli import main

        path = tmp_path / "g.txt"
        path.write_text(text)
        return main(["dim", str(path)])

    def test_lost_cover_fails_the_count(self, lose, tmp_path, capsys):
        # the 2-edge matching less {1,4}: three covers, all of size 2, so
        # still unmixed, but the labeled edges give the four-element lattice
        lose(lambda k, c: k == 1)
        text = "1 2\n3 4\n"
        with pytest.raises(InconsistencyError, match="has 4 elements, covers=3") as info:
            analyze_graph(parse_graph(text))
        assert info.value.details == {"n": 2, "edges": [(1, 1), (2, 2)]}
        assert self._dim_exit_code(tmp_path, text) == 1
        assert "INCONSISTENCY: lattice of the labeled edges has 4" in capsys.readouterr().err

    def test_lost_large_cover_fails_the_preorder(self, lose, tmp_path, capsys):
        # the path 1-...-6 is mixed only through {1,3,4,6}; without it every
        # cover has size 3, but 3 <= 2 <= 1 and not 3 <= 1 in the labeled edges
        lose(lambda k, c: c == frozenset({1, 3, 4, 6}))
        text = "1 2\n2 3\n3 4\n4 5\n5 6\n"
        with pytest.raises(InconsistencyError, match="not a preorder") as info:
            analyze_graph(parse_graph(text))
        assert info.value.details == {"n": 3, "pred": [[1, 2], [2, 3], [3]]}
        assert self._dim_exit_code(tmp_path, text) == 1
        assert "INCONSISTENCY: relation is not a preorder" in capsys.readouterr().err
