import ast
import json
import random
from math import comb
from pathlib import Path

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


def _lose_covers(monkeypatch, lost):
    """Bron-Kerbosch, every search of a component included, loses the cover lost."""
    from coverlattice import covers
    from coverlattice.graphs import _to_mask

    search, lost_mask = covers._bron_kerbosch, _to_mask(lost)

    def lossy(non_nbr, within):
        return [s for s in search(non_nbr, within) if within ^ s != lost_mask]

    monkeypatch.setattr(covers, "_bron_kerbosch", lossy)


class TestAnalyzeGraph:
    def test_triangle_stops_at_bipartition(self):
        analysis = analyze_graph(parse_graph("1 2\n2 3\n1 3\n"))
        assert analysis.partition is None
        assert analysis.report is None and analysis.lattice is None
        assert analysis.unmixed  # three covers of size 2

    def test_mixed_graph_stops_before_relabel(self, five_vertex_graph):
        analysis = analyze_graph(five_vertex_graph)
        assert analysis.cover_size_counts == ((2, 1), (3, 2))
        assert analysis.partition is not None
        assert not analysis.unmixed
        assert analysis.labeled is None and analysis.report is None

    def test_unmixed_route_tests_the_preorder_once(self, monkeypatch, four_cycle):
        from coverlattice import lattice

        tested, test = [], lattice._is_preorder
        monkeypatch.setattr(lattice, "_is_preorder", lambda pred: tested.append(pred) or test(pred))
        assert analyze_graph(four_cycle).report.dimension == 2
        assert tested == [[0b11, 0b11]]

    def test_four_cycle_full_run(self, four_cycle):
        analysis = analyze_graph(four_cycle)
        assert analysis.cover_size_counts == ((2, 2),)
        assert "elements" not in vars(analysis.lattice)
        assert analysis.labeled is not None
        assert analysis.relabeling.x_source == (1, 3)
        assert [sorted(e) for e in analysis.lattice.elements] == [[], [1, 2]]
        assert analysis.report.dimension == 2

    def test_report_alarm_carries_the_relabeled_edges(self, monkeypatch):
        # x1=1, y1=4, x2=5, y2=2, x3=6, y3=3: a relabeling that is not the
        # identity, so the alarm's edges must be the labeled ones, not g's
        from coverlattice import algebra

        g = parse_graph("5 2\n1 4\n5 4\n6 3\n6 2\n6 4\n")
        labeled = analyze_graph(g).labeled
        monkeypatch.setattr(algebra, "rank", lambda lat: 0)  # the true rank is 2
        with pytest.raises(InconsistencyError) as info:
            analyze_graph(g)
        edges = info.value.details["edges"]
        assert edges == sorted(labeled.edges) == [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]

    def test_disconnected_unmixed_graph(self):
        # two components, one complete bipartite and one single edge
        g = parse_graph("1 2\n2 3\n3 4\n1 4\n5 6\n")
        analysis = analyze_graph(g)
        assert analysis.unmixed
        assert analysis.report is not None
        assert analysis.report.n == 3
        assert analysis.report.dimension == analysis.report.lattice_rank + 1

    def test_disjoint_paths_are_counted_per_component(self, monkeypatch, tmp_path, capsys):
        # 20 disjoint paths a-b-c have 2^20 minimal covers, {b} or {a, c} from
        # each path; Bron-Kerbosch lists the 2 covers of each path alone
        from coverlattice import cli, covers

        search, listed = covers._bron_kerbosch, []

        def counted(non_nbr, within):
            found = search(non_nbr, within)
            listed.append(len(found))
            return found

        monkeypatch.setattr(covers, "_bron_kerbosch", counted)
        text = "".join(f"{3 * i + 1} {3 * i + 2}\n{3 * i + 2} {3 * i + 3}\n" for i in range(20))
        analysis = analyze_graph(parse_graph(text), max_vertices=60)
        assert analysis.cover_size_counts == tuple((20 + k, comb(20, k)) for k in range(21))
        assert listed == [2] * 20
        path = tmp_path / "g.txt"
        path.write_text(text)
        assert cli.main(["check", str(path), "--max-vertices", "60"]) == 0
        assert capsys.readouterr().out == "bipartite=yes unmixed=no covers=1048576\n"
        assert listed == [2] * 40


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
        from coverlattice.graphs import _canonical

        enumerate_all = pipeline._cover_masks

        def drop_one(g):
            masks = _canonical(enumerate_all(g), g.vertex_count)
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

    def test_unexpected_names_covers_that_are_no_c_a(self, monkeypatch):
        # {x1, y1} replaces C_{1} = {x1, y2}: the x-parts are still the lattice's elements
        from coverlattice import pipeline

        monkeypatch.setattr(pipeline, "_cover_masks", lambda g: [0b1100, 0b0101, 0b0011])
        with pytest.raises(InconsistencyError, match="cover projection") as info:
            verify_lattice(CoverLattice(2, (frozenset(), frozenset({1}), frozenset({1, 2}))))
        details = info.value.details
        assert details["actual"] == details["expected"] == [[], [1], [1, 2]]
        assert details["unexpected"] == [[1, 3]]

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

    def _dim_exit_code(self, tmp_path, text):
        from coverlattice.cli import main

        path = tmp_path / "g.txt"
        path.write_text(text)
        return main(["dim", str(path)])

    def test_lost_large_cover_fails_the_preorder(self, monkeypatch, tmp_path, capsys):
        # the path 1-...-6 is mixed only through {1,3,4,6}: its labeled edges
        # have 3 <= 2 <= 1 and not 3 <= 1, so Bron-Kerbosch runs, and without
        # that cover it finds every cover of size 3
        _lose_covers(monkeypatch, frozenset({1, 3, 4, 6}))
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
        from coverlattice import cli, covers

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

        def no_search(non_nbr, within):
            raise AssertionError("Bron-Kerbosch ran on an unmixed bipartite graph")

        monkeypatch.setattr(covers, "_bron_kerbosch", no_search)
        assert outputs() == expected


class TestAlarmStages:
    """Every InconsistencyError names the step that raised it in details["stage"]."""

    STAGES = (
        "analyze_graph",
        "dimension_report",
        "from_preorder",
        "cover_projection",
        "multichain",
    )
    BOOLEAN1 = CoverLattice(1, (frozenset(), frozenset({1})))

    def _analyze_graph(self, monkeypatch):
        _lose_covers(monkeypatch, frozenset({1, 3, 4, 6}))
        analyze_graph(parse_graph("1 2\n2 3\n3 4\n4 5\n5 6\n"))

    def _dimension_report(self, monkeypatch):
        from coverlattice import algebra

        monkeypatch.setattr(algebra, "rank", lambda lat: 0)  # the true rank is 1
        algebra.dimension_report(self.BOOLEAN1)

    def _from_preorder(self, monkeypatch):
        CoverLattice._from_preorder(3, [0b001, 0b011, 0b110])  # 1 <= 2 <= 3, not 1 <= 3

    def _cover_projection(self, monkeypatch):
        from coverlattice import pipeline

        monkeypatch.setattr(pipeline, "_cover_masks", lambda g: [])
        verify_lattice(self.BOOLEAN1)

    def test_lost_cover_of_one_component_is_caught(self, monkeypatch):
        # the Boolean lattice on 2 points: x1 y1 and x2 y2, two components;
        # the search of {x1, y1} (vertices 1 and 3) loses the cover {x1}
        _lose_covers(monkeypatch, frozenset({1}))
        boolean2 = CoverLattice(2, [(), (1,), (2,), (1, 2)])
        with pytest.raises(InconsistencyError) as info:
            verify_lattice(boolean2)
        assert info.value.details["stage"] == "cover_projection"
        assert info.value.details["actual"] == [[], [2]]

    def _multichain(self, monkeypatch):
        from coverlattice import pipeline

        monkeypatch.setattr(pipeline, "multichain_counts", lambda lat, levels: [1] * levels)
        verify_lattice(self.BOOLEAN1)

    @pytest.mark.parametrize("stage", STAGES)
    def test_alarm_names_its_stage(self, monkeypatch, stage):
        with pytest.raises(InconsistencyError) as info:
            getattr(self, f"_{stage}")(monkeypatch)
        assert info.value.details["stage"] == stage
        json.dumps(info.value.details)  # main prints them as json on stderr

    def test_every_raise_is_one_of_the_stages(self):
        # each InconsistencyError(...) in the package passes a literal details["stage"]
        import coverlattice

        stages = []
        for path in sorted(Path(coverlattice.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if getattr(getattr(node, "func", None), "id", "") == "InconsistencyError":
                    details = next(k.value for k in node.keywords if k.arg == "details")
                    keys = [getattr(k, "value", None) for k in details.keys]
                    assert "stage" in keys, f"{path.name}:{node.lineno} names no stage"
                    stages.append(details.values[keys.index("stage")].value)
        assert sorted(stages) == sorted(self.STAGES)
