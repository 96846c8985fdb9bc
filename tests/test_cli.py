import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import coverlattice
from coverlattice.cli import main
from coverlattice.lattice import MAX_LATTICE_N

from conftest import FIVE_VERTEX_TEXT, FOUR_CYCLE_TEXT, matching_graph


def _run_capped(*args):
    """Run python with args in a child capped at 1 GB of address space; (result, seconds).

    The cap and a timeout turn a dropped size guard into a failure rather than a hang.
    """
    memory = 1 << 30

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (memory, memory))

    env = dict(os.environ, PYTHONPATH=str(Path(coverlattice.__file__).parents[1]))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=30,
        preexec_fn=cap_memory,
        env=env,
    )
    return done, time.perf_counter() - start


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


class TestCheck:
    def test_mixed_graph(self, write, capsys):
        assert main(["check", write("g.txt", FIVE_VERTEX_TEXT)]) == 0
        assert capsys.readouterr().out.strip() == "bipartite=yes unmixed=no covers=3"

    def test_four_cycle(self, write, capsys):
        assert main(["check", write("g.txt", FOUR_CYCLE_TEXT)]) == 0
        assert capsys.readouterr().out.strip() == "bipartite=yes unmixed=yes covers=2 cm=no"

    def test_two_disjoint_edges(self, write, capsys):
        assert main(["check", write("g.txt", "1 2\n3 4\n")]) == 0
        out = capsys.readouterr().out
        assert "unmixed=yes" in out and "cm=yes" in out

    def test_triangle_not_bipartite(self, write, capsys):
        assert main(["check", write("g.txt", "1 2\n2 3\n1 3\n")]) == 0
        assert "bipartite=no" in capsys.readouterr().out

    def test_json(self, write, capsys):
        assert main(["check", "--format", "json", write("g.txt", FOUR_CYCLE_TEXT)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "bipartite": True,
            "unmixed": True,
            "covers": 2,
            "cohen_macaulay": False,
        }

    def test_labeled_file_after_a_comment_and_a_blank_line(self, write, capsys):
        from coverlattice.cli import _load_graph
        from coverlattice.graphs import as_graph, parse_labeled

        text = "# c\n\nn=2\n1 1  # d\n2 2\n1 2\n"
        path = write("l.txt", text)
        assert _load_graph(path) == as_graph(parse_labeled(text))
        assert main(["check", path]) == 0
        assert capsys.readouterr().out == "bipartite=yes unmixed=yes covers=3 cm=yes\n"

    def test_parse_error_exits_2(self, write, capsys):
        assert main(["check", write("g.txt", "1 1\n")]) == 2
        assert "loop" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["check", "/nonexistent/file.txt"]) == 2

    def test_cap_refused_before_bipartition(self, write, capsys, monkeypatch):
        from coverlattice import pipeline

        def no_bipartition(g):
            raise AssertionError("bipartition ran on a graph over the vertex cap")

        monkeypatch.setattr(pipeline, "bipartition", no_bipartition)
        path = write("g.txt", "".join(f"{u} {v}\n" for u, v in matching_graph(13).edges))
        assert main(["check", path]) == 2
        assert capsys.readouterr().err == (
            "error: 26 vertices exceeds the enumeration cap of 24; "
            "raise max_vertices to override\n"
        )

    def test_far_vertex_is_counted_not_listed(self, write):
        # 999999998 isolated vertices: the error names ten and counts the rest
        path = write("g.txt", "1 1000000000\n")
        done, seconds = _run_capped("-m", "coverlattice.cli", "check", path)
        assert seconds < 1.0
        assert done.returncode == 2
        assert len(done.stderr.encode()) < 200
        assert done.stderr == (
            "error: isolated vertices are not allowed: "
            "[2, 3, 4, 5, 6, 7, 8, 9, 10, 11] and 999999988 more\n"
        )


class TestCovers:
    def test_lists_all(self, write, capsys):
        assert main(["covers", write("g.txt", FIVE_VERTEX_TEXT)]) == 0
        assert capsys.readouterr().out == "2 4\n1 3 4\n1 3 5\n"

    def test_cap_override(self, write, capsys):
        edges = "\n".join(f"{2 * i + 1} {2 * i + 2}" for i in range(13))
        path = write("g.txt", edges + "\n")
        assert main(["covers", path]) == 2
        assert main(["covers", "--max-vertices", "26", path]) == 0


class TestDim:
    def test_four_cycle(self, write, capsys):
        assert main(["dim", write("g.txt", FOUR_CYCLE_TEXT)]) == 0
        out = capsys.readouterr().out
        assert "dimension=2" in out
        assert "lattice_rank=1" in out

    def test_two_disjoint_edges(self, write, capsys):
        assert main(["dim", write("g.txt", "1 2\n3 4\n")]) == 0
        out = capsys.readouterr().out
        assert "dimension=3" in out and "lattice_rank=2" in out

    def test_single_edge(self, write, capsys):
        assert main(["dim", write("g.txt", "1 2\n")]) == 0
        assert "dimension=2" in capsys.readouterr().out

    def test_dot_on_twelve_edge_matching_takes_seconds(self, write, tmp_path, capsys):
        # the Boolean lattice of rank 12: 4096 elements, 12 * 2^11 Hasse edges
        graph = write("g.txt", "".join(f"{u} {v}\n" for u, v in matching_graph(12).edges))
        dot = tmp_path / "hasse.dot"
        start = time.perf_counter()
        assert main(["dim", graph, "--dot", str(dot)]) == 0
        elapsed = time.perf_counter() - start
        assert capsys.readouterr().out == (
            "n=12\ncovers=4096\nrank_full=13\nrank_truncated=12\nlattice_rank=12\n"
            "dimension=13\ndim_matches_lattice_rank=yes\ncohen_macaulay=yes\n"
            "rank_full_mod2=13\nrank_full_mod3=13\n"
        )
        lines = dot.read_text().splitlines()
        assert sum("->" in line for line in lines) == 12 * 2**11
        assert len(lines) == 3 + 4096 + 12 * 2**11
        assert elapsed < 10, f"dim --dot took {elapsed:.1f}s"

    def test_mixed_graph_exits_2(self, write, capsys):
        assert main(["dim", write("g.txt", FIVE_VERTEX_TEXT)]) == 2
        assert "not unmixed" in capsys.readouterr().err

    def test_non_bipartite_exits_2(self, write, capsys):
        assert main(["dim", write("g.txt", "1 2\n2 3\n1 3\n")]) == 2
        assert "not bipartite" in capsys.readouterr().err

    def test_json_payload(self, write, capsys):
        assert main(["dim", "--format", "json", write("g.txt", "1 2\n3 4\n")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dimension"] == 3
        assert payload["cohen_macaulay"] is True
        assert "rank_full_mod2" in payload

    def test_rank_truncated_differing_from_lattice_rank_exits_1(self, write, capsys, monkeypatch):
        from coverlattice import algebra

        rank = algebra.rank
        monkeypatch.setattr(algebra, "rank", lambda lat: rank(lat) + 1)
        assert main(["dim", write("g.txt", "1 2\n3 4\n")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "INCONSISTENCY: rank_truncated=2 differs from lattice_rank=3\n"
        )
        assert '"rank_full": 3' in captured.err
        assert '"lattice_rank": 3' in captured.err

    def test_gram_matrix_not_semidefinite_exits_1(self, write, capsys, monkeypatch):
        from coverlattice import algebra

        downset_counter = algebra._downset_counter

        def counter(pred):  # the corner |L| = 2 read as 0: G = [[1, 1], [1, 0]]
            count = downset_counter(pred)
            return lambda s: count(s) - 2 * (s == (1 << len(pred)) - 1)

        monkeypatch.setattr(algebra, "_downset_counter", counter)
        assert main(["dim", write("g.txt", "1 2\n")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        head, details = captured.err.split("\n", 1)
        assert head == (
            "INCONSISTENCY: not positive semidefinite: "
            "diagonal 1 is -1 after elimination, its row [-1]"
        )
        details = json.loads(details)
        assert details["stage"] == "dimension_report"
        assert details["gram"] == [[1, 1], [1, 0]] and details["edges"] == [[1, 1]]


class TestCountedRoute:
    """check and dim count the lattice from the graph's preorder and list no element."""

    M12 = "".join(f"{2 * i + 1} {2 * i + 2}\n" for i in range(12))
    CLASS2 = "n=2\n1 1\n2 2\n1 2\n2 1\n"  # the preorder has the one class {1, 2}
    EXPECTED = {
        (M12, "check"): "bipartite=yes unmixed=yes covers=4096 cm=yes\n",
        (M12, "dim"): (
            "n=12\ncovers=4096\nrank_full=13\nrank_truncated=12\nlattice_rank=12\n"
            "dimension=13\ndim_matches_lattice_rank=yes\ncohen_macaulay=yes\n"
            "rank_full_mod2=13\nrank_full_mod3=13\n"
        ),
        (CLASS2, "check"): "bipartite=yes unmixed=yes covers=2 cm=no\n",
        (CLASS2, "dim"): (
            "n=2\ncovers=2\nrank_full=2\nrank_truncated=1\nlattice_rank=1\n"
            "dimension=2\ndim_matches_lattice_rank=yes\ncohen_macaulay=no\n"
            "rank_full_mod2=2\nrank_full_mod3=2\n"
        ),
    }

    def _outputs(self, write, capsys):
        outputs = {}
        for text, command in self.EXPECTED:
            path = write("g.txt", text)
            for argv in ([command, path], [command, "--format", "json", path]):
                assert main(argv) == 0
                outputs[text, *argv[:-1]] = capsys.readouterr().out
        return outputs

    def test_check_and_dim_list_no_element(self, write, capsys, monkeypatch):
        from coverlattice import lattice

        unpatched = self._outputs(write, capsys)
        for (text, command), expected in self.EXPECTED.items():
            assert unpatched[text, command] == expected

        def refuse(pred, limit):
            raise AssertionError("a down-set was listed")

        monkeypatch.setattr(lattice, "_downsets", refuse)
        assert self._outputs(write, capsys) == unpatched

    def test_lattice_and_dot_still_list_every_element(self, write, tmp_path, capsys):
        path = write("g.txt", self.M12)
        assert main(["lattice", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n=12" and len(set(lines[1:])) == 4096
        dot = tmp_path / "m12d.dot"
        assert main(["dim", path, "--dot", str(dot)]) == 0
        assert capsys.readouterr().out == self.EXPECTED[self.M12, "dim"]
        nodes = [line for line in dot.read_text().splitlines() if line.startswith('  "{')]
        assert sum("->" not in line for line in nodes) == 4096

    @pytest.mark.parametrize("command", ["check", "dim"])
    def test_past_the_lattice_cap_exits_2(self, write, command):
        # the down-set count recurses n deep: n = 1000 ended in a RecursionError
        edges = matching_graph(MAX_LATTICE_N + 1).edges
        path = write("g.txt", "".join(f"{u} {v}\n" for u, v in edges))
        done, _ = _run_capped("-m", "coverlattice.cli", command, path, "--max-vertices", "600")
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == (
            "error: n=257 exceeds the cap of 256 for an unmixed bipartite graph\n"
        )

    def test_the_lattice_cap_admits_n_256(self, monkeypatch):
        from coverlattice import pipeline

        class Reached(Exception):
            pass

        def reached(lat):
            raise Reached

        monkeypatch.setattr(pipeline, "dimension_report", reached)
        with pytest.raises(Reached):
            pipeline.analyze_graph(matching_graph(MAX_LATTICE_N), 2 * MAX_LATTICE_N)


class TestLattice:
    def test_emits_lattice_file(self, write, capsys):
        assert main(["lattice", write("g.txt", "1 2\n3 4\n")]) == 0
        assert capsys.readouterr().out == "n=2\n{}\n1\n2\n1,2\n"

    def test_dot_export(self, write, tmp_path, capsys):
        dot = tmp_path / "hasse.dot"
        assert main(["lattice", "--dot", str(dot), write("g.txt", FOUR_CYCLE_TEXT)]) == 0
        text = dot.read_text()
        assert text.startswith("digraph hasse {")
        assert '"{}" -> "{1,2}";' in text


class TestPrintPathsFromMasks:
    """covers and --dot print straight from masks: no cover or element frozenset is built."""

    def test_pinned_digests_hold_with_no_mask_to_set(self, write, tmp_path, capsys, monkeypatch):
        from coverlattice import covers, graphs, lattice

        def refuse(mask):
            raise AssertionError("a print path built a frozenset")

        for module in (graphs, covers, lattice):
            monkeypatch.setattr(module, "_mask_to_set", refuse)

        def digest(text):
            return hashlib.sha256(text.encode()).hexdigest()

        def matching(k):
            return write(f"m{k}.txt", "".join(f"{2 * i + 1} {2 * i + 2}\n" for i in range(k)))

        # the values pinned in the CI workflow's console-script step
        m16 = matching(16)
        assert main(["covers", m16, "--max-vertices", "32"]) == 0
        out = capsys.readouterr().out
        assert digest(out) == "d7fbe61186bc615adcc98937140b64fc42583b2e69295f97e678aebd17b5118d"
        assert main(["covers", m16, "--max-vertices", "32", "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert digest(out) == "f2fe566d4408c16aab74b615d12b19bad19205945371ea4f3a4461448de93ee3"
        dot = tmp_path / "m12.dot"
        assert main(["lattice", matching(12), "--dot", str(dot)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4097
        assert digest(dot.read_text()) == (
            "eafda146ece01271e52400c04cd0c160db456cf3befdbb93ca037f563cf7e55a"
        )


class TestFromLattice:
    def test_two_element_lattice(self, write, capsys):
        assert main(["from-lattice", write("l.txt", "n=2\n{}\n1,2\n")]) == 0
        captured = capsys.readouterr()
        assert captured.out == "n=2\n1 1\n1 2\n2 1\n2 2\n"
        assert "round-trip=ok" in captured.err

    def test_boolean_lattice_gives_matching(self, write, capsys):
        assert main(["from-lattice", write("l.txt", "n=2\n{}\n1\n2\n1,2\n")]) == 0
        assert capsys.readouterr().out == "n=2\n1 1\n2 2\n"

    def test_open_family_exits_2_with_certificate(self, write, capsys):
        assert main(["from-lattice", write("l.txt", "n=2\n{}\n1\n2\n")]) == 2
        err = capsys.readouterr().err
        assert "certificate" in err
        assert "{1} | {2} = {1,2}" in err

    def test_long_chain_past_the_enumeration_cap(self, write, capsys):
        # 26 vertices, over the default enumeration cap of 24: the inverse
        # construction reads the graph off the lattice and enumerates nothing
        text = "n=13\n{}\n1\n1,2\n1,2,3\n1,2,3,4\n" + ",".join(map(str, range(1, 14))) + "\n"
        assert main(["from-lattice", write("l.txt", text)]) == 0
        captured = capsys.readouterr()
        # j <= 4 sits above 1..j only; every j >= 5 lies in the top class
        pairs = [(i, j) for i in range(1, 14) for j in range(1, 14) if j >= 5 or i <= j]
        assert captured.out == "n=13\n" + "".join(f"{i} {j}\n" for i, j in pairs)
        assert "round-trip=ok" in captured.err

    def test_limit_bounds_the_downset_build(self, write):
        # {} and the 40 singletons induce the discrete preorder with 2^40
        # down-sets; only the limit stops the build after |family| of them
        text = "n=40\n{}\n" + "".join(f"{i}\n" for i in range(1, 41))
        done, _ = _run_capped("-m", "coverlattice.cli", "from-lattice", write("l.txt", text))
        assert done.returncode == 2
        assert "certificate: {1} | {2} = {1,2} is missing" in done.stderr

    def test_huge_ground_set_without_top_fails_fast(self):
        # the preorder of n = 10^6 would be 10^6 ints of 10^6 bits; the
        # constructor must find the missing full set before it is built
        # (a lattice file that large stops at the header cap instead)
        code = (
            "from coverlattice import CoverLattice, LatticeError\n"
            "try:\n    CoverLattice(10**6, (frozenset(),))\n"
            "except LatticeError as exc:\n    print(exc.certificate)\n"
        )
        done, seconds = _run_capped("-c", code)
        assert seconds < 1.0
        assert done.returncode == 0
        assert done.stdout == "the full set is missing\n"

    def test_closed_family_without_top_skips_the_pair_scan(self, write):
        # all 65536 subsets of 1..16 at n=17 are closed under union and
        # intersection, so no pair is missing; a scan of the 2^31 pairs
        # would take minutes before it named the absent full set
        text = "n=17\n" + "".join(
            (",".join(str(i + 1) for i in range(16) if m >> i & 1) or "{}") + "\n"
            for m in range(1 << 16)
        )
        done, seconds = _run_capped("-m", "coverlattice.cli", "from-lattice", write("l.txt", text))
        assert seconds < 5.0
        assert done.returncode == 2
        assert done.stderr == (
            "error: not a bounded sublattice: the full set is missing\n"
            "certificate: the full set is missing\n"
        )

    def test_ground_set_over_the_cap_exits_2_fast(self, write):
        # a valid lattice, {} and 1..10^5: past the cap its preorder alone is
        # 10^5 ints of 10^5 bits, and its graph would have 10^10 edges
        text = "n=100000\n{}\n" + ",".join(map(str, range(1, 100001))) + "\n"
        done, seconds = _run_capped("-m", "coverlattice.cli", "from-lattice", write("l.txt", text))
        assert seconds < 1.0
        assert done.returncode == 2
        assert done.stderr == f"error: line 1: n=100000 exceeds the cap of {MAX_LATTICE_N}\n"

    def test_ground_set_at_the_cap_round_trips(self, write, capsys):
        n = MAX_LATTICE_N
        text = f"n={n}\n{{}}\n" + ",".join(map(str, range(1, n + 1))) + "\n"
        assert main(["from-lattice", write("l.txt", text)]) == 0
        captured = capsys.readouterr()
        everything = "".join(f"{i} {j}\n" for i in range(1, n + 1) for j in range(1, n + 1))
        assert captured.out == f"n={n}\n" + everything  # the complete bipartite graph
        assert "round-trip=ok" in captured.err


class TestVerify:
    def test_exhaustive_n2(self, capsys):
        assert main(["verify", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert "instances=4" in out and "failures=0" in out

    def test_exhaustive_n4_checks_growth_everywhere(self, capsys):
        assert main(["verify", "--n", "4"]) == 0
        assert capsys.readouterr().out == "instances=355 failures=0 growth_checked=355\n"

    def test_random_size_8_checks_growth_everywhere(self, capsys):
        assert main(["verify", "--random", "200", "7", "--size", "8", "--format", "json"]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert records[-1] == {"summary": {"instances": 200, "failures": 0, "growth_checked": 200}}
        assert all(r["growth"] == r["dimension"] for r in records[:-1])

    def test_exhaustive_n1(self, capsys):
        assert main(["verify", "--n", "1"]) == 0
        assert "instances=1" in capsys.readouterr().out

    def test_random_sweep_json(self, capsys):
        assert main(["verify", "--random", "25", "7", "--format", "json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert len(records) == 26  # 25 instances plus the summary
        summary = records[-1]["summary"]
        assert summary["instances"] == 25 and summary["failures"] == 0
        for record in records[:-1]:
            assert record["dimension"] == record["lattice_rank"] + 1

    def test_random_deterministic(self, capsys):
        assert main(["verify", "--random", "10", "3", "--format", "json"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "--random", "10", "3", "--format", "json"]) == 0
        assert capsys.readouterr().out == first

    def test_size_limit(self, capsys):
        assert main(["verify", "--random", "1", "1", "--size", "9"]) == 2

    def test_negative_count_rejected(self, capsys):
        assert main(["verify", "--random", "-5", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: random verification needs COUNT >= 0, got -5\n"

    def test_zero_count_is_an_empty_sweep(self, capsys):
        assert main(["verify", "--random", "0", "1"]) == 0
        assert capsys.readouterr().out == "instances=0 failures=0 growth_checked=0\n"

    def test_exhaustive_limit(self, capsys):
        assert main(["verify", "--n", "5"]) == 2

    def test_rank_truncated_differing_from_lattice_rank_exits_1(self, capsys, monkeypatch):
        from coverlattice import algebra

        rank = algebra.rank
        monkeypatch.setattr(algebra, "rank", lambda lat: rank(lat) + 1)
        assert main(["verify", "--n", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "INCONSISTENCY: rank_truncated=1 differs from lattice_rank=2\n"
        )
        assert '"rank_full": 2' in captured.err
        assert '"stage": "dimension_report"' in captured.err

    def test_cover_count_not_the_covers_found_exits_1(self, capsys, monkeypatch):
        # one down-set too many at the full set moves only the Gram matrix's
        # corner, which no rank sees; the covers the search found do
        from coverlattice import algebra

        downset_counter = algebra._downset_counter

        def counter(pred):
            count = downset_counter(pred)
            return lambda s: count(s) + (s == (1 << len(pred)) - 1)

        monkeypatch.setattr(algebra, "_downset_counter", counter)
        assert main(["verify", "--n", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        head, details = captured.err.split("\n", 1)
        assert head == "INCONSISTENCY: cover_count=3 but the search found 2 covers"
        details = json.loads(details)
        assert details["stage"] == "dimension_report"
        assert details["lattice"] == [[], [1, 2]] and details["cover_count"] == 3

    @pytest.mark.parametrize(
        "n, covers",
        [
            ("1", [0b11, 0b10]),  # {x1, y1} has 2 vertices, not n = 1
            ("2", [0b1100, 0b0101]),  # {x1, y1} has n = 2 vertices but holds a pair whole
        ],
    )
    def test_broken_cover_is_an_inconsistency(self, capsys, monkeypatch, n, covers):
        from coverlattice import pipeline

        monkeypatch.setattr(pipeline, "_cover_masks", lambda g: covers)
        assert main(["verify", "--n", n]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        head, details = captured.err.split("\n", 1)
        assert head == "INCONSISTENCY: cover projection does not reproduce the lattice"
        assert json.loads(details)["stage"] == "cover_projection"


class TestParser:
    def test_built_once(self):
        from coverlattice import cli

        main(["verify", "--n", "1"])
        assert cli._parser() is cli._parser()

    def test_commands_in_one_process_match_each_run_alone(self, write):
        graph = write("g.txt", FOUR_CYCLE_TEXT)
        commands = [
            ["check", graph],
            ["dim", "--format", "json", graph],
            ["dim", "--no-such-flag", graph],
            ["check", graph],
        ]
        env = dict(os.environ, PYTHONPATH=str(Path(coverlattice.__file__).parents[1]))
        alone = [
            subprocess.run(
                [sys.executable, "-m", "coverlattice.cli", *argv],
                capture_output=True,
                text=True,
                timeout=60,
                env=env,
            )
            for argv in commands
        ]
        for argv, done in zip(commands, alone):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            assert (code, out.getvalue(), err.getvalue()) == (
                done.returncode,
                done.stdout,
                done.stderr,
            ), argv
        assert [done.returncode for done in alone] == [0, 0, 2, 0]


class TestExitCodes:
    @pytest.mark.parametrize("command", ["check", "from-lattice"])
    def test_non_utf8_input_exits_2(self, tmp_path, command):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"1 2\n\xff 3\n")
        done, _ = _run_capped("-m", "coverlattice.cli", command, str(path))
        assert done.returncode == 2
        assert done.stderr.startswith(f"error: {path}: ")
        assert "Traceback" not in done.stderr

    def test_non_utf8_stdin_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"1 2\n\xff 3\n")))
        assert main(["check", "-"]) == 2
        assert capsys.readouterr().err == (
            "error: -: not UTF-8 text (invalid start byte at byte 4)\n"
        )

    def test_inconsistency_maps_to_exit_1(self, write, capsys, monkeypatch):
        from coverlattice import InconsistencyError
        from coverlattice import cli as cli_module

        def boom(*args, **kwargs):
            raise InconsistencyError("forced for the exit-code contract", details={"n": 1})

        monkeypatch.setattr(cli_module, "analyze_graph", boom)
        assert main(["dim", write("g.txt", FOUR_CYCLE_TEXT)]) == 1
        err = capsys.readouterr().err
        assert "INCONSISTENCY" in err

    def test_verify_violation_keeps_the_records_before_it(self, capsys, monkeypatch):
        from coverlattice import InconsistencyError
        from coverlattice import cli as cli_module

        verify_lattice = cli_module.verify_lattice
        calls = []

        def fail_third(lat):
            calls.append(lat)
            if len(calls) == 3:
                raise InconsistencyError("forced on the third instance", details={"n": lat.n})
            return verify_lattice(lat)

        monkeypatch.setattr(cli_module, "verify_lattice", fail_third)
        assert main(["verify", "--n", "2", "--format", "json"]) == 1
        captured = capsys.readouterr()
        records = [json.loads(line) for line in captured.out.splitlines()]
        assert [r["elements"] for r in records] == [[[], [1, 2]], [[], [1], [1, 2]]]
        assert captured.err == 'INCONSISTENCY: forced on the third instance\n{\n  "n": 2\n}\n'

    def test_no_growth_flag(self, capsys):
        # the growth check has no switches: every instance gets the exact identity
        assert main(["verify", "--n", "2"]) == 0
        assert capsys.readouterr().out == "instances=4 failures=0 growth_checked=4\n"
        for flags in (["--no-growth"], ["--growth-degree", "0"]):
            with pytest.raises(SystemExit) as info:
                main(["verify", "--n", "1", *flags])
            assert info.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["gen", "--n", "3"], ["lattice", "g.txt"], ["from-lattice", "l.txt"]],
        ids=["gen", "lattice", "from-lattice"],
    )
    def test_format_only_where_json_is_printed(self, argv, capsys):
        # gen, lattice and from-lattice print one text format; --format is a usage error
        with pytest.raises(SystemExit) as info:
            main([*argv, "--format", "json"])
        assert info.value.code == 2
        assert "unrecognized arguments: --format json" in capsys.readouterr().err


class TestGen:
    def test_no_generators(self, capsys):
        assert main(["gen", "--n", "2", "--generators", "0"]) == 0
        assert capsys.readouterr().out == "n=2\n{}\n1,2\n"

    def test_gen_output_is_valid_sublattice(self, tmp_path, capsys):
        out = tmp_path / "lat.txt"
        assert main(["gen", "--n", "3", "--generators", "2", "--seed", "1", "--out", str(out)]) == 0
        from coverlattice import CoverLattice, parse_lattice

        lat = parse_lattice(out.read_text())
        assert CoverLattice(lat.n, lat.elements) == lat

    def test_gen_from_lattice_dim_pipeline(self, tmp_path, capsys):
        lat_file = tmp_path / "lat.txt"
        graph_file = tmp_path / "graph.txt"
        assert main(["gen", "--n", "4", "--generators", "3", "--seed", "9", "--out", str(lat_file)]) == 0
        assert main(["from-lattice", str(lat_file), "--out", str(graph_file)]) == 0
        assert main(["dim", str(graph_file)]) == 0
        out = capsys.readouterr().out
        assert "dim_matches_lattice_rank=yes" in out

    def test_gen_graph_out(self, tmp_path, capsys):
        graph_file = tmp_path / "graph.txt"
        assert main(["gen", "--n", "3", "--generators", "5", "--seed", "4", "--graph-out", str(graph_file)]) == 0
        from coverlattice import parse_labeled

        lg = parse_labeled(graph_file.read_text())
        assert lg.n == 3

    def test_forty_generators_at_n14_give_the_boolean_lattice(self, tmp_path, capsys):
        graph_file = tmp_path / "graph.txt"
        argv = ["gen", "--n", "14", "--generators", "40", "--seed", "0", "--graph-out", str(graph_file)]
        assert main(argv) == 0
        subsets = [
            ",".join(map(str, c)) or "{}"
            for size in range(15)
            for c in itertools.combinations(range(1, 15), size)
        ]
        out = capsys.readouterr().out
        assert out.count("\n") == 16385
        assert out == "n=14\n" + "".join(s + "\n" for s in subsets)
        assert graph_file.read_text() == "n=14\n" + "".join(f"{i} {i}\n" for i in range(1, 15))
