"""End-to-end acceptance suite.

Pins the bundled example values and runs the structural identities over
exhaustive and randomized lattice sweeps. Every comparison is exact integer
arithmetic with zero tolerance, and each check prints one pass/fail line.
"""

import json
import random
import time

import pytest

from coverlattice import (
    analyze_graph,
    as_graph,
    enumerate_minimal_covers,
    enumerate_sublattices,
    multichain_counts,
    parse_graph,
    perfect_matching,
    random_sublattice,
    rank_exact,
    verify_lattice,
)

from coverlattice.cli import main

from conftest import FIVE_VERTEX_TEXT, FOUR_CYCLE_TEXT, matching_graph
from oracles import (
    brute_force_minimal_covers,
    cover_rows,
    hall_condition_holds,
    hilbert_function,
    is_unmixed,
    lattice_covers,
    longest_chain_cardinality,
    random_graph,
    rank_by_minors,
)


def _line(num: int, ok: bool, text: str) -> None:
    print(f"acceptance {num:02d}: {'PASS' if ok else 'FAIL'} - {text}")


@pytest.fixture(scope="module")
def exhaustive_sweep():
    """Every bounded sublattice for n = 1..4, driven through all checks."""
    start = time.perf_counter()
    results = []
    for n in (1, 2, 3, 4):
        for lat in enumerate_sublattices(n):
            results.append((n, verify_lattice(lat)))
    return results, time.perf_counter() - start


@pytest.fixture(scope="module")
def random_sweep():
    """600 seeded random sublattices each at n = 5 and n = 6."""
    start = time.perf_counter()
    master = random.Random(20260808)
    results = []
    for n in (5, 6):
        for _ in range(600):
            lat = random_sublattice(n, master.randint(0, 2 * n + 2), master.getrandbits(32))
            results.append((n, verify_lattice(lat)))
    return results, time.perf_counter() - start


def test_01_five_vertex_example_pinned_family():
    start = time.perf_counter()
    g = parse_graph(FIVE_VERTEX_TEXT)
    covers = enumerate_minimal_covers(g)
    elapsed = time.perf_counter() - start
    # The graph is the square 1-2-3-4 with a pendant 5 on 4. Its maximal
    # independent sets are {1,3,5}, {2,4} and {2,5}, so its minimal covers
    # are their complements {2,4}, {1,3,4} and {1,3,5}. {1,3,4} meets all
    # five edges (12 via 1, 23 via 3, 34, 14 and 45 via 4) and is minimal:
    # dropping 1 uncovers 12, dropping 3 uncovers 23, dropping 4 uncovers 45.
    pinned = {frozenset({2, 4}), frozenset({1, 3, 4}), frozenset({1, 3, 5})}
    failures = []
    if {frozenset(c) for c in covers} != pinned:
        failures.append(
            f"cover family {sorted(sorted(c) for c in covers)} "
            f"differs from pinned {sorted(sorted(c) for c in pinned)}"
        )
    if covers != brute_force_minimal_covers(g):
        failures.append("enumeration disagrees with the subset-filter oracle")
    sizes = {len(c) for c in covers}
    if sizes != {2, 3}:
        failures.append(f"cover sizes {sorted(sizes)}, expected [2, 3]")
    if is_unmixed(covers):
        failures.append("expected mixed cover sizes")
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.3f}s, limit 1s")
    _line(1, not failures, "five-vertex example: pinned cover family, mixed sizes, under 1s")
    assert not failures, "; ".join(failures)


def test_02_four_cycle_full_pipeline():
    g = parse_graph(FOUR_CYCLE_TEXT)
    covers = enumerate_minimal_covers(g)
    failures = []
    if {frozenset(c) for c in covers} != {frozenset({2, 4}), frozenset({1, 3})}:
        failures.append(f"covers {sorted(sorted(c) for c in covers)}")
    if covers != brute_force_minimal_covers(g):
        failures.append("enumeration disagrees with the subset-filter oracle")
    if not is_unmixed(covers):
        failures.append("expected unmixed")
    analysis = analyze_graph(g)
    report = analysis.report
    if report is None:
        failures.append("pipeline did not run")
    else:
        if report.lattice_rank != 1:
            failures.append(f"lattice_rank={report.lattice_rank}, expected 1")
        if report.dimension != 2:
            failures.append(f"dimension={report.dimension}, expected 2")
        if not report.dim_matches_lattice_rank:
            failures.append("dimension identity failed")
    _line(2, not failures, "four-cycle: covers {2,4},{1,3}, unmixed, rank 1, dimension 2")
    assert not failures, "; ".join(failures)


def _gram_route_failures(outcome):
    """The report's ranks against elimination on the rows of the enumerated covers."""
    report = outcome.report
    n = report.n
    rows = cover_rows(enumerate_minimal_covers(as_graph(outcome.labeled)), n)
    failures = []
    if report.rank_full != rank_exact(rows):
        failures.append(f"n={n}: rank_full differs from the rank of the rows ({report})")
    if report.rank_truncated != rank_exact([r[:n] for r in rows]):
        failures.append(f"n={n}: rank_truncated differs from the rank of the x columns ({report})")
    return failures


def test_03_exhaustive_sweep_identities(exhaustive_sweep):
    results, elapsed = exhaustive_sweep
    by_n = {}
    failures = []
    for n, outcome in results:
        by_n[n] = by_n.get(n, 0) + 1
        report = outcome.report
        # verify_lattice already raised on any round-trip violation; re-assert
        # the rank identities explicitly from the reported numbers
        if report.rank_full != report.rank_truncated + 1:
            failures.append(f"n={n}: rank_full != rank_truncated + 1 ({report})")
        if report.rank_truncated != report.lattice_rank:
            failures.append(f"n={n}: rank_truncated != lattice_rank ({report})")
        if report.dimension != report.lattice_rank + 1:
            failures.append(f"n={n}: dimension != lattice_rank + 1 ({report})")
        failures.extend(_gram_route_failures(outcome))
    if by_n != {1: 1, 2: 4, 3: 29, 4: 355}:
        failures.append(f"instance counts {by_n} changed")
    if elapsed >= 300:
        failures.append(f"took {elapsed:.1f}s, limit 300s")
    _line(
        3,
        not failures,
        f"exhaustive sweep n=1..4: {len(results)} lattices, every identity exact, "
        f"{elapsed:.1f}s",
    )
    assert not failures, "; ".join(failures[:10])


def test_04_random_sweep_identities(random_sweep):
    results, elapsed = random_sweep
    failures = []
    for n, outcome in results:
        report = outcome.report
        if report.rank_full != report.rank_truncated + 1:
            failures.append(f"n={n}: rank_full identity ({report})")
        if report.rank_truncated != report.lattice_rank:
            failures.append(f"n={n}: truncated rank identity ({report})")
        if report.dimension != report.lattice_rank + 1:
            failures.append(f"n={n}: dimension identity ({report})")
        failures.extend(_gram_route_failures(outcome))
    if len(results) < 1000:
        failures.append(f"only {len(results)} instances, need >= 1000")
    if elapsed >= 300:
        failures.append(f"took {elapsed:.1f}s, limit 300s")
    _line(
        4,
        not failures,
        f"random sweep n=5..6: {len(results)} lattices, zero failures, {elapsed:.1f}s",
    )
    assert not failures, "; ".join(failures[:10])


def test_05_full_lattices_reach_top_dimension(exhaustive_sweep, random_sweep):
    failures = []
    full_seen = 0
    for n, outcome in exhaustive_sweep[0] + random_sweep[0]:
        report = outcome.report
        if report.cohen_macaulay:
            full_seen += 1
            if report.dimension != n + 1:
                failures.append(f"full lattice at n={n} with dimension {report.dimension}")
    for n in range(1, 7):
        analysis = analyze_graph(matching_graph(n))
        report = analysis.report
        if report is None or not report.cohen_macaulay:
            failures.append(f"matching graph n={n} not recognized as full")
        elif len(analysis.lattice.elements) != 2**n:
            failures.append(f"matching graph n={n} lattice has {len(analysis.lattice.elements)} elements")
        elif report.dimension != n + 1:
            failures.append(f"matching graph n={n} dimension {report.dimension}")
    _line(
        5,
        not failures,
        f"full lattices ({full_seen} in sweeps, plus matchings n=1..6) all have dimension n+1",
    )
    assert not failures, "; ".join(failures[:10])


def test_06_growth_crosscheck_small_instances(exhaustive_sweep, random_sweep):
    """The multichain degree checked in verify_lattice, on every sweep instance."""
    failures = []
    checked = 0
    for n, outcome in exhaustive_sweep[0] + random_sweep[0]:
        checked += 1
        chain = longest_chain_cardinality(outcome.lattice.elements)
        if outcome.growth_skipped:
            failures.append(f"n={n}: growth skipped for {outcome.lattice.elements}")
        elif not outcome.growth_dimension == outcome.report.rank_full == chain:
            failures.append(
                f"n={n}: growth {outcome.growth_dimension}, rank {outcome.report.rank_full}, "
                f"longest chain {chain}"
            )
    _line(
        6,
        not failures,
        f"growth cross-check: {checked} instances (n<=4 exhaustive, n=5..6 random), "
        "multichain degree equal to the exact rank",
    )
    assert checked == 1 + 4 + 29 + 355 + 1200
    assert not failures, "; ".join(failures[:10])


def test_07_oracle_equivalence():
    from oracles import random_graph

    failures = []
    rng = random.Random(777)
    for i in range(200):
        g = random_graph(rng, max_vertices=14)
        if enumerate_minimal_covers(g) != brute_force_minimal_covers(g):
            failures.append(f"cover mismatch on graph {i}: {sorted(g.edges)}")
    rng = random.Random(778)
    for i in range(200):
        rows, cols = rng.randint(1, 6), rng.randint(1, 8)
        m = [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]
        if rank_exact(m) != rank_by_minors(m):
            failures.append(f"rank mismatch on matrix {i}: {m}")
    _line(7, not failures, "200 cover enumerations and 200 exact ranks match their brute-force oracles")
    assert not failures, "; ".join(failures[:10])


def test_08_hall_condition_exhaustive(exhaustive_sweep, random_sweep):
    failures = []
    checked = 0
    for n, outcome in exhaustive_sweep[0] + random_sweep[0]:
        if n > 5:
            continue
        checked += 1
        if not hall_condition_holds(outcome.labeled):
            failures.append(f"Hall violation at n={n}: {sorted(outcome.labeled.edges)}")
    for n in range(1, 6):
        analysis = analyze_graph(matching_graph(n))
        checked += 1
        if not hall_condition_holds(analysis.labeled):
            failures.append(f"Hall violation on matching graph n={n}")
    _line(
        8,
        not failures,
        f"Hall condition holds for every x-side subset on all {checked} labeled graphs with n<=5",
    )
    assert not failures, "; ".join(failures[:10])


def test_growth_oracle_agrees_on_mid_size_instances():
    """The brute-force Hilbert function equals the multichain counts at n = 4.

    Distinct sums of t cover rows, t up to rank + 2 (the levels verify_lattice
    reads the degree from), on every one of the 355 lattices.
    """
    checked = 0
    for lat in enumerate_sublattices(4):
        lg = verify_lattice(lat).labeled
        rows = cover_rows(enumerate_minimal_covers(as_graph(lg)), lg.n)
        levels = longest_chain_cardinality(lat.elements) + 1
        assert multichain_counts(lat, levels) == hilbert_function(rows, levels)
        checked += 1
    assert checked == 355


def test_analyze_graph_carries_covers_through_the_relabeling(exhaustive_sweep, random_sweep):
    """analyze_graph's lattice, read off the labeled edges, is the set of x-parts
    of a fresh cover enumeration on the relabeled graph."""
    checked = 0
    for _, outcome in exhaustive_sweep[0] + random_sweep[0]:
        analysis = analyze_graph(as_graph(outcome.labeled))
        lg = analysis.labeled
        covers = enumerate_minimal_covers(as_graph(lg))
        assert set(covers) == lattice_covers(analysis.lattice.elements, lg.n)
        checked += 1
    assert checked == 389 + 1200


def test_analyze_graph_equals_the_cover_route(exhaustive_sweep, random_sweep):
    """analyze_graph reads an unmixed bipartite graph off its edge preorder and
    counts the covers of any other graph per connected component; the oracle
    lists the covers of every whole graph. Their analyses are equal field for
    field on the sweep graphs, on 2000 random graphs and on 400 disjoint
    unions of two or three of them."""
    from oracles import analyze_graph_by_covers, disjoint_union, random_graph

    sweep = [as_graph(outcome.labeled) for _, outcome in exhaustive_sweep[0] + random_sweep[0]]
    rng = random.Random(20261019)
    graphs = sweep + [random_graph(rng) for _ in range(2000)]
    # components of at most 8 vertices keep the oracle's whole-graph listing small
    pool = sweep[:389] + [random_graph(rng, 8) for _ in range(400)]
    unions = [disjoint_union(rng.sample(pool, rng.randint(2, 3))) for _ in range(400)]
    mismatches, lattices, kinds = [], 0, set()
    for k, g in enumerate(graphs + unions):
        analysis = analyze_graph(g)
        if analysis != analyze_graph_by_covers(g):
            mismatches.append(sorted(g.edges))
        lattices += analysis.lattice is not None
        part = analysis.partition
        if k >= len(graphs):
            matched = part is not None and perfect_matching(g, part) is not None
            kinds.add((analysis.unmixed, part is not None, matched))
    assert not mismatches, mismatches[:5]
    assert len(graphs) == 389 + 1200 + 2000
    assert lattices > 389 + 1200 + 200  # a tenth of the random graphs reach the lattice
    # (unmixed, bipartite, perfect matching): the unions take every possible
    # combination; an unmixed bipartite graph always has a perfect matching
    assert kinds == {
        (True, True, True),
        (True, False, False),
        (False, True, True),
        (False, True, False),
        (False, False, False),
    }


def test_text_lines_are_the_json_records_renamed(exhaustive_sweep, random_sweep, tmp_path, capsys):
    """dim and check text are their --format json records through one rename map each.

    A key is written as the map gives it, a flag as yes or no, and None is
    left out; dim puts one pair per line, check one line of them. The sweep
    graphs are unmixed bipartite, so 200 random graphs add the mixed ones.
    """

    def renamed(record: dict, rename: dict) -> list[str]:
        def text(v):
            return ("yes" if v else "no") if isinstance(v, bool) else str(v)

        return [f"{rename.get(k, k)}={text(v)}" for k, v in record.items() if v is not None]

    def run(*argv):
        assert main(list(argv)) == 0
        return capsys.readouterr().out

    rng = random.Random(29)
    graphs = [as_graph(o.labeled) for _, o in exhaustive_sweep[0] + random_sweep[0]]
    graphs += [random_graph(rng) for _ in range(200)]
    path = tmp_path / "g.txt"
    dims = 0
    for g in graphs:
        path.write_text("".join(f"{u} {v}\n" for u, v in sorted(g.edges)))
        check = json.loads(run("check", str(path), "--format", "json"))
        assert run("check", str(path)) == " ".join(renamed(check, {"cohen_macaulay": "cm"})) + "\n"
        if check["bipartite"] and check["unmixed"]:
            dims += 1
            dim = json.loads(run("dim", str(path), "--format", "json"))
            assert run("dim", str(path)).splitlines() == renamed(dim, {"cover_count": "covers"})
    assert dims >= len(graphs) - 200
