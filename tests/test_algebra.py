import random

import pytest
from hypothesis import example, given, settings, strategies as st

from coverlattice import (
    CoverLattice,
    InconsistencyError,
    LabeledBipartiteGraph,
    as_graph,
    dimension_report,
    enumerate_minimal_covers,
    enumerate_sublattices,
    format_report,
    graph_from_lattice,
    multichain_counts,
    random_sublattice,
    rank_exact,
)

from coverlattice.algebra import (
    _add3,
    _downset_counter,
    _pivot_columns,
    _rank_bits,
    _spanning_rows,
)

from oracles import (
    cover_columns,
    cover_rows,
    dimension_report_by_listing,
    hilbert_function,
    multichain_counts_by_subset_order,
    rank_by_minors,
    rank_mod,
)

K22 = LabeledBipartiteGraph(2, frozenset({(1, 1), (1, 2), (2, 1), (2, 2)}))
MATCH2 = LabeledBipartiteGraph(2, frozenset({(1, 1), (2, 2)}))
EDGE1 = LabeledBipartiteGraph(1, frozenset({(1, 1)}))


def _pipeline(lg):
    covers = enumerate_minimal_covers(as_graph(lg))
    lat = CoverLattice(lg.n, (c & set(range(1, lg.n + 1)) for c in covers))
    return covers, lat


def _rows(lat):
    """The rows (chi_A, 1) of [X | 1] spelled out from the listed columns, bit r as row r."""
    columns = cover_columns(lat.elements, lat.n)
    return [tuple(c >> r & 1 for c in columns) for r in range(len(lat.elements))]


def _cover_matrix(rows):
    """The 2n-column cover matrix from rows (chi_A, 1): each becomes (chi_A, 1 - chi_A)."""
    return [row[:-1] + tuple(1 - v for v in row[:-1]) for row in rows]


class TestBuildMatrices:
    """The listing route's cover_columns reads [X | 1] off the lattice, bit r for element r.

    The cover matrix [X | 1 - X] becomes [X | 1 ... 1] by adding each x column
    to its y column, so the n x columns and one all-ones column keep its rank.
    """

    def test_complete_bipartite(self):
        covers, lat = _pipeline(K22)
        assert cover_columns(lat.elements, lat.n) == [0b10, 0b10, 0b11]
        assert sorted(_cover_matrix(_rows(lat))) == sorted(cover_rows(covers, 2))

    def test_matching_row_order(self):
        covers, lat = _pipeline(MATCH2)
        assert cover_columns(lat.elements, lat.n) == [0b1010, 0b1100, 0b1111]
        assert _rows(lat) == [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
        assert sorted(_cover_matrix(_rows(lat))) == sorted(cover_rows(covers, 2))

    def test_single_edge(self):
        _, lat = _pipeline(EDGE1)
        assert cover_columns(lat.elements, lat.n) == [0b10, 0b11]

    def test_first_and_last_rows_are_the_boundary_covers(self):
        rng = random.Random(11)
        for _ in range(25):
            lat = random_sublattice(rng.randint(1, 5), rng.randint(0, 8), rng.getrandbits(32))
            rows, n = _rows(lat), lat.n
            assert rows[0] == (0,) * n + (1,)
            assert rows[-1] == (1,) * (n + 1)

    def test_column_identity(self):
        """The rows with each y column put back as 1 - x are the enumerated covers' rows."""
        rng = random.Random(12)
        for _ in range(25):
            lg = graph_from_lattice(
                random_sublattice(rng.randint(1, 5), rng.randint(0, 8), rng.getrandbits(32))
            )
            covers, lat = _pipeline(lg)
            rows = _rows(lat)
            assert all(row[-1] == 1 for row in rows)
            assert sorted(_cover_matrix(rows)) == sorted(cover_rows(covers, lg.n))


class TestRankExact:
    def test_block_matrix(self):
        assert rank_exact([[1, 1, 0, 0], [0, 0, 1, 1]]) == 2

    def test_identity(self):
        for n in (1, 3, 5):
            eye = [[int(i == j) for j in range(n)] for i in range(n)]
            assert rank_exact(eye) == n

    def test_matching_matrix_rank(self):
        covers, _ = _pipeline(MATCH2)
        rows = cover_rows(covers, 2)
        assert rank_exact(rows) == 3
        assert rank_by_minors(rows) == 3

    def test_zero_matrix(self):
        assert rank_exact([[0, 0], [0, 0]]) == 0

    def test_needs_pivoting_and_stays_exact(self):
        m = [
            [0, 2, 1, 3],
            [2, 4, 0, 1],
            [4, 8, 0, 2],
            [2, 6, 1, 4],
        ]
        assert rank_exact(m) == rank_by_minors(m)

    @given(st.integers(0, 10_000))
    @settings(deadline=None)
    def test_matches_minor_oracle_random_01(self, seed):
        rng = random.Random(seed)
        rows, cols = rng.randint(1, 6), rng.randint(1, 8)
        m = [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]
        assert rank_exact(m) == rank_by_minors(m)

    @given(st.integers(0, 10_000))
    @settings(deadline=None)
    def test_matches_minor_oracle_random_small_ints(self, seed):
        rng = random.Random(seed)
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        assert rank_exact(m) == rank_by_minors(m)

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            rank_exact([[1, 2], [3]])

    @given(st.integers(0, 10_000), st.sampled_from([(0, 1), (-3, 3)]))
    @settings(deadline=None)
    def test_gram_matrix_has_the_rank_of_the_matrix(self, seed, entries):
        # v^T (M^T M) v = |Mv|^2, so over Q the Gram matrix keeps M's rank
        rng = random.Random(seed)
        rows, cols = rng.randint(1, 6), rng.randint(1, 7)
        m = [[rng.randint(*entries) for _ in range(cols)] for _ in range(rows)]
        gram = [[sum(r[a] * r[b] for r in m) for b in range(cols)] for a in range(cols)]
        assert rank_exact(gram) == rank_by_minors(m)


class TestRankMod:
    def test_mod2_can_drop(self):
        # full rank over Q, singular over GF(2)
        m = [[1, 1], [1, -1]]
        assert rank_exact(m) == 2
        assert rank_mod(m, 2) == 1
        assert rank_mod(m, 3) == 2

    def test_matches_char0_on_01_identity(self):
        eye = [[int(i == j) for j in range(4)] for i in range(4)]
        assert rank_mod(eye, 2) == 4

    def test_ragged_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            rank_mod([[1, 2], [3]], 3)
        with pytest.raises(ValueError, match="ragged"):
            rank_mod([[1], [2, 3]], 3)  # a transpose would drop the 3 silently

    @pytest.mark.parametrize("p", [0, 1, 4, 6, 9, 15])
    def test_non_prime_rejected(self, p):
        with pytest.raises(ValueError, match="prime"):
            rank_mod([[3, 1]], p)
        with pytest.raises(ValueError, match="prime"):
            rank_mod([[2, 0], [0, 2]], p)

    @given(st.integers(0, 10_000), st.sampled_from([2, 3, 5]))
    @settings(deadline=None)
    def test_matches_minor_oracle_mod_p(self, seed, p):
        rng = random.Random(seed)
        rows, cols = rng.randint(1, 6), rng.randint(1, 7)
        m = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        assert rank_mod(m, p) == rank_by_minors(m, p)

    def test_cover_matrix_rank_is_the_same_in_every_characteristic(self):
        checked = 0
        for n in (1, 2, 3, 4):
            for lat in enumerate_sublattices(n):
                lg = graph_from_lattice(lat)
                report = dimension_report(lat)
                assert report.rank_full_mod2 == report.rank_full_mod3 == report.rank_full
                rows = cover_rows(enumerate_minimal_covers(as_graph(lg)), n)
                for p in (2, 3, 5, 7):
                    assert rank_mod(rows, p) == report.rank_full
                checked += 1
        assert checked == 1 + 4 + 29 + 355


class TestRankBits:
    """The bit-packed GF(2)/GF(3) elimination the dimension report runs on its columns."""

    def test_add3_truth_table(self):
        # lane 3a + b holds a in the first vector and b in the second
        def pack(values):
            ones = sum(1 << k for k, v in enumerate(values) if v == 1)
            twos = sum(1 << k for k, v in enumerate(values) if v == 2)
            return ones, twos

        pairs = [(a, b) for a in range(3) for b in range(3)]
        total = _add3(*pack([a for a, _ in pairs]), *pack([b for _, b in pairs]))
        assert total == pack([(a + b) % 3 for a, b in pairs])

    # the example subtracts the pivot at bit 2 (1 - 1), leaving a 2 at bit 1
    # that adds the pivot there (2 + 1); the second stores a pivot holding 2
    # at its top, which must be scaled to 1 before the third column meets it
    @given(st.lists(st.integers(0, 2**6 - 1), min_size=1, max_size=6), st.sampled_from([2, 3]))
    @example([0b110, 0b010, 0b100], 3)
    @example([0b110, 0b100, 0b011], 3)
    @settings(deadline=None)
    def test_matches_rank_mod_and_minors(self, columns, p):
        rows = [[c >> r & 1 for c in columns] for r in range(6)]
        assert _rank_bits(columns, p) == rank_mod(rows, p) == rank_by_minors(rows, p)


class TestDimensionReport:
    def test_complete_bipartite(self):
        _, lat = _pipeline(K22)
        rep = dimension_report(lat)
        assert (
            rep.cover_count,
            rep.rank_full,
            rep.rank_truncated,
            rep.lattice_rank,
            rep.dimension,
        ) == (2, 2, 1, 1, 2)
        assert rep.dim_matches_lattice_rank and not rep.cohen_macaulay

    def test_matching(self):
        _, lat = _pipeline(MATCH2)
        rep = dimension_report(lat)
        assert (rep.cover_count, rep.rank_full, rep.rank_truncated) == (4, 3, 2)
        assert (rep.lattice_rank, rep.dimension) == (2, 3)
        assert rep.cohen_macaulay

    def test_single_edge(self):
        _, lat = _pipeline(EDGE1)
        rep = dimension_report(lat)
        assert (rep.cover_count, rep.dimension) == (2, 2)
        assert rep.cohen_macaulay  # n=1, dimension = n+1 = 2

    @staticmethod
    def _assert_ranks_of_the_cover_matrix(lat):
        """The ranks of the enumerated covers' matrix, and every field of the listing route."""
        rows = cover_rows(enumerate_minimal_covers(as_graph(graph_from_lattice(lat))), lat.n)
        report = dimension_report(lat)
        assert report.rank_full == rank_exact(rows)
        assert report.rank_truncated == rank_exact([row[: lat.n] for row in rows])
        assert report == dimension_report_by_listing(lat)

    def test_ranks_equal_those_of_the_2n_column_matrix_exhaustive(self):
        checked = 0
        for n in (1, 2, 3, 4):
            for lat in enumerate_sublattices(n):
                self._assert_ranks_of_the_cover_matrix(lat)
                checked += 1
        assert checked == 389

    @given(st.integers(1, 8), st.integers(0, 16), st.integers(0, 2**32 - 1))
    @settings(deadline=None)
    def test_ranks_equal_those_of_the_2n_column_matrix(self, n, generators, seed):
        self._assert_ranks_of_the_cover_matrix(random_sublattice(n, generators, seed))

    def test_inconsistency_alarm_carries_instance(self, monkeypatch):
        from coverlattice import algebra

        _, lat = _pipeline(MATCH2)
        monkeypatch.setattr(algebra, "rank", lambda lat: 1)  # the true rank is 2
        with pytest.raises(InconsistencyError) as info:
            dimension_report(lat)
        assert "lattice_rank" in str(info.value)
        details = info.value.details
        assert details["n"] == 2 and details["edges"] == [(1, 1), (2, 2)]
        assert details["lattice"] == [[], [1], [2], [1, 2]]
        ranks = (details["rank_full"], details["rank_truncated"], details["lattice_rank"])
        assert ranks == (3, 2, 1)

    def test_format_report(self):
        _, lat = _pipeline(K22)
        text = format_report(dimension_report(lat))
        assert "dimension=2" in text
        assert "lattice_rank=1" in text
        assert "cohen_macaulay=no" in text


class TestCountedGram:
    """The pieces of dimension_report that never list an element of the lattice."""

    @staticmethod
    def _lattices():
        return [lat for n in (1, 2, 3, 4) for lat in enumerate_sublattices(n)]

    def test_counted_gram_is_the_listed_gram_and_one_pass_ranks_it(self):
        for lat in self._lattices():
            n, count = lat.n, _downset_counter(lat.pred)
            need = [*lat.pred, 0]
            gram = [[count(((1 << n) - 1) & ~(a | b)) for b in need] for a in need]
            columns = cover_columns(lat.elements, n)
            assert gram == [[(a & b).bit_count() for b in columns] for a in columns]
            pivots = _pivot_columns(gram)
            leading = rank_exact([row[:n] for row in gram[:n]])
            assert sum(c < n for c in pivots) == leading == dimension_report(lat).rank_truncated
            assert len(pivots) == rank_exact(gram) == dimension_report(lat).rank_full

    @given(st.integers(1, 7), st.integers(0, 14), st.integers(0, 2**32 - 1), st.data())
    @settings(deadline=None)
    def test_downset_count_of_any_point_set(self, n, generators, seed, data):
        # the split holds on every set of points, convex or not
        lat = random_sublattice(n, generators, seed)
        points = data.draw(st.integers(0, (1 << n) - 1))
        restricted = {m & points for m in lat.masks}
        brute = sum(
            all(s >> j & 1 == 0 or lat.pred[j] & points & ~s == 0 for j in range(n))
            for s in range(1 << n)
            if s & ~points == 0
        )
        assert _downset_counter(lat.pred)(points) == brute == len(restricted)

    def test_spanning_rows_have_the_rank_of_every_row(self):
        checked = 0
        for lat in self._lattices():
            n = lat.n
            rows = _spanning_rows(lat.pred)
            all_rows = [m | 1 << n for m in lat.masks]
            assert set(rows) <= set(all_rows)  # rows of [X | 1]
            assert len(rows) <= 2 * len(set(lat.pred)) + 1
            spanning = [[r >> k & 1 for k in range(n + 1)] for r in rows]
            listed = [[r >> k & 1 for k in range(n + 1)] for r in all_rows]
            for p in (2, 3):
                assert _rank_bits(rows, p) == rank_mod(listed, p) == rank_by_minors(spanning, p)
            assert rank_by_minors(spanning) == rank_exact(listed) == rank_mod(listed, 5)
            checked += 1
        assert checked == 389

    @given(st.integers(0, 10_000), st.sampled_from([(0, 1), (-3, 3)]))
    @settings(deadline=None)
    def test_pivots_before_column_k_rank_the_leading_block(self, seed, entries):
        # the first k columns of M^T M are M^T M_k, whose null space is M_k's
        rng = random.Random(seed)
        rows, cols = rng.randint(1, 7), rng.randint(1, 6)
        m = [[rng.randint(*entries) for _ in range(cols)] for _ in range(rows)]
        gram = [[sum(r[a] * r[b] for r in m) for b in range(cols)] for a in range(cols)]
        pivots = _pivot_columns(gram)
        assert len(pivots) == rank_exact(gram)
        for k in range(cols + 1):
            leading = rank_exact([row[:k] for row in gram[:k]])
            assert sum(c < k for c in pivots) == leading == rank_by_minors([r[:k] for r in m])


class TestGrowth:
    """multichain_counts is the Hilbert function of the cover semigroup ring."""

    def test_linear_counts_for_complete_bipartite(self):
        covers, lat = _pipeline(K22)
        expected = [t + 1 for t in range(1, 9)]
        assert multichain_counts(lat, 8) == expected
        assert hilbert_function(cover_rows(covers, lat.n), 8) == expected

    def test_quadratic_counts_for_matching(self):
        covers, lat = _pipeline(MATCH2)
        expected = [(t + 1) ** 2 for t in range(1, 9)]
        assert multichain_counts(lat, 8) == expected
        assert hilbert_function(cover_rows(covers, lat.n), 8) == expected

    def test_single_edge(self):
        covers, lat = _pipeline(EDGE1)
        expected = [t + 1 for t in range(1, 7)]
        assert multichain_counts(lat, 6) == expected
        assert hilbert_function(cover_rows(covers, lat.n), 6) == expected

    def test_rank_plus_two_levels_fix_the_degree(self):
        # M(t) = (t+1)^2 on the Boolean square: forward differences at t=1 are
        # 4, 5, 2, 0, the counts of 1-, 2-, 3- and 4-element strict chains
        _, lat = _pipeline(MATCH2)
        counts = multichain_counts(lat, 4)
        assert counts == [4, 9, 16, 25]
        diffs = [counts[0], counts[1] - counts[0], counts[2] - 2 * counts[1] + counts[0]]
        diffs.append(counts[3] - 3 * counts[2] + 3 * counts[1] - counts[0])
        assert diffs == [4, 5, 2, 0]

    def test_no_state_space_guard(self):
        from coverlattice import CoverLattice

        boolean4 = CoverLattice(
            4,
            tuple(
                frozenset(i + 1 for i in range(4) if mask >> i & 1)
                for mask in range(16)
            ),
        )
        big = graph_from_lattice(boolean4)
        rows = cover_rows(enumerate_minimal_covers(as_graph(big)), 4)
        assert len(rows) == 16  # beyond the old 12-row packing guard
        expected = [(t + 1) ** 4 for t in range(1, 14)]
        assert multichain_counts(boolean4, 13) == expected  # beyond degree 12
        assert hilbert_function(rows, 6) == expected[:6]

    def test_three_element_chain(self):
        # the chain {} < {1} < {1,2} has C(t+2, 2) multichains of length t; taking
        # the class {2} before {1} adds g({1}) into g({1,2}) before g({1}) holds
        # g({}), which leaves 5 at t = 2
        chain = CoverLattice(2, [set(), {1}, {1, 2}])
        assert multichain_counts(chain, 4) == [3, 6, 10, 15]
        assert multichain_counts_by_subset_order(chain.elements, 4) == [3, 6, 10, 15]

    @given(st.integers(1, 10), st.integers(0, 20), st.integers(0, 2**32 - 1))
    @settings(deadline=None)
    def test_matches_the_subset_order_oracle(self, n, generators, seed):
        lat = random_sublattice(n, generators, seed)
        levels = len(set(lat.pred)) + 2  # the levels verify_lattice reads
        assert multichain_counts(lat, levels) == multichain_counts_by_subset_order(
            lat.elements, levels
        )

    @given(st.integers(1, 5), st.integers(0, 12), st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=200)
    def test_matches_brute_force_hilbert_function(self, n, generators, seed):
        # n <= 5 keeps every instance at 32 covers or fewer
        lat = random_sublattice(n, generators, seed)
        lg = graph_from_lattice(lat)
        covers = enumerate_minimal_covers(as_graph(lg))
        assert multichain_counts(lat, 4) == hilbert_function(cover_rows(covers, lg.n), 4)
