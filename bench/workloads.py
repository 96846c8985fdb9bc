"""Seeded inputs, operations and independent output checks for each workload.

Nothing here calls coverlattice to build an input or to judge an output.
Inputs come from the benchmark's own preorder, sublattice and graph
generators, and every check recomputes the expected answer with bitmask code
that shares no logic with the package. Birkhoff's theorem is the bridge: a
bounded sublattice of the subsets of [n] is exactly the family of down-sets
of a preorder on [n], and the labeled graph of that lattice has the edge
(i, j) iff i <= j in the preorder (every element containing j contains i).

Sets of [n] are int bitmasks, bit i - 1 standing for element i. A preorder
is a list ``pred`` where ``pred[j]`` is the mask of elements at or below j.

Each workload draws its cases in blocks: one case from each of a fixed list
of size bins, smallest bin first. Runs cycle through the blocks, so any run,
whatever its seed or length, sees nearly the same mix of instance sizes, and
the figures of two seeds differ by the instances' shape, not their size.
The warm-up op is the first case, so it too costs nearly the same for every
seed.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path

MAX_DRAWS = 200_000


def bits(mask: int):
    """Indices (0-based) of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcount(mask: int) -> int:
    return bin(mask).count("1")


def warshall(pred: list[int]) -> list[int]:
    """Reflexive-transitive closure of a relation given as predecessor masks."""
    closed = [p | (1 << j) for j, p in enumerate(pred)]
    for k in range(len(closed)):
        for i in range(len(closed)):
            if closed[i] >> k & 1:
                closed[i] |= closed[k]
    return closed


def successors(pred: list[int]) -> list[int]:
    succ = [0] * len(pred)
    for j, p in enumerate(pred):
        for i in bits(p):
            succ[i] |= 1 << j
    return succ


def count_downsets(pred: list[int]) -> int:
    """Number of down-sets: branch on the lowest undecided element, memoised."""
    succ = successors(pred)
    memo: dict[int, int] = {0: 1}

    def count(undecided: int) -> int:
        if undecided not in memo:
            x = (undecided & -undecided).bit_length() - 1
            memo[undecided] = count(undecided & ~succ[x]) + count(undecided & ~pred[x])
        return memo[undecided]

    return count((1 << len(pred)) - 1)


def downsets(pred: list[int]) -> set[int]:
    """Every down-set: x is either left out with all above it, or put in with all below."""
    succ = successors(pred)
    out: set[int] = set()
    stack = [((1 << len(pred)) - 1, 0)]
    while stack:
        undecided, chosen = stack.pop()
        if not undecided:
            out.add(chosen)
            continue
        x = (undecided & -undecided).bit_length() - 1
        stack.append((undecided & ~succ[x], chosen))
        stack.append((undecided & ~pred[x], chosen | (pred[x] & undecided)))
    return out


def induced_preorder(n: int, family) -> list[int]:
    """pred[j] = intersection of the members that contain j (the full set included)."""
    full = (1 << n) - 1
    pred = [full] * n
    for a in family:
        for j in bits(a):
            pred[j] &= a
    return pred


def longest_chain_rank(elements) -> int:
    """Rank of a set family: edges on its longest chain, by DP over bitmasks."""
    ordered = sorted(elements, key=popcount)
    best: dict[int, int] = {}
    for e in ordered:
        best[e] = max((best[f] + 1 for f in best if f != e and f & e == f), default=0)
    return max(best.values())


def lattice_text(n: int, masks) -> str:
    """The package's lattice file format: "n=<n>", then one element per line."""
    lines = [f"n={n}"]
    for m in sorted(masks, key=lambda m: (popcount(m), m)):
        lines.append(",".join(str(i + 1) for i in bits(m)) or "{}")
    return "\n".join(lines) + "\n"


def parse_lattice_masks(text: str) -> tuple[int, list[int]]:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n="):
        raise ValueError("lattice file lacks the n= header")
    masks = []
    for line in lines[1:]:
        mask = 0
        if line != "{}":
            for tok in line.split(","):
                mask |= 1 << (int(tok) - 1)
        masks.append(mask)
    return int(lines[0][2:]), masks


def parse_labeled_edges(text: str) -> tuple[int, set[tuple[int, int]]]:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n="):
        raise ValueError("graph file lacks the n= header")
    edges = set()
    for line in lines[1:]:
        i, j = line.split()
        edges.add((int(i), int(j)))
    return int(lines[0][2:]), edges


def two_colourable(vertex_count: int, nbr: list[int]) -> bool:
    colour = [-1] * vertex_count
    for root in range(vertex_count):
        if colour[root] >= 0:
            continue
        colour[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for w in bits(nbr[v]):
                if colour[w] < 0:
                    colour[w] = colour[v] ^ 1
                    stack.append(w)
                elif colour[w] == colour[v]:
                    return False
    return True


def maximal_independent_set_sizes(vertex_count: int, nbr: list[int]) -> list[int]:
    """Sizes of all maximal independent sets, by in/out branching in vertex order.

    A vertex left out must end up with a chosen neighbour. Once its last
    neighbour is decided without one, the branch dies. This shares nothing
    with the package's pivoting Bron-Kerbosch search.
    """
    last_nbr = [max(bits(nbr[v]), default=v) for v in range(vertex_count)]
    # settles[k]: left-out vertices whose neighbourhood is fully decided after vertex k
    settles = [0] * vertex_count
    for v in range(vertex_count):
        settles[max(v, last_nbr[v])] |= 1 << v
    sizes: list[int] = []
    stack = [(0, 0, 0)]  # (next vertex, chosen mask, left-out vertices still undominated)
    while stack:
        v, chosen, waiting = stack.pop()
        if v == vertex_count:
            sizes.append(popcount(chosen))
            continue
        bit = 1 << v
        if nbr[v] & chosen:
            branches = [(chosen, waiting)]
        else:
            branches = [(chosen | bit, waiting & ~nbr[v]), (chosen, waiting | bit)]
        for ch, wt in branches:
            if not wt & settles[v]:
                stack.append((v + 1, ch, wt))
    return sizes


def cover_census(vertex_count: int, nbr: list[int]) -> tuple[int, bool]:
    """(number of minimal vertex covers, whether all have one size).

    Covers are complements of maximal independent sets. Those of a graph are
    the unions of one per connected component, so the count is a product
    and the graph is unmixed iff every component is.
    """
    count, unmixed = 1, True
    seen = 0
    for root in range(vertex_count):
        if seen >> root & 1:
            continue
        component, frontier = 0, 1 << root
        while frontier:
            component |= frontier
            reach = 0
            for v in bits(frontier):
                reach |= nbr[v]
            frontier = reach & ~component
        seen |= component
        members = list(bits(component))
        index = {v: k for k, v in enumerate(members)}
        local = [sum(1 << index[w] for w in bits(nbr[v])) for v in members]
        sizes = maximal_independent_set_sizes(len(members), local)
        count *= len(sizes)
        unmixed = unmixed and len(set(sizes)) == 1
    return count, unmixed


@dataclass
class Case:
    """One op's input and the answer the check expects."""

    argv: list[str] = field(default_factory=list)
    text: str = ""
    expect: dict = field(default_factory=dict)


def run_cli(pkg, argv: list[str]) -> tuple[int, str, str]:
    """In-process ``coverlattice`` call; returns exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pkg.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_json(result) -> dict:
    code, out, err = result
    if code != 0:
        raise ValueError(f"exit code {code}: {err.strip()[:200]}")
    return json.loads(out)


def _mismatches(got: dict, expect: dict) -> str | None:
    wrong = [f"{k}={got.get(k)!r} (expected {v!r})" for k, v in expect.items() if got.get(k) != v]
    return "; ".join(wrong) or None


class CliJsonWorkload:
    """Ops that call the CLI with ``--format json`` and compare fields of its output."""

    def run(self, pkg, case: Case):
        return run_cli(pkg, case.argv)

    def check(self, case: Case, result) -> str | None:
        return _mismatches(_cli_json(result), case.expect)


def geometric_edges(lo: float, hi: float, count: int) -> list[float]:
    return [lo * (hi / lo) ** (k / count) for k in range(count + 1)]


def fill_bins(rng: random.Random, edges, quotas, draw, min_draws: int) -> list[list]:
    """quotas[k] drawn candidates whose size lies in [edges[k], edges[k+1]), per bin k.

    draw(rng) returns None or a tuple whose last item is the size. Drawing
    goes on for at least min_draws candidates, about the most any seed needs
    to fill the bins, so set-up costs nearly the same for every seed.
    """
    bins: list[list] = [[] for _ in quotas]
    for draws in range(MAX_DRAWS):
        if draws >= min_draws and all(len(b) == q for b, q in zip(bins, quotas)):
            return bins
        candidate = draw(rng)
        if candidate is None:
            continue
        k = bisect_right(edges, candidate[-1]) - 1
        if 0 <= k < len(bins) and len(bins[k]) < quotas[k]:
            bins[k].append(candidate)
    raise RuntimeError(f"size bins {edges} not filled after {MAX_DRAWS} draws")


def stratified_blocks(rng: random.Random, edges, blocks: int, draw, min_draws: int) -> list:
    """blocks blocks, each holding one drawn candidate from every bin, smallest first."""
    return list(zip(*fill_bins(rng, edges, [blocks] * (len(edges) - 1), draw, min_draws)))


class DimLarge(CliJsonWorkload):
    """``coverlattice dim`` on labeled graphs of random preorders, |L| in the low hundreds."""

    name = "dim-large"
    why = (
        "the lattice-analysis path: Hasse diagram and closure validation dominate, "
        "cover enumeration is small"
    )
    size_edges = geometric_edges(220, 300, 7)
    blocks = 20
    boolean_n = 8  # the empty preorder: the matching graph, whose lattice is Boolean
    trace_blocks = 4

    @staticmethod
    def _draw(rng: random.Random):
        n = rng.randint(9, 12)
        p = rng.uniform(0.05, 0.12)
        pred = [0] * n
        for j in range(n):
            for i in range(n):
                if i != j and rng.random() < p:
                    pred[j] |= 1 << i
        pred = warshall(pred)
        return pred, count_downsets(pred)

    def _case(self, path: Path, pred: list[int], cover_count: int) -> Case:
        n = len(pred)
        lines = [f"n={n}"] + [f"{i + 1} {j + 1}" for j in range(n) for i in bits(pred[j])]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rank = len(set(pred))  # strongly connected classes: i ~ j iff same down-set
        expect = {
            "n": n,
            "cover_count": cover_count,
            "lattice_rank": rank,
            "rank_full": rank + 1,
            "dimension": rank + 1,
            "cohen_macaulay": rank == n,
        }
        return Case(argv=["dim", str(path), "--format", "json"], expect=expect)

    def generate(self, seed: int, workdir: Path) -> list[Case]:
        rng = random.Random(seed)
        blocks = stratified_blocks(rng, self.size_edges, self.blocks, self._draw, 10_000)
        boolean = [1 << j for j in range(self.boolean_n)]
        boolean_case = self._case(workdir / "dim-boolean.txt", boolean, 2**self.boolean_n)
        cases = []
        for b, block in enumerate(blocks):
            cases.append(boolean_case)
            for k, (pred, count) in enumerate(block):
                cases.append(self._case(workdir / f"dim-{b}-{k}.txt", pred, count))
        return cases

    def trace_ops(self) -> int:
        return self.trace_blocks * len(self.size_edges)  # one per bin, plus the Boolean case


def multichain_work(elements) -> int:
    """|L| times the multichains of L of lengths 1 to 9.

    A lattice of at most twelve elements goes through the growth check, which
    builds the distinct sums of t cover vectors for t up to ten; there are as
    many of those as multichains of length t, and each is extended by every
    row. This count tracks that check's cost to within about a tenth.
    """
    ordered = sorted(elements, key=popcount)
    below = [[k for k, f in enumerate(ordered) if f & e == f] for e in ordered]
    chains = [1] * len(ordered)
    total = 0
    for _ in range(9):
        total += sum(chains)
        chains = [sum(chains[k] for k in below_e) for below_e in below]
    return len(ordered) * total


class SweepRandom:
    """``parse_lattice`` then ``verify_lattice`` on random sublattices at n = 5 and 6."""

    name = "sweep-random"
    why = (
        "many tiny verify instances in which every layer has a share; the traffic "
        "behind verify and the acceptance sweeps"
    )
    # Per n, each block holds one lattice small enough for the growth check
    # (at most growth_rows elements) and four larger ones, one from each |L|
    # bin. Drawn as they come, two in five are that small and the growth
    # check takes over half of the op time. The small lattices follow
    # small_cycle through bins of growth-check work, in about the proportions
    # they are drawn in; the few (about one in a hundred) with more work than
    # the last bin are left out, as their cost varies threefold and alone
    # would set the tail. The last bin comes once a cycle, so a run holds
    # about twenty ops of it, and the latency with ten samples above it falls
    # near the middle of that bin rather than on its few largest instances.
    growth_rows = 12
    work_edges = (0, 5_000, 30_000, 150_000, 300_000, 450_000)
    small_cycle = (0, 1, 0, 2, 0, 3, 0, 1, 0, 2, 0, 1, 0, 2, 0, 4, 0, 1, 0, 2,
                   0, 1, 0, 2, 0, 3, 0, 1, 0, 2, 0, 1, 0, 2, 0, 3, 0, 1, 0, 2)
    large_edges = {5: (13, 16, 20, 25, 33), 6: (13, 19, 28, 42, 65)}
    blocks = 320
    trace_blocks = len(small_cycle)

    def _draw(self, n: int, small: bool):
        def draw(rng: random.Random):
            # the generator-count scheme of ``verify --random``
            gens = [rng.getrandbits(n) for _ in range(rng.randint(0, 2 * n + 2))]
            elements = downsets(induced_preorder(n, gens))
            if (len(elements) <= self.growth_rows) != small:
                return None
            return elements, multichain_work(elements) if small else len(elements)

        return draw

    def generate(self, seed: int, workdir: Path) -> list[Case]:
        rng = random.Random(seed)
        cycles = self.blocks // len(self.small_cycle)
        quotas = [self.small_cycle.count(k) * cycles for k in range(len(self.work_edges) - 1)]
        blocks: list[list] = [[] for _ in range(self.blocks)]
        for n in (5, 6):
            small = fill_bins(rng, self.work_edges, quotas, self._draw(n, True), 1_600)
            small = [iter(b) for b in small]
            rotation = [next(small[k]) for _ in range(cycles) for k in self.small_cycle]
            large = stratified_blocks(
                rng, self.large_edges[n], self.blocks, self._draw(n, False), 4_600
            )
            for block, one, four in zip(blocks, rotation, large):
                block += [(n, drawn) for drawn in [one, *four]]
        cases = []
        for block in blocks:
            cases += [self._case(n, elements) for n, (elements, _) in block]
        return cases

    @staticmethod
    def _case(n: int, elements) -> Case:
        rank = longest_chain_rank(elements)
        expect = {
            "cover_count": len(elements),
            "lattice_rank": rank,
            "dimension": rank + 1,
            "cohen_macaulay": rank == n,
        }
        return Case(text=lattice_text(n, elements), expect=expect)

    def trace_ops(self) -> int:
        # per n and block: one small lattice and one per large bin
        return self.trace_blocks * sum(len(edges) for edges in self.large_edges.values())

    def run(self, pkg, case: Case):
        return pkg.pipeline.verify_lattice(pkg.lattice.parse_lattice(case.text))

    def check(self, case: Case, outcome) -> str | None:
        report = outcome.report
        got = {k: getattr(report, k) for k in case.expect}
        return _mismatches(got, case.expect)


class CheckMixed(CliJsonWorkload):
    """``coverlattice check`` on mixed random graphs of 20-24 vertices, half bipartite."""

    name = "check-mixed"
    why = (
        "cover enumeration does nearly all the work and lattice and algebra never run: "
        "the no-change control for lattice and algebra changes"
    )
    size_edges = geometric_edges(1200, 2400, 2)
    # Every heavy_every-th block adds one non-bipartite graph with cover
    # count in heavy_edges, half again as costly as any other case: a few
    # dozen such ops in a run, so the latency with ten samples above it
    # falls inside that one narrow class rather than on whichever few cases
    # happen to run slowest.
    heavy_edges = (3800, 4000)
    heavy_every = 8
    min_draws = {True: 3_000, False: 2_500}  # bipartite, then not
    # enough cases that a run sees most of them only once or twice
    blocks = 160
    trace_blocks = 16

    @staticmethod
    def _draw(rng: random.Random, bipartite: bool):
        # many small components give covers in the hundreds to thousands at 20-24
        # vertices; a few cross edges join some of them
        v = rng.randint(20, 24)
        order = rng.sample(range(v), v)
        nbr = [0] * v
        colour = [0] * v

        def link(a: int, b: int) -> None:
            nbr[a] |= 1 << b
            nbr[b] |= 1 << a

        start = 0
        while start < v:
            size = rng.choice((2, 2, 2, 3) if bipartite else (2, 3, 3))
            if v - start - size < 2:
                size = v - start
            piece = order[start : start + size]
            start += size
            for k in range(1, size):
                parent = piece[rng.randrange(k)]
                link(parent, piece[k])
                colour[piece[k]] = colour[parent] ^ 1
            if not bipartite and size == 3 and rng.random() < 0.7:
                x, y, z = piece  # close the path into a triangle
                link(x, y)
                link(y, z)
                link(x, z)
        for _ in range(rng.randint(0, 3)):
            a, b = rng.sample(range(v), 2)
            if not bipartite or colour[a] != colour[b]:
                link(a, b)
        if two_colourable(v, nbr) != bipartite:
            return None
        count, unmixed = cover_census(v, nbr)
        if unmixed:
            return None  # unmixed graphs would reach the lattice and algebra layers
        return nbr, count

    def generate(self, seed: int, workdir: Path) -> list[Case]:
        rng = random.Random(seed)
        draws = {b: functools.partial(self._draw, bipartite=b) for b in (True, False)}
        light = stratified_blocks(rng, self.size_edges, self.blocks, draws[True], self.min_draws[True])
        # one fill draws the non-bipartite blocks and the heavy class; drawn
        # cover counts between the two are dropped
        bin_edges = (*self.size_edges, *self.heavy_edges)
        quotas = [self.blocks, self.blocks, 0, self.blocks // self.heavy_every]
        *other, _, heavy = fill_bins(rng, bin_edges, quotas, draws[False], self.min_draws[False])
        halves = {True: light, False: list(zip(*other))}
        heavy = iter(heavy)
        cases = []
        for b in range(self.blocks):
            block = [(bipartite, drawn) for bipartite in (True, False) for drawn in halves[bipartite][b]]
            if b % self.heavy_every == self.heavy_every - 1:
                block.append((False, next(heavy)))
            for k, (bipartite, (nbr, count)) in enumerate(block):
                path = workdir / f"check-{b}-{k}.txt"
                edges = [(a, c) for a, row in enumerate(nbr) for c in bits(row) if c > a]
                text = "".join(f"{a + 1} {c + 1}\n" for a, c in edges)
                path.write_text(text, encoding="utf-8")
                expect = {
                    "bipartite": bipartite,
                    "unmixed": False,
                    "covers": count,
                    "cohen_macaulay": None,
                }
                argv = ["check", str(path), "--format", "json"]
                cases.append(Case(argv=argv, expect=expect))
        return cases

    def trace_ops(self) -> int:
        per_block = 2 * (len(self.size_edges) - 1)
        return self.trace_blocks * per_block + self.trace_blocks // self.heavy_every


class GenInverse:
    """``coverlattice gen --graph-out`` at n = 10-12 with |L| in the hundreds."""

    name = "gen-inverse"
    why = (
        "the lattice layer building lattices rather than analysing them: closure, "
        "validation and the inverse graph, with no Hasse diagram"
    )
    size_edges = geometric_edges(300, 420, 6)
    blocks = 24
    trace_blocks = 4

    @staticmethod
    def _draw(rng: random.Random):
        n = rng.randint(10, 12)
        generators = rng.randint(4, 14)
        gen_seed = rng.getrandbits(32)
        # gen closes the bounds and random.Random(gen_seed).getrandbits(n) drawn
        # generators times; the same draws predict its lattice
        draws = random.Random(gen_seed)
        gens = [draws.getrandbits(n) for _ in range(generators)]
        pred = induced_preorder(n, gens)
        return n, generators, gen_seed, pred, count_downsets(pred)

    def generate(self, seed: int, workdir: Path) -> list[Case]:
        rng = random.Random(seed)
        blocks = stratified_blocks(rng, self.size_edges, self.blocks, self._draw, 2_600)
        lat_path, graph_path = workdir / "gen-lattice.txt", workdir / "gen-graph.txt"
        cases = []
        for block in blocks:
            for n, generators, gen_seed, pred, _ in block:
                argv = [
                    "gen", "--n", str(n), "--generators", str(generators), "--seed",
                    str(gen_seed), "--out", str(lat_path), "--graph-out", str(graph_path),
                ]
                expect = {
                    "n": n,
                    "pred": pred,  # the lattice is its down-sets; kept compact
                    "lattice": lat_path,
                    "graph": graph_path,
                }
                cases.append(Case(argv=argv, expect=expect))
        return cases

    def trace_ops(self) -> int:
        return self.trace_blocks * (len(self.size_edges) - 1)

    def run(self, pkg, case: Case):
        return run_cli(pkg, case.argv)

    def check(self, case: Case, result) -> str | None:
        code, _, err = result
        lat_path, graph_path = case.expect["lattice"], case.expect["graph"]
        try:
            if code != 0:
                return f"exit code {code}: {err.strip()[:200]}"
            n, masks = parse_lattice_masks(lat_path.read_text(encoding="utf-8"))
            gn, edges = parse_labeled_edges(graph_path.read_text(encoding="utf-8"))
        finally:
            lat_path.unlink(missing_ok=True)
            graph_path.unlink(missing_ok=True)
        return self._check_files(case, n, masks, gn, edges)

    @staticmethod
    def _check_files(case: Case, n: int, masks: list[int], gn: int, edges) -> str | None:
        if n != case.expect["n"] or gn != n:
            return f"ground set sizes {n} and {gn}, expected {case.expect['n']}"
        family = set(masks)
        if len(family) != len(masks):
            return "lattice file repeats an element"
        pred = induced_preorder(n, family)
        # with both bounds present, the family is closed under union and
        # intersection iff it equals the down-sets of the preorder it induces
        full = (1 << n) - 1
        if 0 not in family or full not in family or downsets(pred) != family:
            return "lattice file is not a bounded sublattice"
        if pred != case.expect["pred"]:
            expected = count_downsets(case.expect["pred"])
            return f"lattice has {len(family)} elements, expected {expected}"
        want = {(i + 1, j + 1) for j in range(n) for i in bits(pred[j])}
        if edges != want:
            return f"graph edges differ from the lattice's rule in {len(edges ^ want)} pairs"
        return None


WORKLOADS = {w.name: w for w in (DimLarge(), SweepRandom(), CheckMixed(), GenInverse())}
