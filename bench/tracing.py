"""Spans and counters recorded from outside the package, around its public functions.

``Tracer.install`` rebinds each function listed in TARGETS, in every loaded
``coverlattice`` module that holds it, so calls made between modules (for
example ``lattice.rank`` calling ``hasse``, or ``CoverLattice`` calling
``is_sublattice``) are traced too. ``uninstall`` puts the originals back.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter_ns


def _growth_outcome(args, outcome) -> dict:
    if outcome.growth_skipped:
        return {"algebra.growth.skipped": 1}
    if outcome.growth_dimension is None:
        return {"algebra.growth.inconclusive": 1}
    return {"algebra.growth.checked": 1}


# (module, function, span name, counters taken from the arguments and result)
TARGETS = (
    ("graphs", "parse_graph", "graphs.parse", None),
    ("graphs", "parse_labeled", "graphs.parse", None),
    ("graphs", "bipartition", "graphs.bipartition", None),
    ("covers", "enumerate_minimal_covers", "covers.enumerate",
     lambda a, r: {"covers.enumerate.covers_out": len(r)}),
    ("covers", "relabel", "covers.relabel", None),
    ("covers", "x_parts", "covers.x_parts", None),
    ("lattice", "is_sublattice", "lattice.validate",
     lambda a, r: {"lattice.validate.elements_in": len(a[0])}),
    ("lattice", "hasse", "lattice.hasse",
     lambda a, r: {"lattice.hasse.edges_out": len(r.edges)}),
    ("lattice", "rank", "lattice.rank", None),
    ("lattice", "graph_from_lattice", "lattice.inverse", None),
    ("lattice", "random_sublattice", "lattice.random",
     lambda a, r: {"lattice.random.elements_out": len(r.elements)}),
    ("lattice", "parse_lattice", "lattice.parse", None),
    ("algebra", "build_matrices", "algebra.build_matrices", None),
    ("algebra", "rank_exact", "algebra.rank_exact",
     lambda a, r: {"algebra.rank_exact.cells_in": sum(len(row) for row in a[0])}),
    ("algebra", "rank_mod", "algebra.rank_mod", None),
    ("algebra", "growth_oracle", "algebra.growth", None),
    ("algebra", "dimension_report", "algebra.dimension_report", None),
    ("pipeline", "analyze_graph", "pipeline.analyze_graph", None),
    ("pipeline", "verify_lattice", "pipeline.verify_lattice", _growth_outcome),
    ("cli", "main", "cli.main", None),
)

PACKAGE = "coverlattice"
OP = "op"  # the benchmark's own span around one whole op


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, op id]
        self.counters: Counter = Counter()
        self.op_id = -1
        self._open: list[int] = []
        self._patched: list[tuple] = []

    def _enter(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, perf_counter_ns(), 0, parent, self.op_id])
        self._open.append(len(self.spans) - 1)
        self.counters[name + ".calls"] += 1
        return self._open[-1]

    def _exit(self, index: int) -> None:
        self.spans[index][2] = perf_counter_ns()
        self._open.pop()

    def op(self, call):
        """Run call() as one op under its own root span."""
        self.op_id += 1
        index = self._enter(OP)
        try:
            return call()
        finally:
            self._exit(index)

    def _wrap(self, name: str, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if count is not None:
                self.counters.update(count(args, result))
            return result

        return traced

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        for module_name, attr, name, count in TARGETS:
            original = getattr(sys.modules.get(f"{PACKAGE}.{module_name}"), attr, None)
            if original is None:
                continue  # the function is gone; its metrics read zero
            traced = self._wrap(name, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def self_seconds(self) -> Counter:
        """Per span name: total duration minus the time its direct child spans cover.

        Calls nest and never overlap in one thread, so the children of a span
        are disjoint and their summed durations are the time they cover.
        """
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: Counter = Counter()
        for (name, start, end, _, _), inner in zip(self.spans, child_ns):
            out[name] += (end - start - inner) / 1e9
        return out

    def op_seconds(self) -> float:
        return sum(end - start for name, start, end, _, _ in self.spans if name == OP) / 1e9
