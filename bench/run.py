"""Benchmark of the coverlattice package: one seeded workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It imports the package from ``src/`` of
that checkout, never from an installed copy, and it exits non-zero without
a result when ``src/coverlattice`` is missing.

Ops run one at a time from one client in this one process (a closed loop
with no threads); each op waits for the previous one. The last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. An op fails when it raises, exits non-zero or
its output fails the workload's own check; checks run outside the timed
region.

--trace 0 reports the end-to-end metrics of a run of S seconds: set-up is
repeated SETUP_REPEATS times (fresh import of the package, seeded inputs,
one warm-up op) and setup_s is its median. It starts after the interpreter
and the benchmark's own imports, so it leaves out interpreter start and any
stdlib module the benchmark has already imported. Each set-up drops the
previous one's inputs first. Then ops cycle through the workload's cases
until S seconds have passed. ops_per_s counts the ops that passed their
check over the summed op time, latency_tail_ms is the latency with exactly
ten samples above it (the run prints which percentile that is), and
peak_rss_mb is this process's peak resident memory; the run prints how much
of it was reached before the first timed op. failed / attempted is the
failure ratio; it is not a metric, as it reads 0 on a correct run.

Times are calibrated to a fixed host speed. A shared host runs the same
code up to 1.8 times faster at times, for tens of milliseconds or for
seconds, which moves the raw medians of two runs apart by more than any
bound allows. So the run times a short fixed reference loop (pure Python,
no package code), a probe, between every two ops and SETUP_PROBES times
before and after each set-up. Each op's time is scaled by REF_MS over the
median of the four probes nearest it, two before and two after, and each
set-up's by REF_MS over the median of its own probes: the figures read as
on a host on which the reference loop takes REF_MS. A change to the program moves them as it
moves wall time; a change of host speed during a run does not. The raw
wall-clock figures are printed above the result line.

--trace 1 reports the per-layer metrics over a fixed prefix of the cases.
A first pass under tracemalloc gives op.heap_peak_mb, the most Python heap
one op allocates beyond what it started with. Then the run alternates an
untraced and a traced pass, at least once and then while another pair fits
in S seconds. Self times are per traced pass, counts come from the first
traced pass and repeat exactly for a seed. The spans are written to
.bench_trace/ when the run ends.

predictions.json says which per-layer metric should move which end-to-end
metric on which workload; selfcheck.py tests the benchmark itself.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
import types
from pathlib import Path

from tracing import OP, PACKAGE, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("graphs", "covers", "lattice", "algebra", "pipeline", "cli")

SETUP_REPEATS = 3
MIN_OPS = 20  # the tail percentile needs more than ten samples

# The reference loop takes about REF_MS on the host the benchmark was sized
# on (two vCPUs of a shared x86-64 host, CPython 3.11, in its usual, slower
# state), so calibrated times read about as wall times there.
REF_MS = 1.0
SETUP_PROBES = 5  # before and again after each set-up

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

_SPAN_METRICS = {
    "graphs.bipartition": (),
    "graphs.parse": (),
    "covers.enumerate": ("calls", "calls_per_op", "covers_out"),
    "covers.relabel": (),
    "covers.x_parts": (),
    "lattice.validate": ("elements_in",),
    "lattice.hasse": ("calls_per_op", "edges_out"),
    "lattice.rank": ("calls_per_op",),
    "lattice.inverse": ("calls_per_op",),
    "lattice.random": ("elements_out",),
    "lattice.parse": (),
    "algebra.build_matrices": ("calls_per_op",),
    "algebra.rank_exact": ("calls_per_op", "cells_in"),
    "algebra.rank_mod": (),
    "algebra.growth": ("checked", "skipped", "inconclusive"),
    "algebra.dimension_report": (),
    "pipeline.analyze_graph": (),
    "pipeline.verify_lattice": (),
    "cli.main": (),
}


def _per_layer() -> tuple:
    out = []
    for span, counts in _SPAN_METRICS.items():
        out.append((f"{span}.self_s", "s", "lower"))
        for count in counts:
            unit = "calls/op" if count == "calls_per_op" else "count"
            better = "higher" if count == "checked" else "lower"
            out.append((f"{span}.{count}", unit, better))
    out.append(("op.heap_peak_mb", "MB", "lower"))
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    return tuple(out)


PER_LAYER = _per_layer()


def locate_package() -> Path:
    init = SRC / PACKAGE / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"bench: {init} not found; run from the root of a checkout")
    return init


def import_package() -> types.SimpleNamespace:
    """Import the package afresh from this checkout's src/."""
    init = locate_package()
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    package = importlib.import_module(PACKAGE)
    if Path(package.__file__).resolve() != init.resolve():
        raise SystemExit(f"bench: imported {package.__file__}, expected {init}")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
    )


_ref_rng = random.Random(0)
_REF_SETS = [frozenset(_ref_rng.sample(range(14), _ref_rng.randint(2, 9))) for _ in range(64)]
_REF_MASKS = [_ref_rng.getrandbits(14) for _ in range(64)]


def reference_loop() -> int:
    """Fixed work of the kind the package does: set algebra, dicts, bit counts, a sort."""
    seen: dict = {}
    for a, m in zip(_REF_SETS, _REF_MASKS):
        for b, k in zip(_REF_SETS[:6], _REF_MASKS[:6]):
            key = a | b
            seen[key] = seen.get(key, 0) + len(a & b) + bin(m & k).count("1")
    return len(sorted(seen, key=len))


def probe_ms() -> float:
    """One timed run of the reference loop, in ms."""
    start = time.perf_counter()
    reference_loop()
    return (time.perf_counter() - start) * 1000


def attempt(workload, pkg, case, tracer=None) -> tuple[float, str | None]:
    """Run and check one op; returns its latency in ms and an error, or None.

    A tracer (a Tracer or a HeapPeak) runs the op through its ``op`` method.
    """
    start = time.perf_counter_ns()
    try:
        if tracer is None:
            output = workload.run(pkg, case)
        else:
            output = tracer.op(lambda: workload.run(pkg, case))
    except (Exception, SystemExit) as exc:  # a failed op is counted, not fatal
        return (time.perf_counter_ns() - start) / 1e6, f"raised {exc!r}"
    latency_ms = (time.perf_counter_ns() - start) / 1e6
    try:
        return latency_ms, workload.check(case, output)
    except (ValueError, KeyError, TypeError, AttributeError, OSError) as exc:
        return latency_ms, f"output unreadable: {exc!r}"


def set_up(workload, seed: int, workdir: Path):
    """Import, generate the seeded cases and run one warm-up op; returns (seconds, pkg, cases)."""
    start = time.perf_counter()
    pkg = import_package()
    cases = workload.generate(seed, workdir)
    attempt(workload, pkg, cases[0])
    return time.perf_counter() - start, pkg, cases


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.errors: list[str] = []

    def add(self, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            if len(self.errors) < 5:
                print(f"op {self.attempted} failed: {error}", file=sys.stderr)
            self.errors.append(error)

    def result(self, metrics: dict) -> dict:
        return {
            "correct": not self.errors,
            "attempted": self.attempted,
            "failed": len(self.errors),
            "metrics": metrics,
        }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_run(workload, seed: int, seconds: int, workdir: Path) -> dict:
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        pkg = cases = None  # the previous set-up's inputs are not kept alive
        around = [probe_ms() for _ in range(SETUP_PROBES)]
        setup_s, pkg, cases = set_up(workload, seed, workdir)
        around += [probe_ms() for _ in range(SETUP_PROBES)]
        raw_setups.append(setup_s)
        setups.append(setup_s * REF_MS / statistics.median(around))
    set_up_rss_mb = peak_rss_mb()
    tally = Tally()
    raw: list[float] = []
    probes = [probe_ms()]  # probes[i] runs just before op i, probes[i + 1] just after
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(raw) < MIN_OPS:
        latency_ms, error = attempt(workload, pkg, cases[len(raw) % len(cases)])
        probes.append(probe_ms())
        raw.append(latency_ms)
        tally.add(error)
    latencies = [
        ms * REF_MS / statistics.median(probes[max(0, i - 1) : i + 3])
        for i, ms in enumerate(raw)
    ]
    ordered = sorted(latencies)
    tail_index = len(ordered) - 11  # exactly ten samples lie above it
    succeeded = tally.attempted - len(tally.errors)
    print(f"{workload.name}: {len(latencies)} ops over {len(cases)} cases, seed {seed}")
    print(f"latency_p50_ms is the median of {len(latencies)} samples")
    print(f"latency_tail_ms is p{100 * (tail_index + 1) / len(ordered):.1f} (ten samples above)")
    print(f"setup_s is the median of {SETUP_REPEATS}: {[round(s, 4) for s in setups]}")
    print(
        f"raw wall clock: setup_s {statistics.median(raw_setups):.4f}, "
        f"ops_per_s {succeeded / (sum(raw) / 1000):.3f}, "
        f"latency_p50_ms {statistics.median(raw):.3f}, "
        f"latency_tail_ms {sorted(raw)[tail_index]:.3f}"
    )
    print(
        f"reference loop: {len(probes)} probes, median {statistics.median(probes):.3f} ms "
        f"(REF_MS {REF_MS}), quartiles {[round(q, 3) for q in statistics.quantiles(probes)]}"
    )
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": succeeded / (sum(latencies) / 1000),
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": ordered[tail_index],
        "peak_rss_mb": peak_rss_mb(),
    }
    rss = values["peak_rss_mb"]
    print(f"peak_rss_mb {rss:.2f}; it was {set_up_rss_mb:.2f} at the first timed op")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, *_ in END_TO_END}
    return tally.result(metrics)


def _pass(workload, pkg, cases, tally: Tally, tracer=None) -> float:
    start = time.perf_counter()
    for case in cases:
        tally.add(attempt(workload, pkg, case, tracer)[1])
    return time.perf_counter() - start


class HeapPeak:
    """Wraps ops as a Tracer does; keeps the most Python heap one op allocates
    beyond what it started with. Needs tracemalloc running."""

    def __init__(self) -> None:
        self.peak_bytes = 0

    def op(self, call):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        try:
            return call()
        finally:
            grown = tracemalloc.get_traced_memory()[1] - before
            self.peak_bytes = max(self.peak_bytes, grown)


def heap_peak_mb(workload, pkg, cases, tally: Tally) -> float:
    meter = HeapPeak()
    tracemalloc.start()
    try:
        _pass(workload, pkg, cases, tally, meter)
    finally:
        tracemalloc.stop()
    return meter.peak_bytes / 2**20


def layer_shares(self_s: dict, op_s: float) -> dict:
    shares: dict[str, float] = {}
    for name, seconds in self_s.items():
        layer = name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + seconds / op_s
    return shares


def traced_run(workload, seed: int, seconds: int, workdir: Path, trace_dir: Path) -> dict:
    _, pkg, cases = set_up(workload, seed, workdir)
    cases = cases[: workload.trace_ops()]
    tally = Tally()
    tracers: list[Tracer] = []
    untraced_s = traced_s = 0.0
    start = time.perf_counter()
    heap_mb = heap_peak_mb(workload, pkg, cases, tally)
    pair_s = 0.0
    while not tracers or time.perf_counter() - start + pair_s <= seconds:
        pair_start = time.perf_counter()
        untraced_s += _pass(workload, pkg, cases, tally)
        tracer = Tracer()
        tracer.install()
        try:
            traced_s += _pass(workload, pkg, cases, tally, tracer)
        finally:
            tracer.uninstall()
        tracers.append(tracer)
        pair_s = time.perf_counter() - pair_start

    passes = len(tracers)
    self_s: dict[str, float] = {}
    for tracer in tracers:
        for name, secs in tracer.self_seconds().items():
            self_s[name] = self_s.get(name, 0.0) + secs / passes
    op_s = sum(t.op_seconds() for t in tracers) / passes
    counters = tracers[0].counters
    if any(t.counters != counters for t in tracers[1:]):
        print("warning: counts differ between traced passes", file=sys.stderr)
    values = {
        "trace.overhead_ratio": traced_s / untraced_s,
        "op.heap_peak_mb": heap_mb,
    }
    for name, _, _ in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if kind == "self_s":
            values[name] = self_s.get(span, 0.0)
        elif kind == "calls_per_op":
            values[name] = counters[f"{span}.calls"] / len(cases)
        elif name not in values:
            values[name] = counters[name]

    print(f"{workload.name}: {passes} traced passes of {len(cases)} ops, seed {seed}")
    shares = layer_shares({k: v for k, v in self_s.items() if k != OP}, op_s)
    listed = ", ".join(f"{k} {v:.1%}" for k, v in sorted(shares.items()))
    print(f"layer shares of traced op time: {listed}")
    top = sorted(self_s.items(), key=lambda kv: -kv[1])[:6]
    print("largest self times:", ", ".join(f"{k} {v / op_s:.1%}" for k, v in top))
    trace_dir.mkdir(exist_ok=True)
    trace_file = trace_dir / f"{workload.name}-seed{seed}.jsonl"
    with trace_file.open("w", encoding="utf-8") as out:
        for number, tracer in enumerate(tracers):
            for name, begin, end, parent, op in tracer.spans:
                out.write(json.dumps([number, op, name, begin, end, parent]) + "\n")
    print(f"spans written to {trace_file.relative_to(ROOT)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
    return tally.result(metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    sys.dont_write_bytecode = True  # every set-up compiles the package the same way
    locate_package()
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            result = traced_run(workload, args.seed, args.seconds, workdir, ROOT / ".bench_trace")
        else:
            result = timed_run(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
