"""Tests of the benchmark itself.

    python3 bench/selfcheck.py

Checks that every workload's checker accepts the program's real output and
rejects corrupted copies of it, that the control workloads stay controls
under tracing, that each workload keeps the focus it was sized for, that a
directory without the package makes run.py fail without a result, and that
BENCHMARK.json lists exactly what run.py reports. Prints one PASS or FAIL
line per check and exits 1 if any failed.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import run
from tracing import Tracer
from workloads import (
    WORKLOADS,
    CheckMixed,
    maximal_independent_set_sizes,
)

SEED = 7
FAILURES: list[str] = []


def report(ok: bool, text: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} - {text}")
    if not ok:
        FAILURES.append(text)


def _with_json(result, **changes):
    code, out, err = result
    payload = json.loads(out)
    for key, change in changes.items():
        payload[key] = change(payload[key])
    return code, json.dumps(payload), err


def _with_report(outcome, **changes):
    fields = {k: change(getattr(outcome.report, k)) for k, change in changes.items()}
    return dataclasses.replace(outcome, report=dataclasses.replace(outcome.report, **fields))


CORRUPTIONS = {
    "dim-large": {
        "wrong cover count": lambda r: _with_json(r, cover_count=lambda v: v + 1),
        "flipped CM flag": lambda r: _with_json(r, cohen_macaulay=lambda v: not v),
        "wrong lattice rank": lambda r: _with_json(r, lattice_rank=lambda v: v - 1),
        "non-zero exit": lambda r: (1, "", "boom"),
    },
    "sweep-random": {
        "wrong cover count": lambda o: _with_report(o, cover_count=lambda v: v - 1),
        "wrong lattice rank": lambda o: _with_report(o, lattice_rank=lambda v: v + 1),
        "flipped CM flag": lambda o: _with_report(o, cohen_macaulay=lambda v: not v),
    },
    "check-mixed": {
        "wrong cover count": lambda r: _with_json(r, covers=lambda v: v + 1),
        "flipped bipartite flag": lambda r: _with_json(r, bipartite=lambda v: not v),
        "claims unmixed": lambda r: _with_json(r, unmixed=lambda v: True),
    },
}


def _drop_middle_element(lattice: str, graph: str):
    lines = lattice.splitlines()
    return "\n".join(lines[:2] + lines[3:]) + "\n", graph


def _drop_bottom(lattice: str, graph: str):
    lines = lattice.splitlines()
    return "\n".join(line for line in lines if line != "{}") + "\n", graph


def _other_sublattice(lattice: str, graph: str):
    lines = lattice.splitlines()  # header, {}, ..., full set: keep the chain {} < full
    return "\n".join([lines[0], lines[1], lines[-1]]) + "\n", graph


def _drop_off_diagonal_edge(lattice: str, graph: str):
    lines = graph.splitlines()
    off = next(k for k, line in enumerate(lines[1:], 1) if len(set(line.split())) == 2)
    return lattice, "\n".join(lines[:off] + lines[off + 1 :]) + "\n"


def _add_edge(lattice: str, graph: str):
    lines = graph.splitlines()
    n = int(lines[0][2:])
    present = set(lines[1:])
    pairs = (f"{i} {j}" for i in range(1, n + 1) for j in range(1, n + 1))
    extra = next(p for p in pairs if p not in present)
    return lattice, graph + extra + "\n"


GEN_CORRUPTIONS = {
    "dropped lattice element": _drop_middle_element,
    "dropped empty set": _drop_bottom,
    "another bounded sublattice": _other_sublattice,
    "dropped graph edge": _drop_off_diagonal_edge,
    "extra graph edge": _add_edge,
}


def check_checkers(pkg, workdir: Path) -> None:
    for name, workload in WORKLOADS.items():
        cases = workload.generate(SEED, workdir)
        case = cases[0]
        output = workload.run(pkg, case)
        if name == "gen-inverse":
            lat_path, graph_path = case.expect["lattice"], case.expect["graph"]
            texts = lat_path.read_text(), graph_path.read_text()
            report(workload.check(case, output) is None, f"{name}: real output accepted")
            for label, corrupt in GEN_CORRUPTIONS.items():
                lattice, graph = corrupt(*texts)
                lat_path.write_text(lattice)
                graph_path.write_text(graph)
                error = workload.check(case, output)
                report(error is not None, f"{name}: {label} rejected ({error})")
            continue
        report(workload.check(case, output) is None, f"{name}: real output accepted")
        for label, corrupt in CORRUPTIONS[name].items():
            try:
                error = workload.check(case, corrupt(output))
            except ValueError as exc:  # unreadable output is a rejection as well
                error = repr(exc)
            report(error is not None, f"{name}: {label} rejected ({error})")


def check_census() -> None:
    rng = random.Random(SEED)
    compared = wrong = 0
    for _ in range(60):
        drawn = CheckMixed._draw(rng, rng.random() < 0.5)
        if drawn is not None:
            nbr, count = drawn
            compared += 1
            wrong += len(maximal_independent_set_sizes(len(nbr), nbr)) != count
    text = f"check-mixed: per-component cover counts match whole-graph ones on {compared}"
    report(compared > 0 and not wrong, text)


def traced_pass(workload, pkg, cases) -> Tracer:
    tracer = Tracer()
    tracer.install()
    try:
        tally = run.Tally()
        for case in cases:
            tally.add(run.attempt(workload, pkg, case, tracer)[1])
    finally:
        tracer.uninstall()
    report(not tally.errors, f"{workload.name}: traced pass of {tally.attempted} ops correct")
    return tracer


def check_focus(pkg, workdir: Path) -> None:
    shares = {}
    tracers = {}
    for name, workload in WORKLOADS.items():
        cases = workload.generate(SEED, workdir)[: workload.trace_ops()]
        tracer = traced_pass(workload, pkg, cases)
        op_s = tracer.op_seconds()
        shares[name] = {k: v / op_s for k, v in tracer.self_seconds().items()}
        tracers[name] = tracer

    calls = tracers["check-mixed"].counters
    stray = {k: v for k, v in calls.items() if k.startswith(("lattice.", "algebra.")) and v}
    report(not stray, f"check-mixed: no lattice or algebra calls ({stray})")
    hasse_calls = tracers["gen-inverse"].counters["lattice.hasse.calls"]
    report(hasse_calls == 0, f"gen-inverse: no lattice.hasse calls ({hasse_calls})")

    dim = shares["dim-large"]
    focus = dim.get("lattice.hasse", 0) + dim.get("lattice.validate", 0)
    report(focus >= 0.8, f"dim-large: hasse + validate take {focus:.1%} of op time (>= 80%)")
    focus = shares["check-mixed"].get("covers.enumerate", 0)
    report(focus >= 0.8, f"check-mixed: covers.enumerate takes {focus:.1%} (>= 80%)")
    focus = sum(v for k, v in shares["gen-inverse"].items() if k.startswith("lattice."))
    report(focus >= 0.7, f"gen-inverse: lattice.* takes {focus:.1%} (>= 70%)")
    layers = run.layer_shares(shares["sweep-random"], 1.0)
    top = max(layers, key=layers.get)
    text = f"sweep-random: largest layer {top} takes {layers[top]:.1%} (<= 50%)"
    report(layers[top] <= 0.5, text)


def check_bare_directory(workdir: Path) -> None:
    bare = workdir / "bare"
    shutil.copytree(run.ROOT / "bench", bare / "bench")
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    argv = ["bench/run.py", "--workload", "dim-large", "--seed", "1", "--seconds", "1"]
    done = subprocess.run(
        [sys.executable, *argv], cwd=bare, capture_output=True, text=True, timeout=180
    )
    printed_result = done.stdout.strip().endswith("}")
    report(
        done.returncode != 0 and not printed_result,
        f"without src/ run.py exits {done.returncode} and prints no result",
    )


def check_manifest() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    workloads = {w["name"]: w["why"] for w in spec["workloads"]}
    report(end_to_end == list(run.END_TO_END), "BENCHMARK.json end_to_end matches run.py")
    report(per_layer == list(run.PER_LAYER), "BENCHMARK.json per_layer matches run.py")
    whys = {k: w.why for k, w in WORKLOADS.items()}
    report(workloads == whys, "BENCHMARK.json workloads match workloads.py")


def main() -> int:
    workdir = run.ROOT / ".bench_work" / f"selfcheck-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        pkg = run.import_package()
        check_manifest()
        check_census()
        check_checkers(pkg, workdir)
        check_focus(pkg, workdir)
        check_bare_directory(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
