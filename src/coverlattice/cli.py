"""Command-line front end.

Subcommands: check, covers, lattice, dim, from-lattice, verify, gen.
Exit codes: 0 all asserted properties hold, 1 a structural identity was
violated (never expected on valid input), 2 input or usage error.
Sets print straight from masks, through graphs._set_texts and
graphs._members, and key=value text through algebra._key_values.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from pathlib import Path

from .algebra import _key_values, format_report
from .covers import DEFAULT_MAX_VERTICES, _cover_lines, _sorted_cover_masks
from .exceptions import CoverError, GraphError, InconsistencyError, LatticeError
from .graphs import (
    Graph,
    _content_lines,
    _members,
    as_graph,
    parse_graph,
    parse_labeled,
    serialize_labeled,
)
from .lattice import (
    CoverLattice,
    _dot,
    _hasse_pairs,
    format_lattice,
    graph_from_lattice,
    parse_lattice,
    random_sublattice,
    enumerate_sublattices,
)
from .pipeline import GraphAnalysis, analyze_graph, verify_lattice

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.buffer.read().decode("utf-8")
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        # an unreadable input, like a missing file: main reports it and exits 2
        raise OSError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _load_graph(path: str) -> Graph:
    """Accept either an edge-list file or a labeled-graph file (n= header)."""
    text = _read_text(path)
    for _, line, _ in _content_lines(text):  # the first content line picks the parser
        return as_graph(parse_labeled(text)) if line.startswith("n=") else parse_graph(text)
    raise GraphError(f"{path}: no content")


def _write_or_print(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _export_dot(lat: CoverLattice, path: str | None) -> None:
    """The Hasse diagram written from lat.masks and its sorted cover pairs."""
    if path:
        Path(path).write_text(_dot(lat.masks, lat.n, _hasse_pairs(lat)), encoding="utf-8")


def cmd_check(args: argparse.Namespace) -> int:
    analysis = analyze_graph(_load_graph(args.graph_file), max_vertices=args.max_vertices)
    payload = {
        "bipartite": analysis.partition is not None,
        "unmixed": analysis.unmixed,
        "covers": sum(count for _, count in analysis.cover_size_counts),
        "cohen_macaulay": (
            analysis.report.cohen_macaulay if analysis.report is not None else None
        ),
    }
    if args.format == "json":
        print(json.dumps(payload))
    else:
        print(_key_values(payload, {"cohen_macaulay": "cm"}, " "))
    return EXIT_OK


def cmd_covers(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph_file)
    masks = _sorted_cover_masks(g, args.max_vertices)
    if args.format == "json":
        print(json.dumps(list(map(_members, masks))))
    else:
        sys.stdout.write(_cover_lines(masks, g.vertex_count))
    return EXIT_OK


def _require_pipeline(analysis: GraphAnalysis) -> None:
    if analysis.partition is None:
        raise GraphError("graph is not bipartite")
    if not analysis.unmixed:
        sizes = [size for size, _ in analysis.cover_size_counts]
        raise CoverError(f"graph is not unmixed: cover sizes {sizes}")


def cmd_lattice(args: argparse.Namespace) -> int:
    analysis = analyze_graph(_load_graph(args.graph_file), max_vertices=args.max_vertices)
    _require_pipeline(analysis)
    assert analysis.lattice is not None
    _export_dot(analysis.lattice, args.dot)
    _write_or_print(format_lattice(analysis.lattice), args.out)
    return EXIT_OK


def cmd_dim(args: argparse.Namespace) -> int:
    analysis = analyze_graph(_load_graph(args.graph_file), max_vertices=args.max_vertices)
    _require_pipeline(analysis)
    assert analysis.report is not None and analysis.lattice is not None
    report = analysis.report
    _export_dot(analysis.lattice, args.dot)
    if args.format == "json":
        print(json.dumps(report.as_dict()))
    else:
        sys.stdout.write(format_report(report))
    return EXIT_OK


def cmd_from_lattice(args: argparse.Namespace) -> int:
    lat = parse_lattice(_read_text(args.lattice_file))
    lg = graph_from_lattice(lat)
    _export_dot(lat, args.dot)
    _write_or_print(serialize_labeled(lg), args.out)
    print("round-trip=ok", file=sys.stderr)
    return EXIT_OK


def _verify_record(outcome) -> dict:
    report = outcome.report
    return {
        "n": outcome.lattice.n,
        "elements": list(map(_members, outcome.lattice.masks)),
        "covers": report.cover_count,
        "rank_full": report.rank_full,
        "rank_truncated": report.rank_truncated,
        "lattice_rank": report.lattice_rank,
        "dimension": report.dimension,
        "cohen_macaulay": report.cohen_macaulay,
        "growth": outcome.growth_dimension,
    }


def cmd_verify(args: argparse.Namespace) -> int:
    if args.n is not None:
        if not 1 <= args.n <= 4:
            raise LatticeError("exhaustive verification needs 1 <= n <= 4")
        instances = enumerate_sublattices(args.n)
    else:
        count, seed = args.random
        if not 1 <= args.size <= 8:
            raise LatticeError("random verification needs 1 <= size <= 8")
        if count < 0:
            raise LatticeError(f"random verification needs COUNT >= 0, got {count}")
        master = random.Random(seed)

        def _random_instances():
            for _ in range(count):
                generators = master.randint(0, 2 * args.size + 2)
                yield random_sublattice(args.size, generators, master.getrandbits(32))

        instances = _random_instances()

    total = 0
    for lat in instances:
        outcome = verify_lattice(lat)
        total += 1
        if args.format == "json":
            print(json.dumps(_verify_record(outcome)))
    # verify_lattice checks the multichain degree on every instance it returns
    summary = {"instances": total, "failures": 0, "growth_checked": total}
    if args.format == "json":
        print(json.dumps({"summary": summary}))
    else:
        print(_key_values(summary, {}, " "))
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    lat = random_sublattice(args.n, args.generators, args.seed)
    _write_or_print(format_lattice(lat), args.out)
    if args.graph_out:
        lg = graph_from_lattice(lat)
        _write_or_print(serialize_labeled(lg), args.graph_out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coverlattice",
        description=(
            "Minimal vertex covers of unmixed bipartite graphs, their cover "
            "lattices, and exact dimension arithmetic."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="bipartite / unmixed / Cohen-Macaulay summary")
    p_check.add_argument("graph_file")
    p_check.set_defaults(func=cmd_check)

    p_covers = sub.add_parser("covers", help="list all minimal vertex covers")
    p_covers.add_argument("graph_file")
    p_covers.set_defaults(func=cmd_covers)

    p_lattice = sub.add_parser("lattice", help="emit the cover lattice of a graph")
    p_lattice.add_argument("graph_file")
    p_lattice.add_argument("--out", default=None, help="output path (default stdout)")
    p_lattice.add_argument("--dot", default=None, help="write the Hasse diagram as DOT")
    p_lattice.set_defaults(func=cmd_lattice)

    p_dim = sub.add_parser("dim", help="dimension report for an unmixed bipartite graph")
    p_dim.add_argument("graph_file")
    p_dim.add_argument("--dot", default=None, help="write the Hasse diagram as DOT")
    p_dim.set_defaults(func=cmd_dim)

    p_from = sub.add_parser("from-lattice", help="rebuild the unique graph of a lattice file")
    p_from.add_argument("lattice_file")
    p_from.add_argument("--out", default=None, help="output path (default stdout)")
    p_from.add_argument("--dot", default=None, help="write the Hasse diagram as DOT")
    p_from.set_defaults(func=cmd_from_lattice)

    p_verify = sub.add_parser("verify", help="sweep lattice instances through every check")
    group = p_verify.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, default=None, help="exhaustive sweep, n <= 4")
    group.add_argument(
        "--random",
        nargs=2,
        type=int,
        metavar=("COUNT", "SEED"),
        help="random sweep of COUNT instances",
    )
    p_verify.add_argument("--size", type=int, default=5, help="ground-set size for --random")
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("gen", help="generate a random lattice (and optionally its graph)")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--generators", type=int, default=3)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=None, help="lattice output path (default stdout)")
    p_gen.add_argument("--graph-out", default=None, help="also write the graph here")
    p_gen.set_defaults(func=cmd_gen)

    for p in (p_check, p_covers, p_dim, p_verify):  # the commands that print json
        p.add_argument("--format", choices=("text", "json"), default="text")
    for p in (p_check, p_covers, p_lattice, p_dim):  # the commands that read a graph
        p.add_argument(
            "--max-vertices",
            type=int,
            default=DEFAULT_MAX_VERTICES,
            help="enumeration size cap override",
        )
    return parser


_parser = functools.cache(build_parser)  # built once per process, reused by every main call


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, CoverError, LatticeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        certificate = getattr(exc, "certificate", None)
        if certificate is not None:
            print(f"certificate: {certificate}", file=sys.stderr)
        return EXIT_INPUT
    except InconsistencyError as exc:
        print(f"INCONSISTENCY: {exc}", file=sys.stderr)
        if exc.details:
            print(json.dumps(exc.details, indent=2), file=sys.stderr)
        return EXIT_VIOLATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
