"""Command-line front end.

Exit codes: 0 for success (including positive verdicts), 1 for negative
verdicts (not a MAG, m-connected, not equivalent), 2 for unusable input
(parse failures, unknown nodes, rejected moves, bad flags).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import InputError
from .graph import (
    EdgeKind,
    Mag,
    MixedGraph,
    format_path,
    mag_violation,
)
from .equivalence import equivalence_witness, signature_witness
from .io import graph_to_dot, graph_to_json_dict, load_graph
from .separation import find_connecting_path, m_connected
from .transform import (
    MoveDescriptor,
    MoveKind,
    apply_move,
    equivalence_class_closure,
    legal_moves,
)

def _add_format(parser: argparse.ArgumentParser, *extra: str) -> None:
    # text and json everywhere; ``extra`` for commands that print a graph
    parser.add_argument(
        "--format",
        choices=("text", "json", *extra),
        default="text",
        help="output format (default: text)",
    )


def _node_ids(g: MixedGraph, labels: list[str]) -> list[int]:
    return [g.node_id(lbl) for lbl in labels]


def _split_labels(raw: str) -> list[str]:
    # the non-empty comma-separated labels, each once, in first-seen order
    parts = (p.strip() for p in raw.split(","))
    return list(dict.fromkeys(p for p in parts if p))


def _emit_graph(g: MixedGraph, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(graph_to_json_dict(g)))
    elif fmt == "dot":
        print(graph_to_dot(g), end="")
    else:
        print("nodes: " + ", ".join(g.labels))
        for e in g.edges:
            arrow = "->" if e.kind is EdgeKind.DIRECTED else "<->"
            print(f"{g.labels[e.u]} {arrow} {g.labels[e.v]}")


def _cmd_validate(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    kind, witness = mag_violation(g) or (None, None)
    ancestral = kind != "ancestral"
    maximal = kind is None if ancestral else None
    notes: dict[str, object] = {"ancestral": ancestral, "maximal": maximal}
    if witness is not None:
        notes["witness"] = witness
    notes["mag"] = kind is None
    if args.format == "json":
        print(json.dumps(notes))
    else:
        print(f"ancestral: {'yes' if ancestral else 'no'}")
        print(f"maximal: {'unknown (not ancestral)' if maximal is None else 'yes' if maximal else 'no'}")
        if witness is not None:
            print(f"witness: {witness}")
        print(f"mag: {'yes' if kind is None else 'no'}")
    return 0 if kind is None else 1


def _cmd_separate(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    x, y = _node_ids(g, [args.x, args.y])
    given = _node_ids(g, _split_labels(args.given))
    path = find_connecting_path(g, x, y, given)
    connected = path is not None
    if args.format == "json":
        labels = [g.labels[v] for v in path] if path else None
        print(json.dumps({"connected": connected, "path": labels}))
    else:
        shown = "{" + ", ".join(sorted(g.labels[v] for v in given)) + "}"
        if connected:
            print(f"m-connected given {shown}; path: {format_path(g, path)}")
        else:
            print(f"m-separated given {shown}")
    return 1 if connected else 0


def _signature_witness_text(m1: Mag, m2: Mag) -> str | None:
    query = signature_witness(m1, m2)
    if query is None:
        return None
    x, y, given = query
    lbl = m1.labels
    which = "first" if m_connected(m1.graph, x, y, given) else "second"
    shown = "{" + ", ".join(sorted(lbl[v] for v in given)) + "}"
    return (
        f"{lbl[x]} and {lbl[y]} are m-connected given {shown} "
        f"in the {which} graph only"
    )


def _cmd_equiv(args: argparse.Namespace) -> int:
    m1 = Mag(load_graph(args.first))
    m2 = Mag(load_graph(args.second))
    if args.oracle:
        witness = _signature_witness_text(m1, m2)
    else:
        witness = equivalence_witness(m1, m2)
    same = witness is None
    if args.format == "json":
        method = "oracle" if args.oracle else "graphical"
        print(json.dumps({"equivalent": same, "method": method, "witness": witness}))
    else:
        print("equivalent" if same else "not equivalent")
    return 0 if same else 1


def _cmd_moves(args: argparse.Namespace) -> int:
    m = Mag(load_graph(args.graph))
    moves = legal_moves(m)
    lbl = m.labels
    if args.format == "json":
        out = [{"kind": mv.kind.value, "x": lbl[mv.x], "y": lbl[mv.y]} for mv in moves]
        print(json.dumps(out))
    else:
        for mv in moves:
            print(f"{mv.kind.value} {lbl[mv.x]} {lbl[mv.y]}")
    return 0


def _cmd_apply(args: argparse.Namespace) -> int:
    m = Mag(load_graph(args.graph))
    kind = MoveKind(args.kind)
    x = m.graph.node_id(args.x)
    y = m.graph.node_id(args.y)
    result = apply_move(m, MoveDescriptor(kind, x, y))
    _emit_graph(result.graph, args.format)
    return 0


def _cmd_class(args: argparse.Namespace) -> int:
    m = Mag(load_graph(args.graph))
    res = equivalence_class_closure(m, max_size=args.max)
    if args.format == "json":
        graphs = {k: graph_to_json_dict(v.graph) for k, v in sorted(res.graphs.items())}
        out = {"keys": sorted(res.keys), "truncated": res.truncated, "graphs": graphs}
        print(json.dumps(out))
    else:
        for key in sorted(res.keys):
            print(key)
        if res.truncated:
            print(f"truncated at {args.max}", file=sys.stderr)
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    # One write per checked block, so the lines of the MAGs before a failed
    # check are written before the error surfaces.  Text writes each block's
    # keys and builds no graph; JSON and DOT render the block's graphs.
    from . import enumeration  # numpy loads only for the sweep commands

    gap = ""  # a blank line between DOT graphs, within and across blocks
    for keys, graphs in enumeration._mag_blocks(args.n):
        if args.format == "text":
            sys.stdout.write("".join([key + "\n" for key in keys]))
        elif args.format == "json":
            sys.stdout.write(
                "".join([json.dumps(graph_to_json_dict(g)) + "\n" for g in graphs])
            )
        else:
            sys.stdout.write(gap + "\n".join([graph_to_dot(g) for g in graphs]))
            gap = "\n"
    return 0


def _cmd_conjecture(args: argparse.Namespace) -> int:
    from . import enumeration

    report = enumeration.test_conjecture1(args.n)
    print(json.dumps(report.to_json_dict(), indent=2))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import enumeration

    report = enumeration.verify_theorems(args.n)
    print(json.dumps(report.to_json_dict(), indent=2))
    return 0 if all(c.passed for c in report.checks.values()) else 1


def _cmd_dot(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    print(graph_to_dot(g), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magmoves",
        description=(
            "Validate, query, and transform maximal ancestral graphs. "
            "Graph arguments are JSON files; pass - to read stdin."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check ancestral / maximal / MAG status")
    p.add_argument("graph")
    _add_format(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("separate", help="test m-separation of two nodes")
    p.add_argument("graph")
    p.add_argument("--x", required=True, help="first node label")
    p.add_argument("--y", required=True, help="second node label")
    p.add_argument("--given", default="", help="comma-separated conditioning labels")
    _add_format(p)
    p.set_defaults(func=_cmd_separate)

    p = sub.add_parser("equiv", help="test Markov equivalence of two MAGs")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="compare full separation signatures instead of the graphical test",
    )
    _add_format(p)
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("moves", help="list licensed edge replacements")
    p.add_argument("graph")
    _add_format(p)
    p.set_defaults(func=_cmd_moves)

    p = sub.add_parser("apply", help="apply one edge replacement")
    p.add_argument("graph")
    p.add_argument("--kind", required=True, choices=[k.value for k in MoveKind])
    p.add_argument("--x", required=True, help="x endpoint label")
    p.add_argument("--y", required=True, help="y endpoint label")
    _add_format(p, "dot")
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("class", help="closure of a MAG under licensed moves")
    p.add_argument("graph")
    p.add_argument("--max", type=int, default=1000, help="size cap (default 1000)")
    _add_format(p)
    p.set_defaults(func=_cmd_class)

    p = sub.add_parser("enumerate", help="stream all MAGs on n nodes")
    p.add_argument("--n", type=int, required=True)
    _add_format(p, "dot")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser(
        "conjecture", help="delta-blanket sweep report (JSON) for n nodes"
    )
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_conjecture)

    p = sub.add_parser(
        "verify", help="exhaustive theorem verification report (JSON) for n nodes"
    )
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("dot", help="emit a graph in DOT form")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:  # console-script hook
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left (``enumerate --n 5 | head``): exit 1 as Python
        # does, stdout on devnull so the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    entry()
