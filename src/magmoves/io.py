"""Graph serialization.

JSON is the interchange format:

    {"nodes": ["A", "B"], "edges": [{"u": "A", "v": "B", "type": "directed"}]}

DOT output renders directed edges as ``A -> B`` and bi-directed edges as
``A -> B [dir=both]``, with every label quoted: a backslash escapes a quote
or a backslash, and ``\\uXXXX`` each character ``str.splitlines`` breaks
at.  A reader for exactly that DOT subset is included so emitted files
round-trip.
"""

from __future__ import annotations

import json
import os
import re
import sys

from .errors import InputError, ParseError, _shown
from .graph import EdgeKind, MixedGraph, _put_edge, require_graph

__all__ = [
    "graph_from_json_dict",
    "graph_to_json_dict",
    "parse_graph_json",
    "graph_to_json",
    "graph_to_dot",
    "parse_dot",
    "load_graph",
]


def graph_from_json_dict(data: object) -> MixedGraph:
    """The graph a decoded JSON document describes, each edge checked once
    and written straight into the graph's rows."""
    if not isinstance(data, dict):
        raise ParseError("graph document must be a JSON object")
    unknown = set(data) - {"nodes", "edges"}
    if unknown:
        raise ParseError(f"unknown graph fields: {sorted(unknown)}")
    nodes = data.get("nodes")
    if not isinstance(nodes, list) or not all(isinstance(x, str) for x in nodes):
        raise ParseError("'nodes' must be a list of strings")
    if len(set(nodes)) != len(nodes):
        dup = next(x for i, x in enumerate(nodes) if x in nodes[:i])
        raise ParseError(f"duplicate node label {dup!r}")
    index = {label: i for i, label in enumerate(nodes)}
    raw_edges = data.get("edges", [])
    if not isinstance(raw_edges, list):
        raise ParseError("'edges' must be a list")
    n = len(nodes)
    pa, ch, sp = [0] * n, [0] * n, [0] * n
    for item in raw_edges:
        if not isinstance(item, dict) or item.keys() != {"u", "v", "type"}:
            raise ParseError("each edge must be an object with fields 'u', 'v', 'type'")
        a, b = item["u"], item["v"]
        u = index.get(a) if isinstance(a, str) else None
        v = index.get(b) if isinstance(b, str) else None
        if u is None or v is None:
            bad = a if u is None else b
            raise ParseError(f"edge endpoint {_shown(bad)} is not a declared node")
        if u == v:
            raise ParseError(f"self-loop at node {a!r}")
        if (pa[u] | ch[u] | sp[u]) >> v & 1:
            i, j = (u, v) if u < v else (v, u)
            raise ParseError(
                f"more than one edge between {nodes[i]!r} and {nodes[j]!r}"
            )
        kind = item["type"]
        if kind != "directed" and kind != "bidirected":
            raise ParseError(f"unknown edge type {_shown(kind)}")
        _put_edge(pa, ch, sp, u, v, kind == "bidirected")
    return MixedGraph._trusted(n, tuple(nodes), pa, ch, sp, None)


def parse_graph_json(text: str) -> MixedGraph:
    if not isinstance(text, (str, bytes, bytearray)):
        raise InputError(f"expected JSON text, got {_shown(text)}")
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError and over-long integers are ValueErrors; deep
        # nesting exhausts the decoder's recursion
        raise ParseError(f"invalid JSON: {exc}") from None
    return graph_from_json_dict(data)


def graph_to_json_dict(g: MixedGraph) -> dict:
    require_graph(g)
    lbl = g.labels
    edges = [{"u": lbl[e.u], "v": lbl[e.v], "type": e.kind.value} for e in g.edges]
    return {"nodes": list(lbl), "edges": edges}


def graph_to_json(g: MixedGraph, indent: int | str | None = 2) -> str:
    if isinstance(indent, bool) or not isinstance(indent, (int, str, type(None))):
        raise InputError(f"indent must be None, an int or a str, got {_shown(indent)}")
    if isinstance(indent, int) and indent > sys.maxsize:
        raise InputError(f"indent must be at most {sys.maxsize}, got {_shown(indent)}")
    return json.dumps(graph_to_json_dict(g), indent=indent)


# Escapes that keep a quoted label on its statement's line.
_DOT_ESCAPES = str.maketrans(
    {"\\": "\\\\", '"': '\\"'}
    | {c: f"\\u{ord(c):04x}" for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}
)


def _dot_quote(label: str) -> str:
    return '"' + label.translate(_DOT_ESCAPES) + '"'


def graph_to_dot(g: MixedGraph) -> str:
    require_graph(g)
    lines = ["digraph {"]
    for label in g.labels:
        lines.append(f"  {_dot_quote(label)};")
    for e in g.edges:
        u, v = _dot_quote(g.labels[e.u]), _dot_quote(g.labels[e.v])
        if e.kind is EdgeKind.DIRECTED:
            lines.append(f"  {u} -> {v};")
        else:
            lines.append(f"  {u} -> {v} [dir=both];")
    lines.append("}")
    return "\n".join(lines) + "\n"


_DOT_NAME = r'(?:"(?P<q{0}>(?:[^"\\]|\\.)*)"|(?P<p{0}>[A-Za-z0-9_]+))'
_DOT_NODE = re.compile(r"^\s*" + _DOT_NAME.format(1) + r"\s*;\s*$")
_DOT_EDGE = re.compile(
    r"^\s*"
    + _DOT_NAME.format(1)
    + r"\s*->\s*"
    + _DOT_NAME.format(2)
    + r"\s*(?P<attrs>\[\s*dir\s*=\s*both\s*\])?\s*;\s*$"
)


def _dot_unescape(match: re.Match) -> str:
    code, char = match.groups()
    return char if code is None else chr(int(code, 16))


def _dot_unquote(match: re.Match, slot: int) -> str:
    quoted = match.group(f"q{slot}")
    if quoted is not None:
        return re.sub(r"\\u([0-9a-fA-F]{4})|\\(.)", _dot_unescape, quoted)
    return match.group(f"p{slot}")


def parse_dot(text: str) -> MixedGraph:
    """Read the DOT subset produced by :func:`graph_to_dot`."""
    if not isinstance(text, str):
        raise InputError(f"expected DOT text, got {_shown(text)}")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].strip().startswith("digraph"):
        raise ParseError("expected a digraph block")
    if lines[-1].strip() != "}":
        raise ParseError("unterminated digraph block")
    labels: list[str] = []
    edge_specs: list[tuple[str, str, bool]] = []
    for ln in lines[1:-1]:
        m = _DOT_NODE.match(ln)
        if m:
            labels.append(_dot_unquote(m, 1))
            continue
        m = _DOT_EDGE.match(ln)
        if m:
            edge_specs.append(
                (_dot_unquote(m, 1), _dot_unquote(m, 2), m.group("attrs") is not None)
            )
            continue
        raise ParseError(f"unrecognized DOT statement: {ln.strip()!r}")
    if len(set(labels)) != len(labels):
        raise ParseError("duplicate node statement")
    index = {label: i for i, label in enumerate(labels)}
    n = len(labels)
    pa, ch, sp = [0] * n, [0] * n, [0] * n
    dup = None  # the first repeated pair, reported once every edge resolves
    for u, v, both in edge_specs:
        if u not in index or v not in index:
            raise ParseError(f"edge references undeclared node {u!r} or {v!r}")
        a, b = index[u], index[v]
        if a == b:
            raise ParseError(f"self-loop at node {u!r}")
        if not (pa[a] | ch[a] | sp[a]) >> b & 1:
            _put_edge(pa, ch, sp, a, b, both)
        elif dup is None:
            dup = (u, v) if a < b else (v, u)
    if dup is not None:
        raise ParseError(f"more than one edge between {dup[0]!r} and {dup[1]!r}")
    return MixedGraph._trusted(n, tuple(labels), pa, ch, sp, None)


def load_graph(path: str | os.PathLike) -> MixedGraph:
    """Read a JSON graph from a file path, or from stdin when path is '-'."""
    # open() would take an int as a file descriptor, and close it after
    if not isinstance(path, (str, os.PathLike)):
        raise InputError(f"expected a file path, got {_shown(path)}")
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path!r} is not UTF-8 text: {exc}") from None
    return parse_graph_json(text)
