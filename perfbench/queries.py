"""Run one single-graph query the way the matching CLI subcommand does,
minus printing, and check its answer afterwards.

Library functions are looked up on their modules at call time, so the
tracer's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import hashlib

from magmoves import equivalence, graph, io, separation, transform
from magmoves.errors import NotAMagError

from gen import CLASS_CAP, Query


def _validate(q: Query):
    g = io.parse_graph_json(q.graph)
    try:
        graph.Mag(g)
    except NotAMagError as exc:
        return False, str(exc)
    return True, ""


def _ends(g, q: Query):
    return g.node_id(q.x), g.node_id(q.y)


def _separate(q: Query):
    g = io.parse_graph_json(q.graph)
    x, y = _ends(g, q)
    given = [g.node_id(v) for v in q.given]
    connected = separation.m_connected(g, x, y, given)
    path = separation.find_connecting_path(g, x, y, given) if connected else None
    return connected, path


def _separator(q: Query):
    g = io.parse_graph_json(q.graph)
    x, y = _ends(g, q)
    return separation.find_separator(g, x, y)


def _equiv(q: Query):
    m1 = graph.Mag(io.parse_graph_json(q.graph))
    m2 = graph.Mag(io.parse_graph_json(q.partner))
    return equivalence.markov_equivalent(m1, m2)


def _moves(q: Query):
    m = graph.Mag(io.parse_graph_json(q.graph))
    return [(mv.kind.value, mv.x, mv.y) for mv in transform.legal_moves(m)]


def _class(q: Query):
    m = graph.Mag(io.parse_graph_json(q.graph))
    return transform.equivalence_class_closure(m, max_size=CLASS_CAP)


RUNNERS = {
    "validate": _validate,
    "separate": _separate,
    "separator": _separator,
    "equiv": _equiv,
    "moves": _moves,
    "class": _class,
}


def run(q: Query):
    return RUNNERS[q.kind](q)


def answer_digest(q: Query, result) -> str:
    """Short digest of an answer, stable across runs and processes."""
    if q.kind == "class":
        result = (sorted(result.keys), result.truncated)
    elif q.kind == "separator":
        result = sorted(result) if result is not None else None
    return hashlib.sha256(repr(result).encode()).hexdigest()[:16]


def _path_m_connects(g, path, zmask):
    anz = 0
    for z in range(g.n):
        if (zmask >> z) & 1:
            anz |= g.ancestor_mask(z)
    for a, w, b in zip(path, path[1:], path[2:]):
        collider = g.arrowhead_toward(a, w) and g.arrowhead_toward(b, w)
        if collider and not (anz >> w) & 1:
            return False
        if not collider and (zmask >> w) & 1:
            return False
    return True


def check(q: Query, result, parsed: dict) -> list[str]:
    """Problems with ``result`` as an answer to ``q``; empty when correct.

    The checks hold for any seed: verdicts are compared with independent
    code paths, and witnesses are checked against their definitions.
    ``parsed`` maps JSON text to its graph, so each distinct graph pays for
    its separation signature once.
    """

    def load(text):
        if text not in parsed:
            parsed[text] = io.parse_graph_json(text)
        return parsed[text]

    g = load(q.graph)
    bad = []
    if q.kind == "validate":
        ok, _ = result
        if ok != q.mag or ok != graph.is_mag(g):
            bad.append(f"Mag() says {ok}, generator says {q.mag}")
    elif q.kind == "separate":
        connected, path = result
        x, y = _ends(g, q)
        zmask = sum(1 << g.node_id(v) for v in q.given)
        if connected:
            if path is None or path[0] != x or path[-1] != y:
                bad.append(f"path {path} does not run from {x} to {y}")
            elif len(set(path)) != len(path) or not all(
                g.has_edge(a, b) for a, b in zip(path, path[1:])
            ):
                bad.append(f"{path} is not a path of the graph")
            elif not _path_m_connects(g, path, zmask):
                bad.append(f"{path} does not m-connect given {q.given}")
    elif q.kind == "separator":
        x, y = _ends(g, q)
        if result is None:
            bad.append("no separator for a non-adjacent pair of a MAG")
        elif separation.m_connected(g, x, y, sorted(result)):
            bad.append(f"{sorted(result)} does not m-separate")
        elif q.k and len(result) != q.k:
            bad.append(f"separator of size {len(result)}, expected {q.k}")
    elif q.kind == "equiv":
        m1, m2 = graph.Mag(g), graph.Mag(load(q.partner))
        if result != equivalence.markov_equivalent_bruteforce(m1, m2):
            bad.append(f"graphical verdict {result} disagrees with the oracle")
        if q.licensed and not result:
            bad.append("a licensed move left the class")
    elif q.kind == "moves" and q.tier == "mid":
        m = graph.Mag(g)
        for kind, x, y in result:
            move = transform.MoveDescriptor(transform.MoveKind(kind), x, y)
            h = transform.apply_move(m, move).graph
            if h.skeleton() != g.skeleton():
                bad.append(f"move {kind} {x} {y} changed the skeleton")
    elif q.kind == "class":
        if g.canonical_key() not in result.keys or len(result.keys) > CLASS_CAP:
            bad.append("closure misses its seed or exceeds the cap")
        for key, member in result.graphs.items():
            h = member.graph
            if h.skeleton() != g.skeleton() or not graph.is_mag(h):
                bad.append(f"closure member {key} is not a MAG on the skeleton")
    return bad
