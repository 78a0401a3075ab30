"""Seeded MAG families and the single-graph query stream built on them.

Everything here is a pure function of the seed: the same seed gives the
same graphs, the same queries and byte-identical JSON.  Graphs are built
with the library's own graph type, then handed to the benchmark as JSON
text, the way a command-line user hands them over.

Families:

* ``random_mag``: a random DAG over a shuffled node order, some of whose
  edges become bi-directed where no ancestry links the endpoints, then
  made maximal by adding an edge for every pair an inducing path joins
  (Richardson & Spirtes 2002, Thm 5.1).  The result is a MAG by
  construction.
* ``mediator_mag``: ``x`` and ``y`` joined by ``k`` disjoint two-node
  chains with no collider on them, so every separator needs one node per
  chain and the smallest has exactly ``k`` nodes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from magmoves import graph as G
from magmoves import transform as T

# Mid tier: every query kind runs here.
MID_SIZES = (10, 11, 12)
MID_DEGREE = 4
MID_RANDOM_GRAPHS = 40
# The brute-force check of an equiv verdict costs 2.5x the query itself
# and triples per added node, so equiv runs on the smaller mid graphs.
EQUIV_MAX_N = 11
MEDIATOR_KS = (6, 7, 8)
MEDIATORS_PER_K = 4
# Large tier: only the kinds that stay polynomial today.
LARGE_N = 60
LARGE_DEGREE = 3
LARGE_GRAPHS = 16
BI_FRAC = 0.3
CLASS_CAP = 30
SEPARATE_PER_GRAPH = 13
SEPARATOR_PER_GRAPH = 2


@dataclass(frozen=True)
class Query:
    """One single-graph request, as JSON text plus node labels."""

    kind: str  # validate | separate | separator | equiv | moves | class
    tier: str  # mid | large
    graph: str
    x: str = ""
    y: str = ""
    given: tuple[str, ...] = ()
    partner: str = ""
    licensed: bool = False  # equiv: partner reached by one licensed move
    mag: bool = True  # validate: the graph is a MAG
    k: int = 0  # separator on a mediator graph: smallest separator size


def to_json(g: G.MixedGraph) -> str:
    """Compact graph JSON in the format ``magmoves`` reads."""
    lab = g.labels
    return json.dumps(
        {
            "nodes": list(lab),
            "edges": [
                {"u": lab[e.u], "v": lab[e.v], "type": e.kind.value} for e in g.edges
            ],
        },
        separators=(",", ":"),
    )


def _anc(g: G.MixedGraph, a: int, b: int) -> bool:
    """Is ``a`` an ancestor of ``b``?"""
    return (g.ancestor_mask(b) >> a) & 1 == 1


def random_mag(rng: random.Random, n: int, n_edges: int) -> G.MixedGraph:
    order = list(range(n))
    rng.shuffle(order)
    pairs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    chosen = rng.sample(pairs, n_edges)
    bi = [p for p in chosen if rng.random() < BI_FRAC]
    edges = [G.directed(a, b) for a, b in chosen if (a, b) not in bi]
    dag = G.MixedGraph(n, edges)
    # Ancestry comes from directed edges alone, so checking it on the DAG
    # keeps every added bi-directed edge ancestral.
    for a, b in bi:
        edges.append(G.directed(a, b) if _anc(dag, a, b) else G.bidirected(a, b))
    g = G.MixedGraph(n, edges)
    while (gap := G.maximality_witness(g)) is not None:
        x, y, _ = gap
        if _anc(g, x, y):
            e = G.directed(x, y)
        elif _anc(g, y, x):
            e = G.directed(y, x)
        else:
            e = G.bidirected(x, y)
        g = g.with_edge(e)
    return g


def mediator_mag(rng: random.Random, k: int) -> tuple[G.MixedGraph, int, int]:
    """``x`` and ``y`` joined by ``k`` chains ``x - a - b - y``.

    Each chain is ``x -> a -> b -> y``, ``x <- a -> b -> y`` or
    ``x <- a <- b -> y``: never a collider at ``a`` or ``b``, and no
    directed path from ``y`` to ``x``.  A DAG is always maximal.
    """
    n = 2 + 2 * k
    ids = list(range(n))
    rng.shuffle(ids)
    x, y = ids[0], ids[1]
    edges = []
    for i in range(k):
        a, b = ids[2 + 2 * i], ids[3 + 2 * i]
        shape = rng.randrange(3)
        edges.append(G.directed(x, a) if shape == 0 else G.directed(a, x))
        edges.append(G.directed(b, a) if shape == 2 else G.directed(a, b))
        edges.append(G.directed(b, y))
    return G.MixedGraph(n, edges), x, y


def _mark_changes(g: G.MixedGraph) -> list[G.Edge]:
    """Every single-edge mark change as its replacement edge: reverse or
    flip a directed edge, orient a bi-directed edge either way."""
    out = []
    for e in g.edges:
        if e.kind is G.EdgeKind.DIRECTED:
            out += [G.directed(e.v, e.u), G.bidirected(e.u, e.v)]
        else:
            out += [G.directed(e.u, e.v), G.directed(e.v, e.u)]
    return out


def licensed_partner(rng: random.Random, m: G.Mag) -> G.MixedGraph | None:
    moves = T.legal_moves(m)
    if not moves:
        return None
    return T.apply_move(m, rng.choice(moves)).graph


def unlicensed_partner(rng: random.Random, m: G.Mag) -> G.MixedGraph | None:
    """A MAG one mark change away that no licensed move reaches."""
    licensed = {T.apply_move(m, mv).graph for mv in T.legal_moves(m)}
    changes = _mark_changes(m.graph)
    rng.shuffle(changes)
    for new in changes:
        h = m.graph.with_edge(new)
        if h not in licensed and G.is_mag(h):
            return h
    return None


def broken_copy(rng: random.Random, g: G.MixedGraph) -> G.MixedGraph | None:
    """A graph one mark change away that is not a MAG.

    Non-ancestral changes are tried first: they are cheap to find, where a
    full MAG check of every change of a large graph is not.
    """
    changes = _mark_changes(g)
    rng.shuffle(changes)
    for test in (G.is_ancestral, G.is_mag):
        for new in changes:
            h = g.with_edge(new)
            if not test(h):
                return h
    return None


def _random_given(rng, n, x, y, size):
    others = [v for v in range(n) if v not in (x, y)]
    return rng.sample(others, min(size, len(others)))


def _labels(g, nodes):
    return tuple(g.labels[v] for v in nodes)


def _separate_queries(rng, g, text, count):
    out = []
    for _ in range(count):
        x, y = rng.sample(range(g.n), 2)
        z = _random_given(rng, g.n, x, y, rng.randrange(4))
        out.append(Query("separate", "mid", text, g.labels[x], g.labels[y], _labels(g, z)))
    return out


def _nonadjacent_pair(rng, g):
    pairs = [
        (a, b) for a in range(g.n) for b in range(a + 1, g.n) if not g.has_edge(a, b)
    ]
    return rng.choice(pairs) if pairs else None


def _mid_random_queries(rng, g, licensed):
    text = to_json(g)
    lab = g.labels
    out = [
        Query("validate", "mid", text),
        Query("moves", "mid", text),
        Query("class", "mid", text),
    ]
    broken = broken_copy(rng, g)
    if broken is not None:
        out.append(Query("validate", "mid", to_json(broken), mag=False))
    out += _separate_queries(rng, g, text, SEPARATE_PER_GRAPH)
    for _ in range(SEPARATOR_PER_GRAPH):
        pair = _nonadjacent_pair(rng, g)
        if pair is not None:
            out.append(Query("separator", "mid", text, lab[pair[0]], lab[pair[1]]))
    if g.n <= EQUIV_MAX_N:
        find = licensed_partner if licensed else unlicensed_partner
        h = find(rng, G.Mag(g))
        if h is not None:
            out.append(Query("equiv", "mid", text, partner=to_json(h), licensed=licensed))
    return out


def _mediator_queries(rng, g, x, y, k):
    text = to_json(g)
    lab = g.labels
    out = [
        Query("separator", "mid", text, lab[x], lab[y], k=k),
        Query("validate", "mid", text),
        Query("moves", "mid", text),
        Query("class", "mid", text),
    ]
    # Conditioning on some mediators leaves the other chains open.
    z = rng.sample([v for v in range(g.n) if v not in (x, y)], k // 2)
    out.append(Query("separate", "mid", text, lab[x], lab[y], _labels(g, z)))
    out += _separate_queries(rng, g, text, SEPARATE_PER_GRAPH - 1)
    return out


def _large_queries(rng, g):
    text = to_json(g)
    out = [
        Query("validate", "large", text),
        Query("moves", "large", text),
        Query("class", "large", text),
    ]
    broken = broken_copy(rng, g)
    if broken is not None:
        out.append(Query("validate", "large", to_json(broken), mag=False))
    return out


def query_stream(seed: int) -> list[Query]:
    """The seed's query stream, shuffled so kinds and tiers interleave."""
    rng = random.Random(seed)
    out: list[Query] = []
    for i in range(MID_RANDOM_GRAPHS):
        n = MID_SIZES[i % len(MID_SIZES)]
        g = random_mag(rng, n, n * MID_DEGREE // 2)
        out += _mid_random_queries(rng, g, licensed=i % 2 == 0)
    for k in MEDIATOR_KS:
        for _ in range(MEDIATORS_PER_K):
            g, x, y = mediator_mag(rng, k)
            out += _mediator_queries(rng, g, x, y, k)
    for _ in range(LARGE_GRAPHS):
        out += _large_queries(rng, random_mag(rng, LARGE_N, LARGE_N * LARGE_DEGREE // 2))
    rng.shuffle(out)
    return out
