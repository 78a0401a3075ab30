"""m-separation queries on mixed graphs.

A path m-connects two nodes given a conditioning set Z when every internal
non-collider avoids Z and every internal collider is an ancestor of some
member of Z.  The production test runs a reachability sweep over
(node, arrived-with-arrowhead) states, which covers walks; walk and path
reachability coincide here, and the suite checks that against the literal
path-enumeration oracle on every mixed graph with up to four nodes.
Smallest separators come from a max-flow on the augmented graph of the
pair's ancestors (see ``find_separator``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from collections.abc import Iterable

from .errors import InputError, _shown
from .graph import MixedGraph, iter_bits, require_graph

__all__ = [
    "SeparationQuery",
    "m_connected",
    "m_separated_sets",
    "find_separator",
    "find_connecting_path",
    "separation_signature",
]


@dataclass(frozen=True)
class SeparationQuery:
    """A set-level separation question: are ``sources`` and ``targets``
    m-separated given ``conditioning``?  The three sets must be disjoint."""

    sources: frozenset[int]
    targets: frozenset[int]
    conditioning: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        for name in ("sources", "targets", "conditioning"):
            nodes = getattr(self, name)
            if isinstance(nodes, Iterable):
                nodes = tuple(nodes)
            if not isinstance(nodes, tuple) or not all(
                isinstance(v, int) and not isinstance(v, bool) for v in nodes
            ):
                raise InputError(f"{name} must be a set of nodes, got {_shown(nodes)}")
            object.__setattr__(self, name, frozenset(nodes))
        if self.sources & self.targets:
            raise InputError("sources and targets overlap")
        if self.conditioning & (self.sources | self.targets):
            raise InputError("conditioning set overlaps sources or targets")


def _given_masks(g: MixedGraph, given: Iterable[int]) -> tuple[int, int]:
    # The conditioning set and its ancestors, as masks.
    if not isinstance(given, Iterable):
        raise InputError(f"conditioning set must be an iterable, got {_shown(given)}")
    zmask = 0
    for z in given:
        g.check_node(z)
        zmask |= 1 << z
    anz = 0
    for z in iter_bits(zmask):
        anz |= g._ancestor_mask(z)
    return zmask, anz


def _query_masks(
    g: MixedGraph, x: int, y: int, given: Iterable[int]
) -> tuple[int, int]:
    require_graph(g)
    g.check_node(x)
    g.check_node(y)
    if x == y:
        raise InputError("query endpoints must differ")
    zmask, anz = _given_masks(g, given)
    if (zmask >> x) & 1 or (zmask >> y) & 1:
        raise InputError("conditioning set may not contain an endpoint")
    return zmask, anz


def _walk_states(
    g: MixedGraph, x: int, zmask: int, anz: int, stop: int = 0
) -> tuple[int, int]:
    # The states m-connecting walks from x reach, as two node masks: nodes
    # the walk's last edge enters with an arrowhead, and with a tail.  The
    # search ends early once it reaches a node of ``stop``.
    head = g._ch[x] | g._sp[x]
    tail = g._pa[x]
    seen_head, seen_tail = head, tail
    while (head | tail) and not (seen_head | seen_tail) & stop:
        new_head = new_tail = 0
        for w in iter_bits(head):
            allowed = 0
            if (anz >> w) & 1:
                allowed |= g._pa[w] | g._sp[w]  # collider at w
            if not (zmask >> w) & 1:
                allowed |= g._ch[w]  # non-collider at w
            new_head |= allowed & (g._ch[w] | g._sp[w])
            new_tail |= allowed & g._pa[w]
        for w in iter_bits(tail):
            if not (zmask >> w) & 1:
                allowed = g._adj[w]
                new_head |= allowed & (g._ch[w] | g._sp[w])
                new_tail |= allowed & g._pa[w]
        head = new_head & ~seen_head
        tail = new_tail & ~seen_tail
        seen_head |= head
        seen_tail |= tail
    return seen_head, seen_tail


def _m_connected_masks(g: MixedGraph, x: int, y: int, zmask: int, anz: int) -> bool:
    head, tail = _walk_states(g, x, zmask, anz, 1 << y)
    return bool(((head | tail) >> y) & 1)


def m_connected(g: MixedGraph, x: int, y: int, given: Iterable[int] = ()) -> bool:
    """True iff some path m-connects ``x`` and ``y`` given ``given``."""
    zmask, anz = _query_masks(g, x, y, given)
    return _m_connected_masks(g, x, y, zmask, anz)


def find_connecting_path(
    g: MixedGraph, x: int, y: int, given: Iterable[int] = ()
) -> tuple[int, ...] | None:
    """First m-connecting simple path in DFS order, or None.

    The order is depth first from x: a prefix's step straight to y comes
    first, then its extensions by each other neighbour of its last node off
    the path, in ascending node id, each searched in full before the next.
    One sweep from y first marks the states (c, mark at c) from which an
    m-connecting walk continues to y, and the search extends a prefix by c
    only when the prefix's last node passes its collider test with c as
    successor and c's state is marked (or c is y).  The rest of any
    m-connecting path through the prefix and c is such a walk, so no skipped
    subtree holds one and the first path found is the first of that order.
    When x and y are m-separated x has no marked neighbour, so this is one
    sweep; when a path exists the search may still backtrack exponentially,
    through nodes whose walks to y all run back through the prefix.
    """
    zmask, anz = _query_masks(g, x, y, given)
    pa, ch, sp = g._pa, g._ch, g._sp
    ybit = 1 << y
    head, tail = _walk_states(g, y, zmask, anz)
    # nodes that continue a walk to y when entered with an arrowhead, and
    # with a tail; y itself ends one either way
    on_head = (head & anz) | (tail & ~zmask) | ybit
    on_tail = (head | tail) & ~zmask | ybit

    def steps(w: int, allowed: int) -> int:
        # the successors among ``allowed`` whose state continues to y
        return (ch[w] | sp[w]) & allowed & on_head | pa[w] & allowed & on_tail

    # frames of (path, nodes on it, successors left to try)
    stack = [((x,), 1 << x, steps(x, g._adj[x]))]
    while stack:
        path, visited, rest = stack[-1]
        if rest & ybit:
            return path + (y,)
        if not rest:
            stack.pop()
            continue
        low = rest & -rest
        stack[-1] = (path, visited, rest ^ low)
        w, c = path[-1], low.bit_length() - 1
        if (ch[w] | sp[w]) & low:  # c is entered with an arrowhead
            allowed = pa[c] | sp[c] if (anz >> c) & 1 else 0  # collider at c
            if not (zmask >> c) & 1:
                allowed |= ch[c]
        else:  # entered with a tail, so c is outside Z (see on_tail)
            allowed = g._adj[c]
        visited |= low
        stack.append((path + (c,), visited, steps(c, allowed) & ~visited))
    return None


def m_separated_sets(g: MixedGraph, query: SeparationQuery) -> bool:
    """True iff every source/target pair is m-separated given the query's
    conditioning set.  Empty sides hold vacuously."""
    require_graph(g)
    if not isinstance(query, SeparationQuery):
        raise InputError(f"expected a SeparationQuery, got {_shown(query)}")
    for v in query.sources | query.targets:
        g.check_node(v)
    zmask, anz = _given_masks(g, query.conditioning)
    for s in query.sources:
        for t in query.targets:
            if _m_connected_masks(g, s, t, zmask, anz):
                return False
    return True


def _augmented_rows(g: MixedGraph, amask: int) -> list[int]:
    # Adjacency rows of the augmented graph on the node set ``amask``: the
    # skeleton of G[amask], plus a clique on C and its parents in amask for
    # every bi-directed component C of G[amask].  Two nodes are joined
    # exactly when an edge or a collider path of G[amask] connects them.
    rows = [0] * g.n
    for v in iter_bits(amask):
        rows[v] = g._adj[v] & amask
    todo = amask
    while todo:
        comp = frontier = todo & -todo
        while frontier:
            reach = 0
            for w in iter_bits(frontier):
                reach |= g._sp[w]
            frontier = reach & amask & ~comp
            comp |= frontier
        todo &= ~comp
        clique = comp
        for w in iter_bits(comp):
            clique |= g._pa[w] & amask
        for w in iter_bits(clique):
            rows[w] |= clique & ~(1 << w)
    return rows


def _first_min_cut(rows: list[int], x: int, y: int, inner: int) -> list[int]:
    # The lexicographically first minimum set of ``inner`` nodes whose
    # removal disconnects x from y in the undirected graph ``rows``, where x
    # and y are not adjacent.  A max-flow runs on the node-split graph: an
    # arc v_in -> v_out of capacity 1 for each inner node (unbounded for x
    # and y), and unbounded arcs u_out -> w_in and w_out -> u_in for each
    # edge {u, w}.  An inner node passes at most one unit, so every arc
    # carries 0 or 1 and bitmasks hold the whole flow.  Residual arcs run
    # from in-states to out-states and back, so a state set is two masks.
    thr = 0  # inner nodes v whose arc v_in -> v_out carries flow
    into = [0] * len(rows)  # into[w]: the u whose arc u_out -> w_in does
    barred = ~(inner | (1 << y))  # in-states no search enters

    def search(seen_in, seen_out, new_in, new_out, stop_out=0, via=None):
        # Close the seen states under residual arcs, breadth-first from the
        # new ones, and return the two masks; None as soon as they hold
        # y_in or an out-state in ``stop_out``.  ``via``, when given, maps
        # each in-state (v, True) and out-state (v, False) reached to the
        # node whose state of the other kind it was reached from.
        while True:
            seen_in |= new_in
            seen_out |= new_out
            if (seen_in >> y) & 1 or seen_out & stop_out:
                return None
            if not (new_in or new_out):
                return seen_in, seen_out
            grow_in = grow_out = 0
            for v in iter_bits(new_in):
                # v_in -> v_out while v passes no flow, and v_in -> u_out
                # against the flow on u_out -> v_in
                step = (into[v] | (1 << v & ~thr)) & ~(seen_out | grow_out)
                grow_out |= step
                if via is not None:
                    for u in iter_bits(step):
                        via[u, False] = v
            for u in iter_bits(new_out):
                # u_out -> w_in along each edge, and u_out -> u_in against
                # the flow through u
                step = (rows[u] | (thr & 1 << u)) & ~(seen_in | grow_in)
                grow_in |= step
                if via is not None:
                    for w in iter_bits(step):
                        via[w, True] = u
            new_in, new_out = grow_in, grow_out

    size = 0
    while True:
        via = {}
        reach = search(barred, 0, 0, 1 << x, via=via)
        if reach is not None:
            break
        # Push one unit along the path, back from y_in to x_out.  An arc
        # either way between v_in and v_out flips bit v of thr, and one
        # between u_out and w_in flips bit u of into[w].
        size += 1
        v, at_in = y, True
        while v != x or at_in:
            u = via[v, at_in]
            w, o = (v, u) if at_in else (u, v)  # nodes of the in-, out-state
            if w == o:
                thr ^= 1 << w
            else:
                into[w] ^= 1 << o
            v, at_in = u, not at_in
    # ``reach`` is now the residual closure of x_out.  By Picard and
    # Queyranne (1980) the minimum cuts are exactly the state sets that
    # hold x_out but not y_in and are closed under residual arcs; a cut's
    # nodes have their in-state inside and their out-state outside.  So the
    # greedy, in ascending order over the nodes that carry flow (no other
    # node is in a minimum cut), keeps v when closing ``reach`` and v_in
    # leaves out v_out and the out-states of the nodes kept.  It then
    # leaves out y_in as well: no flow leaves a closed set that holds both
    # x_out and y_in, and a unit leaves v_in for v_out, so reaching y_in
    # only ends the search early.  A node passed over here is passed over
    # for every larger ``reach``.
    cut = []
    stop = 0  # out-states of the nodes kept
    for v in iter_bits(thr):
        if len(cut) == size:
            break
        grown = search(*reach, 1 << v, 0, stop | 1 << v)
        if grown is not None:
            cut.append(v)
            stop |= 1 << v
            reach = grown
    return cut


def find_separator(g: MixedGraph, x: int, y: int) -> frozenset[int] | None:
    """The lexicographically first smallest set Z with ``x`` and ``y``
    m-separated given Z, or None when no set separates them.

    Among sets of the smallest size, the one returned comes first when each
    is written as an ascending tuple, as ``itertools.combinations`` would
    list them.  Requires a non-adjacent pair.

    With A the ancestors of x and y, a set Z inside A m-separates x and y
    exactly when it separates them in the augmented graph on A: the
    skeleton of G[A] plus a clique on each bi-directed component of G[A]
    together with its parents in A.  Z ∩ A separates whenever Z does, so
    every smallest separator lies in A and is a minimum vertex cut there;
    when x and y are adjacent in the augmented graph no set separates
    them.  One max-flow finds the cut size k, and its residual graph holds
    every minimum cut (Picard and Queyranne, 1980).  The flow runs on the
    graph with each node split into an in-state and an out-state.  A
    greedy pass over the nodes that carry flow, in ascending order, keeps
    a node v when the residual closure of x's out-state and the in-states
    of v and the kept nodes reaches neither y's in-state nor the out-state
    of v or of a kept node.  That is at most k + |A| breadth-first
    searches of the augmented graph, so O(|A|^3) time.
    """
    require_graph(g)
    g.check_node(x)
    g.check_node(y)
    if x == y:
        raise InputError("separator endpoints must differ")
    if g.has_edge(x, y):
        raise InputError("adjacent nodes cannot be separated")
    amask = g._ancestor_mask(x) | g._ancestor_mask(y)
    rows = _augmented_rows(g, amask)
    if (rows[x] >> y) & 1:
        return None
    return frozenset(_first_min_cut(rows, x, y, amask & ~((1 << x) | (1 << y))))


def separation_signature(g: MixedGraph) -> int:
    """All m-connection verdicts packed into one integer, one bit per query
    ``(x, y, Z)`` with ``x < y`` and Z ranging over subsets of the remaining
    nodes in a fixed order.  Two graphs on the same node set are Markov
    equivalent iff their signatures match."""
    require_graph(g)
    if g._sig is not None:
        return g._sig
    sig = 0
    pos = 0
    full = (1 << g.n) - 1
    for x in range(g.n):
        for y in range(x + 1, g.n):
            rest = full & ~((1 << x) | (1 << y))
            zmask = 0
            while True:
                anz = 0
                for z in iter_bits(zmask):
                    anz |= g._ancestor_mask(z)
                if _m_connected_masks(g, x, y, zmask, anz):
                    sig |= 1 << pos
                pos += 1
                if zmask == rest:
                    break
                # next subset of `rest` in counting order
                zmask = (zmask - rest) & rest
    g._sig = sig
    return sig


def _signature_query(n: int, pos: int) -> tuple[int, int, frozenset[int]]:
    # The query (x, y, Z) behind bit ``pos`` of an n-node signature: each
    # pair x < y owns 2^(n-2) bits, and bit i of the offset inside that
    # block puts the i-th lowest node other than x and y into Z.
    k = pos & ((1 << (n - 2)) - 1)
    pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
    x, y = pairs[pos >> (n - 2)]
    rest = [v for v in range(n) if v not in (x, y)]
    return x, y, frozenset(v for i, v in enumerate(rest) if (k >> i) & 1)
