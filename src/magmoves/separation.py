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

from .errors import InputError
from .graph import MixedGraph, iter_bits, require_graph, simple_paths_between

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
        object.__setattr__(self, "sources", frozenset(self.sources))
        object.__setattr__(self, "targets", frozenset(self.targets))
        object.__setattr__(self, "conditioning", frozenset(self.conditioning))
        if self.sources & self.targets:
            raise InputError("sources and targets overlap")
        if self.conditioning & (self.sources | self.targets):
            raise InputError("conditioning set overlaps sources or targets")


def _query_masks(
    g: MixedGraph, x: int, y: int, given: Iterable[int]
) -> tuple[int, int]:
    require_graph(g)
    if not isinstance(given, Iterable):
        raise InputError(f"conditioning set must be an iterable, got {given!r}")
    g.check_node(x)
    g.check_node(y)
    if x == y:
        raise InputError("query endpoints must differ")
    zmask = 0
    for z in given:
        g.check_node(z)
        zmask |= 1 << z
    if (zmask >> x) & 1 or (zmask >> y) & 1:
        raise InputError("conditioning set may not contain an endpoint")
    anz = 0
    for z in iter_bits(zmask):
        anz |= g.ancestor_mask(z)
    return zmask, anz


def _m_connected_masks(g: MixedGraph, x: int, y: int, zmask: int, anz: int) -> bool:
    ybit = 1 << y
    # Frontier split by how the last edge arrived: with an arrowhead or a tail.
    head = (g._ch[x] | g._sp[x])
    tail = g._pa[x]
    if (head | tail) & ybit:
        return True
    seen_head, seen_tail = head, tail
    while head or tail:
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
        if (new_head | new_tail) & ybit:
            return True
        head = new_head & ~seen_head
        tail = new_tail & ~seen_tail
        seen_head |= head
        seen_tail |= tail
    return False


def m_connected(g: MixedGraph, x: int, y: int, given: Iterable[int] = ()) -> bool:
    """True iff some path m-connects ``x`` and ``y`` given ``given``."""
    zmask, anz = _query_masks(g, x, y, given)
    return _m_connected_masks(g, x, y, zmask, anz)


def _path_m_connects(
    g: MixedGraph, path: tuple[int, ...], zmask: int, anz: int
) -> bool:
    for i in range(1, len(path) - 1):
        w = path[i]
        collider = g.arrowhead_toward(path[i - 1], w) and g.arrowhead_toward(
            path[i + 1], w
        )
        if collider:
            if not (anz >> w) & 1:
                return False
        elif (zmask >> w) & 1:
            return False
    return True


def find_connecting_path(
    g: MixedGraph, x: int, y: int, given: Iterable[int] = ()
) -> tuple[int, ...] | None:
    """First m-connecting simple path in DFS order, or None."""
    zmask, anz = _query_masks(g, x, y, given)
    for path in simple_paths_between(g, x, y):
        if _path_m_connects(g, path, zmask, anz):
            return path
    return None


def m_separated_sets(g: MixedGraph, query: SeparationQuery) -> bool:
    """True iff every source/target pair is m-separated given the query's
    conditioning set.  Empty sides hold vacuously."""
    require_graph(g)
    if not isinstance(query, SeparationQuery):
        raise InputError(f"expected a SeparationQuery, got {query!r}")
    for s in query.sources:
        g.check_node(s)
    for t in query.targets:
        g.check_node(t)
    zmask = 0
    for z in query.conditioning:
        g.check_node(z)
        zmask |= 1 << z
    anz = 0
    for z in iter_bits(zmask):
        anz |= g.ancestor_mask(z)
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
    # carries 0 or 1 and bitmasks hold the whole flow.
    thr = 0  # inner nodes v whose arc v_in -> v_out carries flow
    into = [0] * len(rows)  # into[w]: the u whose arc u_out -> w_in does
    out = [0] * len(rows)  # out[u]: the w whose arc u_out -> w_in does

    def set_arc(u: int, w: int, on: bool) -> None:
        if on:
            into[w] |= 1 << u
            out[u] |= 1 << w
        else:
            into[w] &= ~(1 << u)
            out[u] &= ~(1 << w)

    def augment(alive: int) -> bool:
        # Push one unit along a breadth-first augmenting path from x_out to
        # y_in through the nodes in ``alive``; False when there is none.
        nonlocal thr
        via_in = {}  # w -> (u, True): reached w_in along u_out -> w_in
        via_out = {x: None}  # u -> (w, True): along w_in -> u_out, undoing flow
        seen_in, seen_out = ~(alive | (1 << y)), 1 << x
        queue = deque([(x, False)])
        while y not in via_in:
            if not queue:
                return False
            v, at_in = queue.popleft()
            if at_in:
                if not (seen_out >> v) & 1 and not (thr >> v) & 1:
                    seen_out |= 1 << v
                    via_out[v] = (v, False)  # along v_in -> v_out
                    queue.append((v, False))
                for u in iter_bits(into[v] & ~seen_out):
                    seen_out |= 1 << u
                    via_out[u] = (v, True)
                    queue.append((u, False))
            else:
                for w in iter_bits(rows[v] & ~seen_in):
                    seen_in |= 1 << w
                    via_in[w] = (v, True)
                    queue.append((w, True))
                if (thr >> v) & 1 and not (seen_in >> v) & 1:
                    seen_in |= 1 << v
                    via_in[v] = (v, False)  # back along v_in -> v_out
                    queue.append((v, True))
        v, at_in = y, True
        while True:
            if at_in:
                u, step = via_in[v]
                if step:
                    set_arc(u, v, True)
                else:
                    thr &= ~(1 << v)
                v = u
            else:
                prev = via_out[v]
                if prev is None:
                    return True
                w, step = prev
                if step:
                    set_arc(v, w, False)
                else:
                    thr |= 1 << v
                v = w
            at_in = not at_in

    def cancel(v: int) -> bool:
        # Withdraw the unit through v: back along the flow to x, then on to
        # y.  An augmenting path that runs backward over two flow nodes in
        # a row takes the edge between them forward, which can leave a unit
        # running round a cycle; that unit is removed instead, and False
        # says the x-y flow has not changed.
        nonlocal thr
        thr &= ~(1 << v)
        w = v
        while True:
            u = into[w].bit_length() - 1
            set_arc(u, w, False)
            if u == v:
                return False
            if u == x:
                break
            thr &= ~(1 << u)
            w = u
        u = v
        while True:
            w = out[u].bit_length() - 1
            set_arc(u, w, False)
            if w == y:
                return True
            thr &= ~(1 << w)
            u = w

    alive = inner
    size = 0
    while augment(alive):
        size += 1
    # Greedy in ascending order: keep v when some minimum cut of what is
    # left contains it, that is, when the flow cannot route round it.  A
    # node that carries no x-y flow (none, or only a cycle) lies in no
    # minimum cut, and a node passed over here lies in no later one either.
    cut = []
    for v in iter_bits(inner):
        if len(cut) == size:
            break
        if (thr >> v) & 1 and cancel(v) and not augment(alive & ~(1 << v)):
            cut.append(v)
            alive &= ~(1 << v)
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
    them.  One max-flow finds the cut size k, and a greedy pass over A in
    ascending order keeps each node that some k-cut completing the chosen
    nodes contains.  That is at most k + |A| breadth-first searches of the
    augmented graph, so O(|A|^3) time.
    """
    require_graph(g)
    g.check_node(x)
    g.check_node(y)
    if x == y:
        raise InputError("separator endpoints must differ")
    if g.has_edge(x, y):
        raise InputError("adjacent nodes cannot be separated")
    amask = g.ancestor_mask(x) | g.ancestor_mask(y)
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
                    anz |= g.ancestor_mask(z)
                if _m_connected_masks(g, x, y, zmask, anz):
                    sig |= 1 << pos
                pos += 1
                if zmask == rest:
                    break
                # next subset of `rest` in counting order
                zmask = (zmask - rest) & rest
    g._sig = sig
    return sig
