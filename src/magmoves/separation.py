"""m-separation queries on mixed graphs.

A path m-connects two nodes given a conditioning set Z when every internal
non-collider avoids Z and every internal collider is an ancestor of some
member of Z.  The production test runs a reachability sweep over
(node, arrived-with-arrowhead) states, which covers walks; walk and path
reachability coincide here, and the suite checks that against the literal
path-enumeration oracle on every mixed graph with up to four nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from collections.abc import Iterable

from .errors import InputError
from .graph import MixedGraph, iter_bits, simple_paths_between

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


def find_separator(g: MixedGraph, x: int, y: int) -> frozenset[int] | None:
    """Smallest-first search for a set Z with ``x`` and ``y`` m-separated
    given Z.  Requires a non-adjacent pair; returns None when every candidate
    fails."""
    g.check_node(x)
    g.check_node(y)
    if x == y:
        raise InputError("separator endpoints must differ")
    if g.has_edge(x, y):
        raise InputError("adjacent nodes cannot be separated")
    others = [v for v in range(g.n) if v != x and v != y]
    for size in range(len(others) + 1):
        for combo in combinations(others, size):
            if not m_connected(g, x, y, combo):
                return frozenset(combo)
    return None


def separation_signature(g: MixedGraph) -> int:
    """All m-connection verdicts packed into one integer, one bit per query
    ``(x, y, Z)`` with ``x < y`` and Z ranging over subsets of the remaining
    nodes in a fixed order.  Two graphs on the same node set are Markov
    equivalent iff their signatures match."""
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
