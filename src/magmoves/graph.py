"""Mixed graphs with directed and bi-directed edges.

A graph holds at most one edge per node pair and no self-loops.  Nodes are
integer ids ``0..n-1`` with optional string labels.  On top of the raw
representation this module provides the ancestral / maximal / MAG validity
checks and the inducing-path test they rest on.

A graph is stored only as per-node integer bitmask rows of parents,
children and spouses; the edge list, canonical key and pair code are read
off them.  This keeps the desk-scale sweeps used elsewhere in the package
cheap without any compiled code.
"""

from __future__ import annotations

import enum
import sys
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .errors import InputError, NotAMagError, PreconditionError, _shown

__all__ = [
    "EdgeKind",
    "Edge",
    "directed",
    "bidirected",
    "MixedGraph",
    "Mag",
    "ancestors",
    "is_ancestral",
    "is_maximal",
    "is_mag",
    "inducing_path_exists",
    "canonical_key",
    "simple_paths_between",
    "iter_bits",
    "inducing_path_witness",
    "maximality_witness",
    "mag_violation",
    "format_path",
]

# The mark of an adjacent pair (i, j), i < j, as MixedGraph._marks reads it
# off the rows; these equal the pair states of enumeration codes (see
# magmoves._kernels).
_FWD = 1  # i -> j
_REV = 2  # j -> i
_BI = 3  # i <-> j


class EdgeKind(enum.Enum):
    DIRECTED = "directed"
    BIDIRECTED = "bidirected"


@dataclass(frozen=True)
class Edge:
    """A single edge.  Directed edges run tail ``u`` to head ``v``;
    bi-directed edges are normalized so ``u < v``."""

    kind: EdgeKind
    u: int
    v: int

    def __post_init__(self) -> None:
        if not isinstance(self.kind, EdgeKind):
            raise InputError(f"edge kind must be an EdgeKind, got {_shown(self.kind)}")
        if type(self.u) is not int or type(self.v) is not int:
            raise InputError(
                f"edge ({_shown(self.u)}, {_shown(self.v)}) has a non-integer endpoint"
            )
        if self.u == self.v:
            raise InputError(f"self-loop at node {_shown(self.u)}")
        if self.kind is EdgeKind.BIDIRECTED and self.u > self.v:
            lo, hi = self.v, self.u
            object.__setattr__(self, "u", lo)
            object.__setattr__(self, "v", hi)

    @property
    def pair(self) -> tuple[int, int]:
        return (self.u, self.v) if self.u < self.v else (self.v, self.u)

    def token(self) -> str:
        """Canonical token over node ids, ``u>v`` or ``u<>v``."""
        return _token(str(self.u), str(self.v), self.kind is EdgeKind.BIDIRECTED)


def _token(u: str, v: str, bi: bool) -> str:
    # The one place the edge-token format is written down.
    return f"{u}<>{v}" if bi else f"{u}>{v}"


def _pair_shift(n: int, i: int, j: int) -> int:
    # Bit offset of pair (i, j), i < j, in a base-4 pair code on n nodes:
    # twice its position in magmoves._kernels.pair_list(n).
    return i * (2 * n - i - 1) + 2 * (j - i - 1)


def _put_edge(
    pa: list[int], ch: list[int], sp: list[int], u: int, v: int, bi: bool
) -> None:
    # Record ``u -> v``, or ``u <-> v`` when ``bi``, in the pa/ch/sp rows;
    # the rows must hold no edge on the pair.
    if bi:
        sp[u] |= 1 << v
        sp[v] |= 1 << u
    else:
        ch[u] |= 1 << v
        pa[v] |= 1 << u


def directed(u: int, v: int) -> Edge:
    """Edge with tail at ``u`` and arrowhead at ``v``."""
    return Edge(EdgeKind.DIRECTED, u, v)


def bidirected(u: int, v: int) -> Edge:
    """Edge with arrowheads at both ``u`` and ``v``."""
    return Edge(EdgeKind.BIDIRECTED, u, v)


def _pair_edge(i: int, j: int, mark: int) -> Edge:
    # The edge that pair mark ``mark`` stands for on the pair (i, j), i < j.
    if mark == _BI:
        return bidirected(i, j)
    return directed(i, j) if mark == _FWD else directed(j, i)


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_labels(n: int, labels: Iterable[str] | None) -> tuple[str, ...]:
    """The node labels as a tuple, ``V0..V{n-1}`` by default; raises unless
    there are ``n`` distinct strings."""
    if labels is None:
        return tuple(f"V{i}" for i in range(n))
    if not isinstance(labels, Iterable) or isinstance(labels, (str, bytes)):
        raise InputError(f"labels must be an iterable of strings, got {_shown(labels)}")
    labels = tuple(labels)
    if not all(isinstance(lbl, str) for lbl in labels):
        raise InputError(f"node labels must be strings, got {_shown(labels)}")
    if len(labels) != n:
        raise InputError(f"expected {n} labels, got {len(labels)}")
    if len(set(labels)) != n:
        raise InputError("node labels must be distinct")
    return labels


class MixedGraph:
    """Immutable mixed graph over nodes ``0..n-1``.

    Equality and hashing compare node count and edges only; labels are
    presentation metadata.
    """

    __slots__ = (
        "n",
        "labels",
        "_pa",
        "_ch",
        "_sp",
        "_adj",
        "_an",
        "_key",
        "_sig",
        "_uc",
    )

    def __init__(
        self,
        n: int,
        edges: Iterable[Edge] = (),
        labels: Iterable[str] | None = None,
    ) -> None:
        if not isinstance(n, int) or isinstance(n, bool):
            raise InputError(f"node count must be an integer, got {_shown(n)}")
        if n < 0:
            raise InputError(f"node count must be non-negative, got {_shown(n)}")
        if n > sys.maxsize:
            raise InputError(
                f"node count must be at most {sys.maxsize}, got {_shown(n)}"
            )
        pa, ch, sp = [0] * n, [0] * n, [0] * n
        if not isinstance(edges, Iterable):
            raise InputError(f"edges must be an iterable, got {_shown(edges)}")
        for e in edges:
            if not isinstance(e, Edge):
                raise InputError(f"expected an Edge, got {_shown(e)}")
            u, v = e.u, e.v
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(
                    f"edge ({_shown(u)}, {_shown(v)}) references an unknown node"
                )
            if (pa[u] | ch[u] | sp[u]) >> v & 1:
                i, j = e.pair
                raise InputError(f"more than one edge between nodes {i} and {j}")
            _put_edge(pa, ch, sp, u, v, e.kind is EdgeKind.BIDIRECTED)
        self._adopt(n, _check_labels(n, labels), pa, ch, sp, None)

    @classmethod
    def _trusted(
        cls,
        n: int,
        labels: tuple[str, ...],
        pa: list[int],
        ch: list[int],
        sp: list[int],
        key: str | None,
    ) -> "MixedGraph":
        # For callers that built the rows themselves, unchecked: ``pa`` and
        # ``ch`` mirror each other, ``sp`` is symmetric, no pair is in two
        # rows, and ``key`` (when given) is the graph's canonical key.
        g = object.__new__(cls)
        g._adopt(n, labels, pa, ch, sp, key)
        return g

    def _adopt(self, n, labels, pa, ch, sp, key) -> None:
        self.n = n
        self.labels = labels
        self._pa = pa
        self._ch = ch
        self._sp = sp
        self._adj = [a | c | s for a, c, s in zip(pa, ch, sp)]
        self._an: list[int | None] = [None] * n
        self._key = key
        self._sig: int | None = None
        self._uc: frozenset[tuple[int, int, int]] | None = None

    # -- basic queries ----------------------------------------------------

    def _marks(self) -> Iterator[tuple[int, int, int]]:
        # (i, j, mark) for every adjacent pair i < j, in ascending order.
        ch, sp = self._ch, self._sp
        for i, row in enumerate(self._adj):
            row &= ~((2 << i) - 1)
            while row:
                low = row & -row
                row ^= low
                if sp[i] & low:
                    yield i, low.bit_length() - 1, _BI
                else:
                    yield i, low.bit_length() - 1, _FWD if ch[i] & low else _REV

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(_pair_edge(i, j, mark) for i, j, mark in self._marks())

    def check_node(self, x: int) -> None:
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < self.n:
            raise InputError(f"unknown node {_shown(x)}")

    def node_id(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise InputError(f"unknown node label {_shown(label)}") from None

    def has_edge(self, u: int, v: int) -> bool:
        self.check_node(u)
        self.check_node(v)
        return (self._adj[u] >> v) & 1 == 1

    def edge_between(self, u: int, v: int) -> Edge | None:
        self.check_node(u)
        self.check_node(v)
        if (self._sp[u] >> v) & 1:
            return bidirected(u, v)
        if (self._ch[u] >> v) & 1:
            return directed(u, v)
        if (self._pa[u] >> v) & 1:
            return directed(v, u)
        return None

    def is_parent(self, u: int, v: int) -> bool:
        """True iff the edge ``u -> v`` is present."""
        self.check_node(u)
        self.check_node(v)
        return (self._ch[u] >> v) & 1 == 1

    def is_spouse(self, u: int, v: int) -> bool:
        """True iff the edge ``u <-> v`` is present."""
        self.check_node(u)
        self.check_node(v)
        return (self._sp[u] >> v) & 1 == 1

    def arrowhead_toward(self, u: int, v: int) -> bool:
        """True iff the edge between ``u`` and ``v`` exists and carries an
        arrowhead at ``v``."""
        self.check_node(u)
        self.check_node(v)
        return ((self._ch[u] | self._sp[u]) >> v) & 1 == 1

    def parents(self, x: int) -> frozenset[int]:
        self.check_node(x)
        return frozenset(iter_bits(self._pa[x]))

    def children(self, x: int) -> frozenset[int]:
        self.check_node(x)
        return frozenset(iter_bits(self._ch[x]))

    def spouses(self, x: int) -> frozenset[int]:
        self.check_node(x)
        return frozenset(iter_bits(self._sp[x]))

    def neighbors(self, x: int) -> frozenset[int]:
        self.check_node(x)
        return frozenset(iter_bits(self._adj[x]))

    def ancestor_mask(self, x: int) -> int:
        """Bitmask of ancestors of ``x`` (every node with a directed path to
        ``x``, including ``x`` itself)."""
        self.check_node(x)
        return self._ancestor_mask(x)

    def _ancestor_mask(self, x: int) -> int:
        # ancestor_mask for a node the caller knows is in range.
        return _ancestors(self._pa, self._an, x)

    # -- structure helpers -------------------------------------------------

    def skeleton(self) -> frozenset[tuple[int, int]]:
        """Adjacent pairs ``(i, j)`` with ``i < j``, ignoring marks."""
        return frozenset((i, j) for i, j, _ in self._marks())

    def with_edge(self, edge: Edge) -> "MixedGraph":
        """Copy of this graph with the edge on ``edge.pair`` replaced (or
        added if the pair was non-adjacent)."""
        if not isinstance(edge, Edge):
            raise InputError(f"expected an Edge, got {_shown(edge)}")
        u, v = edge.u, edge.v
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise InputError(
                f"edge ({_shown(u)}, {_shown(v)}) references an unknown node"
            )
        pa, ch, sp = list(self._pa), list(self._ch), list(self._sp)
        keep_u, keep_v = ~(1 << v), ~(1 << u)
        for rows in (pa, ch, sp):
            rows[u] &= keep_u
            rows[v] &= keep_v
        _put_edge(pa, ch, sp, u, v, edge.kind is EdgeKind.BIDIRECTED)
        return MixedGraph._trusted(self.n, self.labels, pa, ch, sp, None)

    @property
    def pair_code(self) -> int:
        """The base-4 pair-state code of :mod:`magmoves._kernels`, which
        :func:`magmoves.enumeration.graph_from_pair_code` decodes."""
        n = self.n
        return sum(mark << _pair_shift(n, i, j) for i, j, mark in self._marks())

    def canonical_key(self) -> str:
        """Deterministic string form: node count, then sorted edge tokens."""
        if self._key is None:
            toks = sorted(
                _token(str(j), str(i), False)
                if mark == _REV
                else _token(str(i), str(j), mark == _BI)
                for i, j, mark in self._marks()
            )
            self._key = ";".join([str(self.n)] + toks)
        return self._key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MixedGraph):
            return NotImplemented
        return self.n == other.n and self._pa == other._pa and self._sp == other._sp

    def __hash__(self) -> int:
        return hash((self.n, self.pair_code))

    def __repr__(self) -> str:
        return f"MixedGraph({self.canonical_key()!r})"


def _ancestors(pa: list[int], an: list[int | None], x: int) -> int:
    # The ancestor mask of x from the parent rows ``pa``, memoised in ``an``
    # (None for a node not yet closed).
    seen = an[x]
    if seen is not None:
        return seen
    seen = 1 << x
    todo = pa[x]
    while todo:
        low = todo & -todo
        w = low.bit_length() - 1
        known = an[w]
        if known is None:
            seen |= low
            todo |= pa[w]
        else:
            seen |= known  # a cached set is already closed under parents
        todo &= ~seen
    an[x] = seen
    return seen


# -- paths ------------------------------------------------------------------


def require_graph(g: object) -> None:
    """Raise unless ``g`` is a :class:`MixedGraph`."""
    if not isinstance(g, MixedGraph):
        raise InputError(f"expected a MixedGraph, got {_shown(g)}")


def _path_nodes(g: MixedGraph, path: Iterable[int]) -> tuple[int, ...]:
    # ``path`` as a tuple, once it is known to hold only nodes of ``g``.
    require_graph(g)
    if not isinstance(path, Iterable):
        raise InputError(f"expected a sequence of nodes, got {_shown(path)}")
    path = tuple(path)
    for x in path:
        g.check_node(x)
    return path


def format_path(g: MixedGraph, path: tuple[int, ...]) -> str:
    """Render a path with its edge marks, e.g. ``X->Z<->Y``."""
    path = _path_nodes(g, path)
    if not path:
        return ""
    bits = [g.labels[path[0]]]
    for a, b in zip(path, path[1:]):
        e = g.edge_between(a, b)
        if e is None:
            raise InputError(f"nodes {a} and {b} are not adjacent")
        if e.kind is EdgeKind.BIDIRECTED:
            arrow = "<->"
        elif e.u == a:
            arrow = "->"
        else:
            arrow = "<-"
        bits.append(arrow)
        bits.append(g.labels[b])
    return "".join(bits)


def require_path(g: MixedGraph, path: Iterable[int]) -> tuple[int, ...]:
    """``path`` as a tuple; raises unless it is a simple path of ``g`` with
    >= 2 nodes."""
    path = _path_nodes(g, path)
    if len(path) < 2:
        raise InputError("a path needs at least two nodes")
    if len(set(path)) != len(path):
        raise InputError("path nodes must be distinct")
    for a, b in zip(path, path[1:]):
        if not g.has_edge(a, b):
            raise InputError(f"nodes {a} and {b} are not adjacent")
    return path


def simple_paths_between(
    g: MixedGraph, x: int, y: int
) -> Iterator[tuple[int, ...]]:
    """All simple paths from ``x`` to ``y``, in deterministic DFS order."""
    require_graph(g)
    g.check_node(x)
    g.check_node(y)
    if x == y:
        raise InputError("path endpoints must differ")
    ybit = 1 << y
    adj = g._adj
    # An explicit stack of (path, visited, unexplored neighbours) frames, so
    # long paths do not hit the interpreter's recursion limit.
    visited = 1 << x
    nbrs = adj[x] & ~visited
    if nbrs & ybit:
        yield (x, y)
    stack = [((x,), visited, nbrs & ~ybit)]
    while stack:
        path, visited, rest = stack[-1]
        if not rest:
            stack.pop()
            continue
        low = rest & -rest
        stack[-1] = (path, visited, rest ^ low)
        path += (low.bit_length() - 1,)
        visited |= low
        nbrs = adj[path[-1]] & ~visited
        if nbrs & ybit:
            yield path + (y,)
        stack.append((path, visited, nbrs & ~ybit))


# -- validity ----------------------------------------------------------------


def ancestors(g: MixedGraph, x: int) -> frozenset[int]:
    """Nodes with a directed path into ``x``; includes ``x``."""
    require_graph(g)
    g.check_node(x)
    return frozenset(iter_bits(g._ancestor_mask(x)))


def _directed_path(g: MixedGraph, src: int, dst: int) -> tuple[int, ...]:
    # BFS over child edges from src to dst; caller guarantees existence.
    prev = {src: None}
    queue = [src]
    while queue:
        w = queue.pop(0)
        if w == dst:
            break
        for v in iter_bits(g._ch[w]):
            if v not in prev:
                prev[v] = w
                queue.append(v)
    out = [dst]
    while prev[out[-1]] is not None:
        out.append(prev[out[-1]])
    return tuple(reversed(out))


def _ancestral_witness(g: MixedGraph) -> str:
    # Why a graph that is not ancestral fails: the first directed edge that
    # closes a directed cycle, else the first bi-directed edge with a
    # directed path between its endpoints.
    edges = g.edges
    for e in edges:
        if e.kind is EdgeKind.DIRECTED and (g._ancestor_mask(e.u) >> e.v) & 1:
            cycle = _directed_path(g, e.v, e.u) + (e.v,)
            return f"directed cycle {format_path(g, cycle)}"
    for e in edges:
        if e.kind is EdgeKind.BIDIRECTED:
            for a, b in ((e.u, e.v), (e.v, e.u)):
                if (g._ancestor_mask(b) >> a) & 1:
                    return (
                        f"bi-directed edge {g.labels[e.u]}<->{g.labels[e.v]} "
                        f"with directed path {format_path(g, _directed_path(g, a, b))}"
                    )


def is_ancestral(g: MixedGraph) -> bool:
    """No directed cycles, and no directed path between the endpoints of any
    bi-directed edge."""
    require_graph(g)
    return _ancestral(g._pa, g._ch, g._sp, g._an)


def _ancestral(
    pa: list[int], ch: list[int], sp: list[int], an: list[int | None]
) -> bool:
    # is_ancestral on the node rows, with ``an`` the ancestor masks as
    # _ancestors memoises them; an ancestral graph leaves every mask filled.
    for x in range(len(pa)):
        # a proper ancestor of x that is also its child closes a cycle; one
        # that is its spouse has a directed path into the bi-directed edge
        if _ancestors(pa, an, x) & ~(1 << x) & (ch[x] | sp[x]):
            return False
    return True


def inducing_path_exists(g: MixedGraph, x: int, y: int) -> bool:
    """True iff some path from ``x`` to ``y`` has every internal node a
    collider on the path and an ancestor of ``x`` or ``y``.

    A single edge qualifies vacuously.  Internal nodes of such a path are
    pairwise linked by bi-directed edges, so a reachability sweep over the
    bi-directed core is exact; no path enumeration is needed.
    """
    return inducing_path_witness(g, x, y) is not None


def inducing_path_witness(
    g: MixedGraph, x: int, y: int
) -> tuple[int, ...] | None:
    """One inducing path from ``x`` to ``y`` as a node tuple, or None."""
    require_graph(g)
    g.check_node(x)
    g.check_node(y)
    if x == y:
        raise InputError("inducing path endpoints must differ")
    if g.has_edge(x, y):
        return (x, y)
    anxy = g._ancestor_mask(x) | g._ancestor_mask(y)
    return _inducing_path(g._ch, g._sp, x, y, anxy)


def _inducing_path(
    ch: list[int], sp: list[int], x: int, y: int, anxy: int
) -> tuple[int, ...] | None:
    # inducing_path_witness for distinct, valid, non-adjacent x and y of the
    # child and spouse rows, with ``anxy`` the union of their ancestor
    # masks.  Breadth-first search over the bi-directed core, taking nodes
    # in ascending order: it starts at the nodes with an arrowhead on their
    # edge from x and accepts the first node it pops with an arrowhead on
    # its edge from y.
    allowed = anxy & ~((1 << x) | (1 << y))
    accept = (ch[y] | sp[y]) & allowed
    parent = dict.fromkeys(iter_bits((ch[x] | sp[x]) & allowed), x)
    queue = deque(parent)
    while queue:
        w = queue.popleft()
        if (accept >> w) & 1:
            path = [y, w]
            while path[-1] != x:
                path.append(parent[path[-1]])
            return tuple(reversed(path))
        for v in iter_bits(sp[w] & allowed):
            if v not in parent:
                parent[v] = w
                queue.append(v)
    return None


def maximality_witness(
    g: MixedGraph,
) -> tuple[int, int, tuple[int, ...]] | None:
    """The first non-adjacent pair ``(x, y)``, ``x < y`` in ascending order,
    joined by an inducing path, with the path, or None.

    Only defined on ancestral graphs; raises :class:`PreconditionError` on
    any other.  Only pairs that could be joined are searched, tried in the
    same ascending order and with the same search as the all-pairs scan,
    which therefore returns the same pair and path.

    Let ``<x, w1, ..., wk, y>`` be an inducing path.  Every internal node
    is a collider on it, so consecutive internal nodes are spouses and the
    interior lies in one district (bi-directed component); ``w1`` is a
    child or spouse of ``x`` and ``y`` is a parent or spouse of ``wk``.
    Since ``x -> w1`` or ``x <-> w1``, ``w1`` is not an ancestor of ``x``:
    the first would close a directed cycle, the second would put a directed
    path between the ends of a bi-directed edge.  Being an ancestor of
    ``x`` or ``y``, ``w1`` is in ``An(y)``.  By the same argument ``wk`` is
    in ``An(x)`` and not in ``An(y)``, so ``wk != w1``, ``k >= 2``, and both
    have a spouse.  So the only ``y`` worth a search are those above ``x``
    and not adjacent to it that are a parent or spouse of some ``w != x``
    in ``An(x)``, where ``w`` lies in the district of a node of
    ``ch(x) | sp(x)`` that has a spouse, and where some node of
    ``ch(x) | sp(x)`` in ``An(y)`` has a spouse.
    """
    if not is_ancestral(g):
        raise PreconditionError("maximality is only defined on ancestral graphs")
    return _maximality_gap(g._pa, g._ch, g._sp, g._an)


def _maximality_gap(
    pa: list[int], ch: list[int], sp: list[int], an: list[int]
) -> tuple[int, int, tuple[int, ...]] | None:
    # maximality_witness on the node rows of an ancestral graph, with ``an``
    # every node's ancestor mask, over the candidates its docstring derives.
    n = len(pa)
    paired = 0  # nodes with a spouse
    for w in range(n):
        if sp[w]:
            paired |= 1 << w
    if not paired:
        return None
    full = (1 << n) - 1
    for x in range(n):
        # non-adjacent, above x
        partners = full & ~(pa[x] | ch[x] | sp[x]) & ~((2 << x) - 1)
        if not partners:
            continue
        firsts = (ch[x] | sp[x]) & paired  # candidates for w1
        if not firsts:
            continue
        anx = an[x]
        lasts = anx & paired & ~(1 << x)  # candidates for wk
        if not lasts:
            continue
        reach = frontier = firsts  # their districts
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= sp[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & ~reach
            reach |= frontier
        heads = 0
        for w in iter_bits(reach & lasts):
            heads |= pa[w] | sp[w]
        for y in iter_bits(heads & partners):
            any_y = an[y]
            if firsts & any_y:
                path = _inducing_path(ch, sp, x, y, anx | any_y)
                if path is not None:
                    return x, y, path
    return None


def is_maximal(g: MixedGraph) -> bool:
    """No inducing path between any non-adjacent pair: ``maximality_witness``
    is None.  Only defined on ancestral graphs."""
    return maximality_witness(g) is None


def mag_violation(g: MixedGraph) -> tuple[str, str] | None:
    """Why ``g`` is not a MAG, or None when it is one.

    Returns ``("ancestral", witness)`` naming a directed cycle or a
    bi-directed edge with a directed path between its endpoints, else
    ``("maximal", witness)`` naming a non-adjacent pair and the inducing
    path that joins it.
    """
    if not is_ancestral(g):
        return "ancestral", _ancestral_witness(g)
    gap = _maximality_gap(g._pa, g._ch, g._sp, g._an)
    if gap is None:
        return None
    x, y, path = gap
    return "maximal", (
        f"non-adjacent pair ({g.labels[x]}, {g.labels[y]}) joined by "
        f"inducing path {format_path(g, path)}"
    )


def is_mag(g: MixedGraph) -> bool:
    """Ancestral and maximal: ``mag_violation`` is None, without building
    its text."""
    require_graph(g)
    return _is_mag_rows(g._pa, g._ch, g._sp, g._an)


def _is_mag_rows(
    pa: list[int], ch: list[int], sp: list[int], an: list[int | None]
) -> bool:
    # is_mag on the node rows, with ``an`` as for _ancestral: [None] * n
    # for rows no graph holds.
    return _ancestral(pa, ch, sp, an) and _maximality_gap(pa, ch, sp, an) is None


def require_mags(*mags: "Mag") -> None:
    """Raise unless every argument is a :class:`Mag` and all share one node
    set (node count and labels)."""
    for m in mags:
        if not isinstance(m, Mag):
            raise InputError(f"expected a Mag, got {_shown(m)}")
    for m in mags[1:]:
        if m.n != mags[0].n or m.labels != mags[0].labels:
            raise InputError("graphs must share the same node set")


def canonical_key(g: "MixedGraph | Mag") -> str:
    if not isinstance(g, (MixedGraph, Mag)):
        raise InputError(f"expected a MixedGraph or a Mag, got {_shown(g)}")
    return g.canonical_key()


class Mag:
    """A validated maximal ancestral graph.

    Construction runs the full validity check and raises
    :class:`NotAMagError` with a witness description on failure.
    """

    __slots__ = ("graph",)

    def __init__(self, graph: MixedGraph) -> None:
        if not isinstance(graph, MixedGraph):
            raise InputError(f"expected a MixedGraph, got {_shown(graph)}")
        bad = mag_violation(graph)
        if bad is not None:
            raise NotAMagError(f"not {bad[0]}: {bad[1]}")
        self.graph = graph

    @classmethod
    def _trusted(cls, graph: MixedGraph) -> "Mag":
        # Wraps a graph the caller has already found to be a MAG.
        m = object.__new__(cls)
        m.graph = graph
        return m

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def labels(self) -> tuple[str, ...]:
        return self.graph.labels

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self.graph.edges

    def canonical_key(self) -> str:
        return self.graph.canonical_key()

    def parents(self, x: int) -> frozenset[int]:
        return self.graph.parents(x)

    def children(self, x: int) -> frozenset[int]:
        return self.graph.children(x)

    def spouses(self, x: int) -> frozenset[int]:
        return self.graph.spouses(x)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Mag):
            return self.graph == other.graph
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.graph)

    def __repr__(self) -> str:
        return f"Mag({self.canonical_key()!r})"
