"""Markov equivalence of MAGs.

Two MAGs over the same nodes are Markov equivalent iff they share adjacencies,
unshielded colliders, and the collider status of every node discriminated by
a path that discriminates it in both graphs.

The first two clauses form a per-graph *local key*; graphs whose keys differ
are never equivalent.  The third needs no path enumeration.  A path
``(w, q_k, ..., q_1, b, y)`` discriminates ``b`` in both graphs exactly when
``q_1 -> y`` in both, ``q_1`` has an arrowhead from ``b`` in both, the
``q_i`` are parents of ``y`` in both joined by edges bi-directed in both,
and ``w``, a non-neighbour of ``y``, has an arrowhead into ``q_k`` in both.
So for each triple ``(q_1, b, y)`` on which ``b``'s collider status differs,
one breadth-first search over that bi-directed core decides whether such a
path exists: O(n d^2 (n + m)) overall.  The graphical test lives here
alongside a brute-force oracle that compares full separation signatures.
"""

from __future__ import annotations

from collections.abc import Callable

from .errors import InputError
from .graph import (
    Mag,
    MixedGraph,
    format_path,
    iter_bits,
    require_graph,
    require_mags,
    require_path,
)
from .separation import _signature_query, separation_signature

__all__ = [
    "unshielded_colliders",
    "is_discriminating_path",
    "discriminating_path_exists_for_triple",
    "equivalence_witness",
    "markov_equivalent",
    "markov_equivalent_bruteforce",
    "signature_witness",
]


def unshielded_colliders(g: MixedGraph) -> frozenset[tuple[int, int, int]]:
    """Triples ``(a, z, b)`` with ``a < b``, both edges pointing into ``z``,
    and ``a``, ``b`` non-adjacent."""
    require_graph(g)
    if g._uc is not None:
        return g._uc
    out = set()
    for z in range(g.n):
        into = g._pa[z] | g._sp[z]
        for a in iter_bits(into):
            for b in iter_bits(into & ~((1 << (a + 1)) - 1)):
                if not (g._adj[a] >> b) & 1:
                    out.add((a, z, b))
    g._uc = frozenset(out)
    return g._uc


def _local_key(g: MixedGraph):
    # Adjacency rows, which stand for the skeleton without a tuple per
    # edge, and unshielded colliders: equivalent MAGs share both.
    return tuple(g._adj), unshielded_colliders(g)


def _collider_at(g: MixedGraph, seq: tuple[int, ...], i: int) -> bool:
    into = g._pa[seq[i]] | g._sp[seq[i]]  # neighbours whose edge points in
    return (into >> seq[i - 1]) & (into >> seq[i + 1]) & 1 == 1


def _discriminates_forward(g: MixedGraph, seq: tuple[int, ...]) -> bool:
    """Does ``seq`` discriminate its second-to-last node?

    Needs at least three edges, non-adjacent endpoints, and every node
    strictly between the start and the discriminated node a collider on the
    path and a parent of the final node.
    """
    if len(seq) < 4:
        return False
    y = seq[-1]
    if (g._adj[seq[0]] >> y) & 1:
        return False
    for i in range(1, len(seq) - 2):
        if not _collider_at(g, seq, i):
            return False
        if not (g._ch[seq[i]] >> y) & 1:
            return False
    return True


def is_discriminating_path(g: MixedGraph, path: tuple[int, ...], z: int) -> bool:
    """True iff ``path`` is a discriminating path for ``z`` in ``g``.

    ``path`` must be a valid path; ``z`` must be its second-to-last node in
    one of the two traversal directions, else the answer is False.
    """
    path = require_path(g, path)
    g.check_node(z)
    if len(path) < 4:
        return False
    if z == path[-2]:
        return _discriminates_forward(g, path)
    if z == path[1]:
        return _discriminates_forward(g, path[::-1])
    return False


def _entry_chain(
    start: int, allowed: int, bi: list[int], entries: Callable[[int], int]
) -> list[int] | None:
    # Breadth-first search from ``start`` along ``bi`` (symmetric neighbour
    # masks) through ``allowed`` nodes, for a node c with a nonzero mask
    # ``entries(c)`` of nodes that may open the path into it.  On a hit,
    # returns (w, c, ..., start): w the lowest node of that mask, then a
    # shortest chain rebuilt back through the recorded levels.
    levels = []
    cur = 1 << start
    seen = 0
    while cur:
        levels.append(cur)
        for c in iter_bits(cur):
            ends = entries(c)
            if ends:
                path = [(ends & -ends).bit_length() - 1, c]
                for level in reversed(levels[:-1]):
                    path.append(next(iter_bits(level & bi[path[-1]])))
                return path
        seen |= cur
        nxt = 0
        for s in iter_bits(cur):
            nxt |= bi[s]
        cur = nxt & allowed & ~seen
    return None


def discriminating_path_exists_for_triple(
    g: MixedGraph, z: int, x: int, y: int
) -> bool:
    """Is there a discriminating path for ``x`` ending with the nodes
    ``..., z, x, y``?

    Requires the edge between ``z`` and ``x`` to carry an arrowhead at ``x``
    and ``x``, ``y`` to be adjacent.  The search is linear: such a path exists
    iff ``z <-> x``, ``z -> y``, and a chain of bi-directed edges through
    parents of ``y`` links ``z`` to some node with an incoming arrowhead from
    a node non-adjacent to ``y``.
    """
    require_graph(g)
    g.check_node(z)
    g.check_node(x)
    g.check_node(y)
    if len({z, x, y}) != 3:
        raise InputError("triple nodes must be distinct")
    if not g.arrowhead_toward(z, x):
        raise InputError(
            "the (z, x) edge must exist and carry an arrowhead at x"
        )
    if not g.has_edge(x, y):
        raise InputError("x and y must be adjacent")
    # z is internal to any such path, hence a collider and a parent of y.
    if not g.is_spouse(z, x) or not g.is_parent(z, y):
        return False
    return _discriminating_chain(g, z, x, y)


def _discriminating_chain(g: MixedGraph, z: int, x: int, y: int) -> bool:
    # discriminating_path_exists_for_triple once z <-> x, z -> y and x, y
    # adjacent are known.
    pa, sp = g._pa, g._sp
    allowed = pa[y] & ~((1 << x) | (1 << y))
    far = ~(g._adj[y] | (1 << y))
    return _entry_chain(z, allowed, sp, lambda c: (pa[c] | sp[c]) & far) is not None


def _local_witness(g1: MixedGraph, g2: MixedGraph) -> str:
    # Why two graphs with different local keys differ: the first adjacency
    # in only one of them, else the first unshielded collider in only one.
    s1, s2 = g1.skeleton(), g2.skeleton()
    if s1 != s2:
        a, b = min(s1 ^ s2)
        which = "first" if (a, b) in s1 else "second"
        lbl = g1.labels
        return f"{lbl[a]} and {lbl[b]} are adjacent in the {which} graph only"
    uc1 = unshielded_colliders(g1)
    triple = min(uc1 ^ unshielded_colliders(g2))
    which, g = ("first", g1) if triple in uc1 else ("second", g2)
    return f"unshielded collider {format_path(g, triple)} in the {which} graph only"


def _head_rows(g: MixedGraph) -> list[int]:
    # Per node, the nodes whose edge to it carries an arrowhead at it.
    return [a | s for a, s in zip(g._pa, g._sp)]


def _discriminating_witness(
    g1: MixedGraph, g2: MixedGraph, head1: list[int], head2: list[int]
) -> tuple[tuple[int, ...], bool] | None:
    # For graphs with equal local keys, given their _head_rows: a path that
    # discriminates its second-to-last node in both graphs with a different
    # collider status, and whether that node is the collider in g1; or None.
    into = [a & b for a, b in zip(head1, head2)]  # arrowheads shared by both
    bi = [a & b for a, b in zip(g1._sp, g2._sp)]
    adj = g1._adj
    for y in range(g1.n):
        ybit = 1 << y
        common = g1._pa[y] & g2._pa[y]
        far = ~(adj[y] | ybit)
        for q in iter_bits(common):
            qy = (1 << q) | ybit
            for b in iter_bits(adj[q] & adj[y] & into[q]):
                collider = head1[b] & qy == qy
                if collider == (head2[b] & qy == qy):
                    continue
                # b is not in common: as a parent of y in both graphs it
                # would be a non-collider in both
                chain = _entry_chain(q, common, bi, lambda c: into[c] & far)
                if chain is not None:
                    return (*chain, b, y), collider
    return None


def equivalence_witness(m1: Mag, m2: Mag) -> str | None:
    """Why two MAGs on the same nodes are not Markov equivalent, or None
    when they are.

    Names the first adjacency present in one graph only, else an unshielded
    collider present in one graph only, else a path that discriminates the
    same node in both graphs with a different collider status there.
    """
    require_mags(m1, m2)
    g1, g2 = m1.graph, m2.graph
    if _local_key(g1) != _local_key(g2):
        return _local_witness(g1, g2)
    found = _discriminating_witness(g1, g2, _head_rows(g1), _head_rows(g2))
    if found is None:
        return None
    path, first = found
    return (
        f"discriminating path {format_path(g1, path)} in the first graph, "
        f"{format_path(g2, path)} in the second: {g1.labels[path[-2]]} is a "
        f"collider on it only in the {'first' if first else 'second'}"
    )


def markov_equivalent(m1: Mag, m2: Mag) -> bool:
    """Graphical Markov equivalence test for two MAGs on the same nodes.

    False whenever the graphs differ in adjacencies or unshielded colliders;
    otherwise polynomial in the graph size.
    """
    return equivalence_witness(m1, m2) is None


def signature_witness(m1: Mag, m2: Mag) -> tuple[int, int, frozenset[int]] | None:
    """The first query ``(x, y, Z)``, in :func:`separation_signature` bit
    order, on which the two MAGs' m-separation verdicts differ, or None
    when they agree on every query."""
    require_mags(m1, m2)
    diff = separation_signature(m1.graph) ^ separation_signature(m2.graph)
    if not diff:
        return None
    return _signature_query(m1.n, (diff & -diff).bit_length() - 1)


def markov_equivalent_bruteforce(m1: Mag, m2: Mag) -> bool:
    """Definitional test: identical m-separation verdicts on every query."""
    return signature_witness(m1, m2) is None
