"""Independent reference implementations used only by the tests.

These deliberately take the slow literal route (path enumeration) so the
production algorithms have something honest to disagree with.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

import numpy as np

from magmoves import (
    Mag,
    MoveDescriptor,
    MoveKind,
    apply_move,
    bidirected,
    directed,
    is_discriminating_path,
    legal_moves,
    m_connected,
    simple_paths_between,
)
from magmoves.equivalence import _discriminates_forward
from magmoves.graph import EdgeKind, MixedGraph, inducing_path_witness, iter_bits
from magmoves.separation import _query_masks
from magmoves.transform import (
    blanketed_bidirected_violation,
    blanketed_directed_violation,
    screened_violation,
)


def ancestors_dfs(g: MixedGraph, x: int) -> frozenset[int]:
    """Depth-first search backwards along parent edges, from scratch."""
    seen = {x}
    stack = [x]
    while stack:
        for p in g.parents(stack.pop()):
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return frozenset(seen)


def is_ancestral_naive(g: MixedGraph) -> bool:
    """No directed edge closes a directed cycle and no bi-directed edge joins
    an ancestor to its descendant."""
    for e in g.edges:
        if e.kind is EdgeKind.DIRECTED and e.v in ancestors_dfs(g, e.u):
            return False
        if e.kind is EdgeKind.BIDIRECTED and (
            e.u in ancestors_dfs(g, e.v) or e.v in ancestors_dfs(g, e.u)
        ):
            return False
    return True


def is_mag_naive(g: MixedGraph) -> bool:
    """The definition read literally: ancestral, and no inducing path joins
    a non-adjacent pair."""
    return is_ancestral_naive(g) and not any(
        inducing_path_exists_naive(g, x, y)
        for x in range(g.n)
        for y in range(x + 1, g.n)
        if not g.has_edge(x, y)
    )


def is_inducing_path(g: MixedGraph, path: tuple[int, ...]) -> bool:
    """Is ``path`` a simple path of ``g`` whose every internal node is a
    collider on it and an ancestor of one of its endpoints?"""
    if len(path) < 2 or len(set(path)) != len(path):
        return False
    if not all(g.has_edge(a, b) for a, b in zip(path, path[1:])):
        return False
    anc = ancestors_dfs(g, path[0]) | ancestors_dfs(g, path[-1])
    return all(
        g.arrowhead_toward(a, w) and g.arrowhead_toward(b, w) and w in anc
        for a, w, b in zip(path, path[1:], path[2:])
    )


def inducing_path_exists_naive(g: MixedGraph, x: int, y: int) -> bool:
    """Enumerate every simple path and test the two defining clauses."""
    anxy = g.ancestor_mask(x) | g.ancestor_mask(y)
    for path in simple_paths_between(g, x, y):
        ok = True
        for i in range(1, len(path) - 1):
            w = path[i]
            collider = g.arrowhead_toward(path[i - 1], w) and g.arrowhead_toward(
                path[i + 1], w
            )
            if not collider or not (anxy >> w) & 1:
                ok = False
                break
        if ok:
            return True
    return False


def inducing_path_bfs(g: MixedGraph, x: int, y: int) -> tuple[int, ...] | None:
    """The inducing path from ``x`` to a non-adjacent ``y`` that a
    node-by-node breadth-first search finds, or None.  Internal nodes are
    ancestors of ``x`` or ``y`` other than the two.  The search starts at
    the children and spouses of ``x`` among them, steps along spouse edges,
    takes each node's successors in ascending order, and accepts the first
    node it pops that is a child or spouse of ``y``."""
    allowed = (ancestors_dfs(g, x) | ancestors_dfs(g, y)) - {x, y}
    ends = (g.children(y) | g.spouses(y)) & allowed
    parent = {w: x for w in sorted((g.children(x) | g.spouses(x)) & allowed)}
    queue = deque(parent)
    while queue:
        w = queue.popleft()
        if w in ends:
            path = [y, w]
            while path[-1] != x:
                path.append(parent[path[-1]])
            return tuple(reversed(path))
        for v in sorted(g.spouses(w) & allowed):
            if v not in parent:
                parent[v] = w
                queue.append(v)
    return None


def maximality_witness_all_pairs(g: MixedGraph):
    """Search every non-adjacent pair ``x < y`` in ascending order for an
    inducing path; the first pair found, with its path, or None."""
    for x in range(g.n):
        for y in range(x + 1, g.n):
            if not g.has_edge(x, y):
                path = inducing_path_witness(g, x, y)
                if path is not None:
                    return x, y, path
    return None


def legal_moves_by_violation(m: Mag) -> list[MoveDescriptor]:
    """Every move whose ``*_violation`` text is None, sorted by kind then
    endpoints."""
    out = []
    for e in m.edges:
        u, v = e.u, e.v
        if e.kind is EdgeKind.BIDIRECTED:
            for x, y in ((u, v), (v, u)):
                if blanketed_bidirected_violation(m, x, y) is None:
                    out.append(MoveDescriptor(MoveKind.BI_TO_DIR, x, y))
            continue
        if blanketed_directed_violation(m, u, v) is None:
            out.append(MoveDescriptor(MoveKind.DIR_TO_BI, u, v))
        if screened_violation(m, u, v) is None:
            out.append(MoveDescriptor(MoveKind.REVERSE, u, v))
    order = [MoveKind.DIR_TO_BI, MoveKind.BI_TO_DIR, MoveKind.REVERSE]
    return sorted(out, key=lambda mv: (order.index(mv.kind), mv.x, mv.y))


def move_bits_by_legal_moves(pa, ch, sp):
    """The three bit arrays of ``_kernels.move_block`` for node rows of shape
    (n, graphs), found literally: each column is decoded into a Mag and
    asked for its ``legal_moves``, and each move (x, y) sets bit
    ``x * n + y`` of its kind's array, in ``MoveKind`` order."""
    n, count = pa.shape
    kinds = [MoveKind.DIR_TO_BI, MoveKind.BI_TO_DIR, MoveKind.REVERSE]
    out = np.zeros((3, count), np.uint64)
    for g in range(count):
        edges = [directed(x, y) for y in range(n) for x in iter_bits(int(pa[y, g]))]
        edges += [
            bidirected(x, y)
            for x in range(n)
            for y in iter_bits(int(sp[x, g]))
            if x < y
        ]
        for mv in legal_moves(Mag(MixedGraph(n, edges))):
            out[kinds.index(mv.kind), g] |= np.uint64(1) << np.uint64(mv.x * n + mv.y)
    return tuple(out)


def simple_paths_recursive(g: MixedGraph, x: int, y: int):
    """Every simple path from x to y by a recursive depth-first walk that
    tries neighbours in ascending order, reaching y before going deeper."""

    def walk(w, visited, acc):
        nbrs = [v for v in range(g.n) if g.has_edge(w, v) and v not in visited]
        if y in nbrs:
            yield acc + (y,)
        for v in nbrs:
            if v != y:
                yield from walk(v, visited | {v}, acc + (v,))

    yield from walk(x, {x}, (x,))


def discriminating_triple_naive(g: MixedGraph, z: int, x: int, y: int) -> bool:
    """Enumerate simple paths ending (..., z, x, y) and test each with the
    path predicate behind :func:`is_discriminating_path`; every path built
    here is valid by construction, so it is not re-validated."""
    banned = (1 << x) | (1 << y)

    def extend(prefix: tuple[int, ...], visited: int) -> bool:
        head = prefix[0]
        for w in iter_bits(g._adj[head] & ~visited & ~banned):
            seq = (w,) + prefix
            if _discriminates_forward(g, seq + (x, y)):
                return True
            if extend(seq, visited | (1 << w)):
                return True
        return False

    return extend((z,), (1 << z) | banned)


def _collider_entry_paths(g: MixedGraph, x: int, avoid: int):
    # Node sequences (a_1, ..., a_k) such that (a_1, ..., a_k, x) is a path
    # whose internal nodes are all colliders on it: a_k <-> x, consecutive
    # chain links bi-directed, and a_1 either the chain end or a node with
    # an arrowhead into a_2.  Nodes in `avoid` never appear.
    banned = avoid | (1 << x)

    def grow(chain: tuple[int, ...], visited: int):
        head = chain[0]
        yield chain
        for w in iter_bits(g._pa[head] & ~visited):
            yield (w,) + chain
        for s in iter_bits(g._sp[head] & ~visited):
            yield from grow((s,) + chain, visited | (1 << s))

    for a in iter_bits(g._sp[x] & ~banned):
        yield from grow((a,), banned | (1 << a))


def lemma1_by_paths(g: MixedGraph, x: int, y: int) -> bool:
    """Lemma 1 for the edge between x and y, path by path: every collider
    entry path into ``x`` that avoids ``y`` holds a spouse of ``y`` or
    consists of parents of ``y``."""
    for seq in _collider_entry_paths(g, x, 1 << y):
        if any(g.is_spouse(a, y) for a in seq):
            continue
        if all(g.is_parent(a, y) for a in seq):
            continue
        return False
    return True


def conditioning_sets(n: int, x: int, y: int):
    """Every subset of the nodes other than x and y."""
    rest = [v for v in range(n) if v != x and v != y]
    for size in range(len(rest) + 1):
        yield from combinations(rest, size)


def m_connected_naive(g: MixedGraph, x: int, y: int, given=()) -> bool:
    """Enumerate every simple path and test it: each internal collider must
    be an ancestor of a member of ``given`` and each internal non-collider
    must lie outside it."""
    given = set(given)
    an_given = set()
    for z in given:
        an_given |= ancestors_dfs(g, z)
    for path in simple_paths_between(g, x, y):
        if all(
            w in an_given
            if g.arrowhead_toward(a, w) and g.arrowhead_toward(b, w)
            else w not in given
            for a, w, b in zip(path, path[1:], path[2:])
        ):
            return True
    return False


def _path_m_connects(
    g: MixedGraph, path: tuple[int, ...], zmask: int, anz: int
) -> bool:
    for i in range(1, len(path) - 1):
        w = path[i]
        into = g._pa[w] | g._sp[w]  # neighbours whose edge points into w
        if (into >> path[i - 1]) & (into >> path[i + 1]) & 1:
            if not (anz >> w) & 1:
                return False
        elif (zmask >> w) & 1:
            return False
    return True


def connecting_path_by_enumeration(
    g: MixedGraph, x: int, y: int, given=()
) -> tuple[int, ...] | None:
    """The first path of ``simple_paths_between`` that m-connects ``x`` and
    ``y`` given ``given``, or None: every simple path is tested in turn."""
    zmask, anz = _query_masks(g, x, y, given)
    for path in simple_paths_between(g, x, y):
        if _path_m_connects(g, path, zmask, anz):
            return path
    return None


def _colliders_naive(g: MixedGraph) -> set[tuple[int, int, int]]:
    """Unshielded colliders (a, z, b), a < b, read off every node triple."""
    return {
        (a, z, b)
        for z in range(g.n)
        for a, b in combinations([v for v in range(g.n) if v != z], 2)
        if g.arrowhead_toward(a, z)
        and g.arrowhead_toward(b, z)
        and not g.has_edge(a, b)
    }


def markov_equivalent_paths(m1: Mag, m2: Mag) -> bool:
    """The graphical criterion read literally: same adjacencies, same
    unshielded colliders, and every simple path that discriminates its
    second-to-last node in both graphs gives that node the same collider
    status in both."""
    g1, g2 = m1.graph, m2.graph
    if g1.skeleton() != g2.skeleton():
        return False
    if _colliders_naive(g1) != _colliders_naive(g2):
        return False
    for x in range(g1.n):
        for y in range(g1.n):
            if x == y or g1.has_edge(x, y):
                continue  # a discriminating path has non-adjacent endpoints
            for path in simple_paths_between(g1, x, y):
                if len(path) < 4:
                    continue
                b = path[-2]
                if is_discriminating_path(g1, path, b) and is_discriminating_path(
                    g2, path, b
                ):
                    a = path[-3]
                    if (g1.arrowhead_toward(a, b) and g1.arrowhead_toward(y, b)) != (
                        g2.arrowhead_toward(a, b) and g2.arrowhead_toward(y, b)
                    ):
                        return False
    return True


def find_separator_bruteforce(g: MixedGraph, x: int, y: int) -> frozenset[int] | None:
    """Try every conditioning set, smallest first and in ``combinations``
    order within a size; the first that m-separates wins."""
    others = [v for v in range(g.n) if v != x and v != y]
    for size in range(len(others) + 1):
        for combo in combinations(others, size):
            if not m_connected(g, x, y, combo):
                return frozenset(combo)
    return None


def first_vertex_cut_bruteforce(
    rows: list[int], x: int, y: int, inner: int
) -> list[int]:
    """The first set of ``inner`` nodes, smallest first and in
    ``combinations`` order within a size, whose removal leaves no path from
    ``x`` to ``y`` in the undirected graph with adjacency bitmasks ``rows``."""

    def reaches(removed: int) -> bool:
        seen = (1 << x) | removed
        stack = [x]
        while stack:
            for w in iter_bits(rows[stack.pop()] & ~seen):
                if w == y:
                    return True
                seen |= 1 << w
                stack.append(w)
        return False

    nodes = list(iter_bits(inner))
    for size in range(len(nodes) + 1):
        for combo in combinations(nodes, size):
            if not reaches(sum(1 << v for v in combo)):
                return list(combo)
    raise AssertionError("x and y are adjacent")


def closure_by_apply_move(m: Mag, max_size: int) -> tuple[dict[str, Mag], bool]:
    """Breadth-first walk that sends every legal move through ``apply_move``
    and stops once ``max_size`` graphs are held; returns the graphs in the
    order reached and whether the walk was cut short."""
    graphs = {m.canonical_key(): m}
    queue = deque([m])
    while queue:
        cur = queue.popleft()
        for mv in legal_moves(cur):
            nxt = apply_move(cur, mv)
            key = nxt.canonical_key()
            if key in graphs:
                continue
            if len(graphs) >= max_size:
                return graphs, True
            graphs[key] = nxt
            queue.append(nxt)
    return graphs, False
