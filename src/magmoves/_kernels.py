"""Vectorised kernels over blocks of graphs.

Every node pair takes one of four states (absent, either direction, or
bi-directed), so a graph on n nodes is a base-4 code over n(n-1)/2 pairs:
state ``s`` of pair ``p`` sits in bits ``2p, 2p+1``, with 1 for ``u -> v``,
2 for ``v -> u`` and 3 for ``u <-> v`` on the pair ``(u, v)``, ``u < v``.

The kernels hold a block of graphs as one unsigned row array per node for
its parents, children and spouses (bit ``w`` of entry ``g`` set when node
``w`` is one in graph ``g``), and close the parent rows into ancestor rows
by Warshall's algorithm.  :func:`node_rows` builds these rows from a block
of codes, for the enumeration scan and for decoding its MAGs.

* The enumeration scan runs the same bitmask test as
  :func:`magmoves.graph.is_mag` over blocks of codes: no proper ancestor
  of a node is also its child or spouse, and a bi-directed reachability
  sweep finds no inducing path between a non-adjacent pair.
* The signature kernel runs the m-connection sweep of
  :func:`magmoves.separation.separation_signature` for every query
  ``(x, y, Z)`` at once over the block, and packs the verdicts into bytes
  in that function's bit order.
* The move kernel decides the predicates of
  :func:`magmoves.transform.legal_moves` on every ordered pair at once,
  following spouse chains by :func:`chain_reach`: the chain search of
  :func:`magmoves.equivalence._entry_chain` from all its seeds at once.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "USING_NUMBA",
    "chain_reach",
    "enumerate_mag_codes",
    "move_block",
    "node_rows",
    "pair_list",
    "signature_block",
]

# There is no compiled backend; the constant stays for callers that report
# which backend produced a result.
USING_NUMBA = False

_CHUNK = 1 << 16


def pair_list(n: int) -> list[tuple[int, int]]:
    """Pair order shared by every encoder: (0,1), (0,2), ..., (n-2,n-1)."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _spread(rows: list[np.ndarray], mask: np.ndarray) -> np.ndarray:
    # Union of rows[w] over the nodes w set in each entry of ``mask``.
    out = np.zeros_like(mask)
    for w, row in enumerate(rows):
        out |= row & -((mask >> w) & 1)
    return out


def _ancestor_rows(pa: list[np.ndarray]) -> list[np.ndarray]:
    # Warshall closure of the parent rows: bit k of an[x] is set when k is
    # an ancestor of x, x itself included.
    an = [row | row.dtype.type(1 << x) for x, row in enumerate(pa)]
    for k in range(len(an)):
        for x in range(len(an)):
            an[x] |= an[k] & -((an[x] >> k) & 1)
    return an


def chain_reach(sp: np.ndarray, seed: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Per graph, the nodes of ``seed & allowed`` and those reached from them
    along the spouse rows ``sp`` (one per node) without leaving ``allowed``."""
    reach = seed & allowed
    while not np.array_equal(grown := reach | _spread(sp, reach) & allowed, reach):
        reach = grown
    return reach


def node_rows(n: int, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parent, child and spouse rows of a block of pair codes, each of shape
    (n, len(codes)) and dtype uint8, so n <= 8: entry ``[w, g]`` is node
    ``w``'s mask in the graph of ``codes[g]``."""
    pa, ch, sp = np.zeros((3, n, codes.shape[0]), np.uint8)
    for p, (u, v) in enumerate(pair_list(n)):
        s = ((codes >> (2 * p)) & 3).astype(np.uint8)
        fwd = -(s == 1).view(np.uint8)  # 0xff where u -> v
        rev = -(s == 2).view(np.uint8)
        bi = -(s == 3).view(np.uint8)
        ch[u] |= fwd & (1 << v)
        pa[v] |= fwd & (1 << u)
        ch[v] |= rev & (1 << u)
        pa[u] |= rev & (1 << v)
        sp[u] |= bi & (1 << v)
        sp[v] |= bi & (1 << u)
    return pa, ch, sp


def _is_mag_block(n: int, codes: np.ndarray) -> np.ndarray:
    pa, ch, sp = (list(rows) for rows in node_rows(n, codes))
    an = _ancestor_rows(pa)
    ok = np.ones(codes.shape[0], bool)
    for x in range(n):
        # a proper ancestor that is also a child (cycle) or a spouse
        ok &= (an[x] & ~np.uint8(1 << x) & (ch[x] | sp[x])) == 0
    head = [ch[x] | sp[x] for x in range(n)]  # arrowhead at the far end
    for x, y in pair_list(n):
        adjacent = (pa[x] | head[x]) & np.uint8(1 << y) != 0
        allowed = (an[x] | an[y]) & ~np.uint8((1 << x) | (1 << y))
        reach = head[x] & allowed
        for _ in range(n - 3):
            reach |= _spread(sp, reach) & allowed
        ok &= adjacent | ((reach & head[y]) == 0)
    return ok


def signature_block(pa: np.ndarray, ch: np.ndarray, sp: np.ndarray) -> np.ndarray:
    """Separation signatures of a block of graphs.

    ``pa``, ``ch`` and ``sp`` have shape (n, graphs) and an unsigned dtype
    of at least n bits; entry ``[w, g]`` is the parent, child or spouse
    mask of node ``w`` in graph ``g``.  Returns one row of bytes per graph
    (at least one) with bit ``pos`` of
    :func:`magmoves.separation.separation_signature` in bit ``pos % 8`` of
    byte ``pos // 8``.
    """
    n, count = pa.shape
    an = _ancestor_rows(list(pa))
    queries = len(pair_list(n)) << max(n - 2, 0)
    out = np.zeros((max(1, (queries + 7) // 8), count), np.uint8)
    zero = np.zeros(count, pa.dtype)
    pos = 0
    for x, y in pair_list(n):
        rest = [v for v in range(n) if v not in (x, y)]
        for k in range(1 << (n - 2)):
            given = [v for i, v in enumerate(rest) if (k >> i) & 1]
            outside = ~pa.dtype.type(sum(1 << z for z in given))
            anz = zero
            for z in given:
                anz = anz | an[z]
            # The sweep of separation._m_connected_masks over the states
            # (w, arrived with an arrowhead).  A collider (an arrowhead at
            # w, an ancestor of Z) and a tail at w outside Z leave w along
            # an edge with an arrowhead at w: to a spouse, arriving with an
            # arrowhead, or to a parent, arriving with a tail.  A node
            # outside Z is left along an edge with a tail at w: to a child.
            head, tail = ch[x] | sp[x], pa[x]
            seen_head, seen_tail = head, tail
            while head.any() or tail.any():
                by_head = (head & anz) | (tail & outside)
                by_tail = (head | tail) & outside
                new_head = new_tail = zero
                for w in range(n):
                    h = -((by_head >> w) & 1)
                    t = -((by_tail >> w) & 1)
                    new_head = new_head | (sp[w] & h) | (ch[w] & t)
                    new_tail = new_tail | (pa[w] & h)
                head = new_head & ~seen_head
                tail = new_tail & ~seen_tail
                seen_head = seen_head | head
                seen_tail = seen_tail | tail
            hit = ((seen_head | seen_tail) >> y) & 1
            out[pos >> 3] |= hit.astype(np.uint8) << (pos & 7)
            pos += 1
    return out.T


def move_block(pa: np.ndarray, ch: np.ndarray, sp: np.ndarray) -> tuple:
    """Three uint64 arrays, one entry per graph of the node rows (as for
    :func:`signature_block`, n <= 8), with bit ``x * n + y`` set where
    ``transform._failure`` passes ``DIR_TO_BI`` on ``x -> y``, ``BI_TO_DIR``
    on ``x <-> y`` with ``x`` the tail, and ``REVERSE`` on ``x -> y``."""
    n, one = pa.shape[0], pa.dtype.type(1)
    an, head = _ancestor_rows(list(pa)), ch | sp  # arrowhead at the far end
    out = np.zeros((3, pa.shape[1]), np.uint64)
    for x, y in [(x, y) for x in range(n) for y in range(n) if x != y]:
        xbit, ybit = one << x, one << y
        # Both blankets: the parents of x, and its spouses that are not
        # spouses of y, are parents of y, and no spouse chain inside the
        # parents of y runs from those spouses to a node with an arrowhead
        # from a non-neighbour of y.  Every spouse searches the same nodes,
        # so one search from all of them reaches the union of their chains.
        spouses = sp[x] & ~ybit & ~sp[y]
        chain = chain_reach(sp, spouses, pa[y] & ~(xbit | ybit))
        hits = _spread(head, ~(pa[y] | head[y] | ybit))
        blanket = ((pa[x] | spouses) & ~pa[y] | chain & hits) == 0
        tail = ch[x] & ybit != 0
        ok = (
            tail & blanket & (ch[x] & ~ybit & an[y] == 0),  # no detour to y
            (sp[x] & ybit != 0) & blanket,  # x <-> y
            tail & (pa[y] == pa[x] | xbit) & (sp[y] == sp[x]),  # screened
        )
        out |= np.array(ok, np.uint64) << np.uint64(x * n + y)
    return tuple(out)


def enumerate_mag_codes(n: int) -> np.ndarray:
    """Sorted array of every pair-state code that decodes to a MAG."""
    total = 1 << (2 * len(pair_list(n)))
    kept = []
    for start in range(0, total, _CHUNK):
        codes = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        kept.append(codes[_is_mag_block(n, codes)])
    return np.concatenate(kept)
