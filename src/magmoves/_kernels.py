"""Exhaustive MAG enumeration kernel.

Every node pair takes one of four states (absent, either direction, or
bi-directed), so a graph on n nodes is a base-4 code over n(n-1)/2 pairs:
state ``s`` of pair ``p`` sits in bits ``2p, 2p+1``, with 1 for ``u -> v``,
2 for ``v -> u`` and 3 for ``u <-> v`` on the pair ``(u, v)``, ``u < v``.

The scan runs the same bitmask test as :func:`magmoves.graph.is_mag`,
vectorised over blocks of codes: one uint8 row array per node for its
parents, children and spouses, a Warshall closure for ancestors, then a
bi-directed reachability sweep for each non-adjacent pair.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "USING_NUMBA",
    "enumerate_mag_codes",
    "pair_list",
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


def _is_mag_block(n: int, codes: np.ndarray) -> np.ndarray:
    zero = np.zeros(codes.shape[0], np.uint8)
    pa = [zero.copy() for _ in range(n)]
    ch = [zero.copy() for _ in range(n)]
    sp = [zero.copy() for _ in range(n)]
    adjacent = {}
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
        adjacent[u, v] = s != 0
    an = [pa[x] | (1 << x) for x in range(n)]
    for k in range(n):
        for x in range(n):
            an[x] |= an[k] & -((an[x] >> k) & 1)
    ok = np.ones(codes.shape[0], bool)
    for x in range(n):
        # a proper ancestor that is also a child (cycle) or a spouse
        ok &= (an[x] & ~np.uint8(1 << x) & (ch[x] | sp[x])) == 0
    head = [ch[x] | sp[x] for x in range(n)]  # arrowhead at the far end
    for (x, y), adj in adjacent.items():
        allowed = (an[x] | an[y]) & ~np.uint8((1 << x) | (1 << y))
        reach = head[x] & allowed
        for _ in range(n - 3):
            reach |= _spread(sp, reach) & allowed
        ok &= adj | ((reach & head[y]) == 0)
    return ok


def enumerate_mag_codes(n: int) -> np.ndarray:
    """Sorted array of every pair-state code that decodes to a MAG."""
    total = 1 << (2 * len(pair_list(n)))
    kept = []
    for start in range(0, total, _CHUNK):
        codes = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        kept.append(codes[_is_mag_block(n, codes)])
    return np.concatenate(kept)
