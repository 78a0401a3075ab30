"""Exhaustive enumeration of small MAGs and the sweeps built on it.

Includes the equivalence-class partition, the table of every MAG that both
sweeps share, the path-family check behind the blanket predicate, the full
theorem verification report, and the counterexample hunt for the
delta-blanket conjecture.  Everything here is desk scale: node counts up
to five.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field
from collections.abc import Iterable, Iterator

import numpy as np

from . import _kernels
from .errors import InputError, _shown
from .graph import (
    _BI,
    _FWD,
    _REV,
    Mag,
    MixedGraph,
    _check_labels,
    _is_mag_rows,
    _pair_edge,
    _pair_shift,
    _put_edge,
    _reach,
    _spread,
    _token,
    require_mags,
)
from .transform import (
    _RANKED_KINDS,
    MoveDescriptor,
    MoveKind,
    _moved_code,
    apply_move,
    blanketed_bidirected_violation,
    blanketed_directed_violation,
    delta,
)

__all__ = [
    "PRACTICAL_MAX_N",
    "graph_from_pair_code",
    "enumerate_mags",
    "ClassPartition",
    "partition_into_classes",
    "check_lemma1",
    "ConjectureReport",
    "CheckOutcome",
    "EquivalenceReport",
    "test_conjecture1",
    "verify_theorems",
]

PRACTICAL_MAX_N = 5


def graph_from_pair_code(
    n: int, code: int, labels: Iterable[str] | None = None
) -> MixedGraph:
    """Decode a base-4 pair-state code (see :mod:`magmoves._kernels`),
    walking the pairs a row ``(u, u + 1), ..., (u, n - 1)`` at a time and
    only up to the code's highest set pair."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise InputError(f"node count must be a non-negative integer, got {_shown(n)}")
    if n > sys.maxsize:
        raise InputError(f"node count must be at most {sys.maxsize}, got {_shown(n)}")
    if type(code) is not int:
        if not isinstance(code, np.integer):
            raise InputError(f"pair code must be an integer, got {_shown(code)}")
        code = int(code)
    if code < 0 or code >> n * (n - 1):
        raise InputError(f"pair code {_shown(code)} is out of range for {n} nodes")
    pa, ch, sp = [0] * n, [0] * n, [0] * n
    rest, u = code, 0
    while rest:
        width = 2 * (n - u - 1)
        row, rest, v = rest & ((1 << width) - 1), rest >> width, u + 1
        while row:
            if s := row & 3:
                a, b = (v, u) if s == _REV else (u, v)
                _put_edge(pa, ch, sp, a, b, s == _BI)
            row >>= 2
            v += 1
        u += 1
    return MixedGraph._trusted(n, _check_labels(n, labels), pa, ch, sp, None)


def _canonical_order(n: int) -> tuple[np.ndarray, ...]:
    # The kernel's codes on n nodes, the permutation sorting them by
    # canonical key, their key rows and the token table.  No token is a
    # prefix of another, so keys compare as their sorted token sequences, a
    # key that runs out first being smaller: that is the order of the key
    # rows, the sorted token ranks shifted up by one and padded with 0.  A
    # key is the node count, then ``tokens[r]`` for each rank r.
    # A uint8 rank, with 255 for an absent edge, fits the 30 tokens of n = 5.
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= PRACTICAL_MAX_N:
        raise InputError(
            f"node count must be between 1 and {PRACTICAL_MAX_N}, got {_shown(n)}"
        )
    codes = _kernels.enumerate_mag_codes(n)
    rows = [
        [_pair_edge(u, v, s).token() for s in (_FWD, _REV, _BI)]
        for u, v in _kernels.pair_list(n)
    ]
    order = sorted(tok for row in rows for tok in row)
    ranks = np.array(
        [[255] + [order.index(tok) for tok in row] for row in rows], np.uint8
    ).reshape(-1, 4)
    m = ranks.shape[0]
    seq = np.empty((codes.shape[0], m), np.uint8)
    for p in range(m):
        seq[:, p] = ranks[p][(codes >> (2 * p)) & 3]
    seq.sort(axis=1)
    seq += 1  # absent edges wrap from 255 to 0
    perm = np.lexsort((codes, *seq.T[::-1]))  # the last key sorts first
    return codes, perm, seq, np.array([""] + [";" + tok for tok in order])


# Codes the checked stream tests, and `enumerate` writes, at a time.
# Blocks of 4,096 raised the peak memory of `enumerate --n 5` by about 2 MB
# and ran no faster.
_BLOCK = 2048


def _checked_rows(n: int, codes: np.ndarray) -> Iterator[tuple[int, list, list, list]]:
    # The node rows of codes, as lists, a _BLOCK at a time with the block's
    # start, each MAG first passing the test behind Mag() on its rows.  At
    # the first that fails, the rows before it are yielded unless none, then
    # that code is decoded and Mag() raises NotAMagError naming the witness.
    for start in range(0, len(codes), _BLOCK):
        block = codes[start : start + _BLOCK]
        rows = [r.T.tolist() for r in _kernels.node_rows(n, block)]
        for k, (pa, ch, sp) in enumerate(zip(*rows)):
            if not _is_mag_rows(pa, ch, sp, [None] * n):
                if k:
                    yield start, *(r[:k] for r in rows)
                Mag(graph_from_pair_code(n, block[k]))
        yield start, *rows


def _mag_blocks(n: int) -> Iterator[tuple[list[str], Iterator[MixedGraph]]]:
    # The MAGs on n nodes in canonical-key order, a checked block at a time
    # (see _checked_rows): their canonical keys, and a generator that builds
    # their graphs from the block's node rows as it is read.
    codes, perm, seq, tokens = _canonical_order(n)
    codes = codes[perm]
    labels = _check_labels(n, None)
    for start, pa, ch, sp in _checked_rows(n, codes):
        keys = np.full(len(pa), str(n))
        for ranks in seq[perm[start : start + len(pa)]].T:
            keys = np.char.add(keys, tokens[ranks])
        keys = keys.tolist()
        yield keys, (MixedGraph._trusted(n, labels, *g) for g in zip(pa, ch, sp, keys))


def enumerate_mags(n: int) -> Iterator[Mag]:
    """All MAGs on ``n`` unlabeled nodes, streamed in canonical-key order.

    Kernel codes are decoded in the checked blocks ``enumerate`` writes:
    numpy builds each block's node rows and keys, and the graphs are built
    as they are read.  Each first passes the test that :class:`Mag` runs,
    on its node rows and independent of the kernel that produced its code;
    the first that fails is decoded, and ``Mag()`` raises
    :class:`NotAMagError` naming the witness.
    """
    for _, graphs in _mag_blocks(n):
        yield from map(Mag._trusted, graphs)


@dataclass(frozen=True)
class ClassPartition:
    """Markov equivalence classes of a MAG collection.

    Classes are numbered by their smallest canonical key; member key tuples
    are sorted.
    """

    class_of: dict[str, int]
    classes: tuple[tuple[str, ...], ...]
    graphs_by_key: dict[str, Mag]

    @property
    def class_count(self) -> int:
        return len(self.classes)


def _signature_ids(pa: np.ndarray, ch: np.ndarray, sp: np.ndarray) -> np.ndarray:
    # One id per graph of the node rows (see _kernels.node_rows), equal
    # exactly when the separation signatures are: the signature kernel's
    # packed bits compared as one opaque value per graph.
    bits = np.ascontiguousarray(_kernels.signature_block(pa, ch, sp))
    packed = bits.view(np.dtype((np.void, bits.shape[1]))).ravel()
    return np.unique(packed, return_inverse=True)[1]


def partition_into_classes(mags: Iterable[Mag]) -> ClassPartition:
    """Group MAGs by separation signature (definitional equivalence)."""
    if not isinstance(mags, Iterable):
        raise InputError(f"expected an iterable of Mags, got {_shown(mags)}")
    by_key: dict[str, Mag] = {}
    n = 0
    labels = None
    for m in mags:
        require_mags(m)
        if labels is None:
            n, labels = m.n, m.labels
        elif m.n != n or m.labels != labels:
            raise InputError("all graphs must share the same node set")
        key = m.canonical_key()
        if key in by_key:
            raise InputError(f"duplicate graph {key}")
        by_key[key] = m
    dtype = np.min_scalar_type((1 << n) - 1)  # uint8 up to 8 nodes
    graphs = [m.graph for m in by_key.values()]
    rows = np.array([(g._pa, g._ch, g._sp) for g in graphs], dtype)
    rows = rows.reshape(len(graphs), 3, n).transpose(1, 2, 0).copy()
    groups: dict[int, list[str]] = {}
    for key, sid in zip(by_key, _signature_ids(*rows).tolist()):
        groups.setdefault(sid, []).append(key)
    classes = tuple(
        tuple(sorted(g)) for g in sorted(groups.values(), key=lambda g: min(g))
    )
    class_of = {k: i for i, keys in enumerate(classes) for k in keys}
    return ClassPartition(class_of, classes, by_key)


class _SweepTable:
    """Every MAG on ``n`` nodes by canonical index, its place in
    canonical-key order: its pair code, node rows (each of shape (n, MAG
    count)) and class.  Classes are numbered by their smallest canonical
    index, as in :class:`ClassPartition`; ``members`` lists each class's
    indices, and ``by_code`` all indices in pair-code order.  ``lookup``
    finds pair codes among the kernel's sorted codes.  Building the table
    runs the test behind ``Mag()`` on every MAG's node rows, by the loop
    behind :func:`enumerate_mags`, so no sweep holds an unchecked table;
    the first MAG that fails is decoded, and ``Mag()`` raises
    :class:`NotAMagError` naming the witness.
    """

    def __init__(self, n: int) -> None:
        codes, perm, _, _ = _canonical_order(n)
        self.n, self.codes = n, codes[perm]
        for _ in _checked_rows(n, self.codes):
            pass
        self.rows = _kernels.node_rows(n, self.codes)
        _, first, inverse = np.unique(
            _signature_ids(*self.rows), return_index=True, return_inverse=True
        )
        rank = np.argsort(np.argsort(first)).astype(np.int32)  # by first member
        self.class_id = ids = rank[inverse]
        by_class = np.argsort(ids, kind="stable")
        self.members = np.split(by_class, np.cumsum(np.bincount(ids))[:-1])
        self._sorted, self.by_code = codes, np.argsort(perm)

    def lookup(self, codes: np.ndarray) -> np.ndarray:
        """The canonical index of each pair code, -1 for one not a MAG."""
        at = np.minimum(np.searchsorted(self._sorted, codes), len(self._sorted) - 1)
        return np.where(self._sorted[at] == codes, self.by_code[at], -1)

    def same_class(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Whether each lookup ``j`` (-1 for none) is in the class of ``i``."""
        return (j >= 0) & (self.class_id[i] == self.class_id[j])

    def moves(self, bits) -> Iterator[tuple[MoveDescriptor, np.ndarray, np.ndarray]]:
        """Per move in ``legal_moves`` order: the move, the MAGs whose move
        kernel ``bits`` license it, in pair-code order, and the lookup of
        their moved codes.  A move patches one pair of a fixed state, so it
        adds one constant to every code and keeps them sorted."""
        for kind, licensed in zip(_RANKED_KINDS, bits):
            licensed = licensed[self.by_code]
            for x, y in itertools.permutations(range(self.n), 2):
                mv = MoveDescriptor(kind, x, y)
                at = np.flatnonzero(licensed >> np.uint64(x * self.n + y) & 1)
                moved = _moved_code(self.n, self._sorted[at], mv)
                yield mv, self.by_code[at], self.lookup(moved)


# Pairs _group_pairs yields at a time.  Chunks of 2^16 raised the peak
# memory of the sweeps at n = 4 by 1.6 MB and saved 0.5 s of 3.7 at n = 5.
_PAIR_CHUNK = 1 << 14


def _group_pairs(group_of: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    # Every pair of indices i < j with group_of[i] == group_of[j], as index
    # arrays of at most _PAIR_CHUNK pairs: by group, then by i, then by j.
    # In the indices sorted by group, position p starts the pairs from p to
    # each later position of its group; a chunk repeats every position it
    # covers by its number of pairs there.
    order = np.argsort(group_of, kind="stable").astype(np.int32)
    sizes = np.bincount(group_of)
    count = np.repeat(np.cumsum(sizes), sizes) - np.arange(1, len(order) + 1)
    stop = np.cumsum(count)
    for lo in range(0, int(stop[-1]) if len(stop) else 0, _PAIR_CHUNK):
        hi = min(lo + _PAIR_CHUNK, int(stop[-1]))
        first, last = np.searchsorted(stop, (lo, hi - 1), "right")
        rows = slice(first, last + 1)
        start = stop[rows] - count[rows]
        counts = np.minimum(stop[rows], hi) - np.maximum(start, lo)
        i = np.repeat(np.arange(first, last + 1), counts)
        j = i + np.arange(lo + 1, hi + 1) - np.repeat(start, counts)
        yield order[i], order[j]


def _key(n: int, code: int) -> str:
    # A violation's text names a MAG by the key decoded from its code.
    return graph_from_pair_code(n, code).canonical_key()


def _lemma1_holds(g: MixedGraph, x: int, y: int) -> bool:
    # Lemma 1 for the edge between x and y, over the node sequences
    # (a_1, ..., a_k) such that (a_1, ..., a_k, x) is a path whose internal
    # nodes are all colliders on it: a_k <-> x, consecutive chain links
    # bi-directed, and a_1 either the chain end or a parent of a_2.  A
    # sequence that breaks the lemma holds no spouse of y, so it runs
    # inside S, the nodes other than x and y that are not spouses of y.
    # The chain nodes are then the nodes reached from sp(x) ∩ S along
    # spouse edges inside S, and a_1 may also be a parent in S of one of
    # them; the lemma fails iff one of these nodes is not a parent of y.
    pa, sp = g._pa, g._sp
    inside = ~(sp[y] | (1 << x) | (1 << y))
    chain = _reach(sp, sp[x], inside)
    return not (chain | _spread(pa, chain) & inside) & ~pa[y]


def _lemma1_rows(pa: np.ndarray, sp: np.ndarray, x: int, y: int) -> np.ndarray:
    # _lemma1_holds(g, x, y) for every graph of the node rows at once.
    inside = ~(sp[y] | (1 << x) | (1 << y))
    chain = _kernels.chain_reach(sp, sp[x], inside)
    return (chain | _kernels._spread(pa, chain) & inside) & ~pa[y] == 0


def check_lemma1(m: Mag, x: int, y: int) -> bool:
    """For a blanketed edge between ``x`` and ``y``: does every path into
    ``x`` whose internal nodes are all colliders, ending in a spouse of
    ``x`` and avoiding ``y``, contain a spouse of ``y`` or consist entirely
    of parents of ``y``?"""
    require_mags(m)
    g = m.graph
    if g.is_parent(x, y):
        reason = blanketed_directed_violation(m, x, y)
    elif g.is_spouse(x, y):
        reason = blanketed_bidirected_violation(m, x, y)
    else:
        raise InputError("x and y must be joined by a directed or bi-directed edge")
    if reason is not None:
        raise InputError(f"edge is not blanketed: {reason}")
    return _lemma1_holds(g, x, y)


@dataclass(frozen=True)
class ConjectureReport:
    """Outcome of the delta-blanket sweep at one node count."""

    n: int
    mag_count: int
    class_count: int
    classes_examined: int
    pairs_examined: int
    counterexamples: tuple[tuple[str, str, tuple[str, ...]], ...]
    closure_gaps: tuple[tuple[int, int], ...]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "mag_count": self.mag_count,
            "class_count": self.class_count,
            "classes_examined": self.classes_examined,
            "pairs_examined": self.pairs_examined,
            "counterexamples": [
                {"first": a, "second": b, "delta": list(d)}
                for a, b, d in self.counterexamples
            ],
            "closure_gaps": [
                {"class_id": cid, "unreachable": cnt}
                for cid, cnt in self.closure_gaps
            ],
            "checks": {},
        }


@dataclass(frozen=True)
class CheckOutcome:
    cases: int
    violations: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "cases": self.cases,
            "violations": list(self.violations),
            "passed": self.passed,
        }


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of the exhaustive theorem verification at one node count."""

    n: int
    mag_count: int
    class_count: int
    checks: dict[str, CheckOutcome] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "mag_count": self.mag_count,
            "class_count": self.class_count,
            "counterexamples": [],
            "closure_gaps": [],
            "checks": {k: v.to_json_dict() for k, v in self.checks.items()},
        }


def test_conjecture1(n: int) -> ConjectureReport:
    """Sweep every Markov-equivalent MAG pair on ``n`` nodes for a delta edge
    that is blanketed, and every class for members the move closure misses.

    Every MAG of the sweep table (see ``_SweepTable``) goes through the
    test behind ``Mag()`` on its node rows.  The move kernel
    (``_kernels.move_block``) gives every MAG's blanketed edges and
    licensed moves at once, and a move's result is found by patching the
    moved pair in the pair code and looking the code up, so no graph is
    built.  The closure starts at each class's smallest key and follows the
    moves whose result is in the class; a licensed move that leaves its
    class is a ``thm3_sound`` violation of ``verify_theorems``.  The pairs
    of each class are tested in chunks across all classes, as one array
    expression on pair codes and blanket bits per chunk.  Counterexamples
    are reported, never asserted away.
    """
    table = _SweepTable(n)
    # Per MAG: both bits of each pair position where the edge is blanketed,
    # that is directed and blanketed or bi-directed and blanketed against an
    # endpoint; and the moves that reach a MAG of the class, as index pairs.
    codes, class_id = table.codes, table.class_id
    blanketed = np.zeros_like(codes)
    src, dst = [np.empty(0, int)], [np.empty(0, int)]  # one node has no pair
    for mv, i, j in table.moves(_kernels.move_block(*table.rows)):
        if mv.kind is not MoveKind.REVERSE:
            blanketed[i] |= 3 << _pair_shift(n, min(mv.x, mv.y), max(mv.x, mv.y))
        inside = table.same_class(i, j)
        src.append(i[inside])
        dst.append(j[inside])
    src, dst = np.concatenate(src), np.concatenate(dst)
    reached = np.zeros(len(codes), bool)
    reached[[members[0] for members in table.members]] = True
    while (new := dst[reached[src] & ~reached[dst]]).size:
        reached[new] = True
    missed = np.bincount(class_id[~reached], minlength=len(table.members))
    counterexamples = []
    for i, j in _group_pairs(class_id):
        # the codes differ only where neither member has a blanketed edge
        k = np.flatnonzero((codes[i] ^ codes[j]) & (blanketed[i] | blanketed[j]) == 0)
        for ci, cj in zip(codes[i[k]].tolist(), codes[j[k]].tolist()):
            a, b = (Mag._trusted(graph_from_pair_code(n, c)) for c in (ci, cj))
            d = tuple(sorted(e.token() for e in delta(a, b)))
            counterexamples.append((a.canonical_key(), b.canonical_key(), d))
    return ConjectureReport(
        n=n,
        mag_count=len(codes),
        class_count=len(table.members),
        classes_examined=len(table.members),
        pairs_examined=sum(len(m) * (len(m) - 1) // 2 for m in table.members),
        counterexamples=tuple(counterexamples),
        closure_gaps=tuple((c, k) for c, k in enumerate(missed.tolist()) if k),
    )


def _local_key_ids(pa: np.ndarray, ch: np.ndarray, sp: np.ndarray) -> np.ndarray:
    # One id per graph of the node rows, equal exactly when the graphs'
    # equivalence._local_key values are: the adjacency rows beside one bit
    # per (a, z, b), a < b, that is an unshielded collider, compared as one
    # opaque byte row per graph.
    n, count = pa.shape
    adj, into = pa | ch | sp, pa | sp
    triples = [
        (a, z, b)
        for z in range(n)
        for a in range(n)
        for b in range(a + 1, n)
        if z not in (a, b)
    ]
    # triple t is bit 7 - t % 8 of byte n + t // 8, as np.packbits sets it
    rows = np.zeros((count, n + -(-len(triples) // 8)), np.uint8)
    rows[:, :n] = adj.T
    for t, (a, z, b) in enumerate(triples):
        uc = (into[z] >> a) & (into[z] >> b) & ~(adj[a] >> b) & 1
        rows[:, n + t // 8] |= uc << (7 - t % 8)
    packed = rows.view(np.dtype((np.void, rows.shape[1]))).ravel()
    return np.unique(packed, return_inverse=True)[1]


def _triple_masks(pa: np.ndarray, sp: np.ndarray) -> tuple:
    """Two uint64 masks per graph of the parent and spouse rows, one bit per
    ordered triple ``(q, b, y)`` of distinct nodes, and those triples as the
    rows of an array in bit order: 60 for five nodes (more than 64 is an
    error).

    Bit t of ``f[i]`` is set when ``q -> y`` and ``b`` has an arrowhead at
    ``q`` in graph i; bit t of ``c[i]`` when ``b`` is a collider on ``(q, b,
    y)`` there.  These are the only triples
    :func:`magmoves.equivalence._discriminating_witness` searches from, so
    it returns None for graphs i and j of one skeleton whenever ``f[i] &
    f[j] & (c[i] ^ c[j])`` is 0; otherwise the set bits name the triples
    whose chains decide the pair, which ``_pair_test`` follows.  Such a bit
    marks a triangle of the shared skeleton: ``f`` makes q adjacent to y
    and to b, and a collider in either graph makes b adjacent to y.
    """
    triples = itertools.permutations(range(pa.shape[0]), 3)
    triples = np.array(list(triples), np.intp).reshape(-1, 3)
    if len(triples) > 64:
        raise ValueError(f"{len(triples)} node triples exceed one uint64")
    head = pa | sp
    f, c = np.zeros((2, pa.shape[1]), np.uint64)
    for t, (q, b, y) in enumerate(triples.tolist()):
        f[(pa[y] >> q) & (head[q] >> b) & 1 != 0] |= np.uint64(1 << t)
        c[(head[b] >> q) & (head[b] >> y) & 1 != 0] |= np.uint64(1 << t)
    return f, c, triples


def _pair_test(pa: np.ndarray, ch: np.ndarray, sp: np.ndarray):
    # The graphical test on pairs of graphs of the node rows that share a
    # local key, as a function of index arrays a, b returning the verdict
    # on each pair (a[k], b[k]).  A pair is equivalent unless one of its
    # candidate triples (q, b, y) (see _triple_masks) opens the chain
    # _discriminating_witness looks for: from q along edges bi-directed in
    # both graphs, through parents of y in both, to a node with an
    # arrowhead in both from a non-neighbour of y.  All (pair, candidate
    # triple) items of a call run that search at once on uint8 node masks,
    # which hold the sweeps' n <= 5.  Every input is a conjunction over the
    # two graphs, so the verdict is symmetric.
    f, c, triples = _triple_masks(pa, sp)
    node = np.uint8(1) << np.arange(pa.shape[0], dtype=np.uint8)
    far = ~(pa | ch | sp | node[:, None])  # per node y and graph
    head = (pa | sp).T.copy()  # one row per graph

    def verdicts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        cand = f[a] & f[b]
        cand &= c[a] ^ c[b]
        out = np.ones(len(a), bool)
        k = np.flatnonzero(cand)
        if not k.size:  # no pair has a triple to search
            return out
        # one item per set bit, peeled off the candidates lowest first
        cand, items, lows = cand[k], [], []
        while k.size:
            low = cand & -cand
            items.append(k)
            lows.append(low)
            cand ^= low
            live = cand != 0
            k, cand = k[live], cand[live]
        t = np.bitwise_count(np.concatenate(lows) - np.uint64(1))
        k, (q, _, y) = np.concatenate(items), triples[t].T
        x, z = a[k], b[k]
        hits = np.packbits(
            head[x] & head[z] & far[y, x][:, None] != 0, axis=1, bitorder="little"
        )[:, 0]
        reach = _kernels.chain_reach(sp[:, x] & sp[:, z], node[q], pa[y, x] & pa[y, z])
        out[k[reach & hits != 0]] = False
        return out

    return verdicts


def _oracle_violations(table: _SweepTable) -> list[str]:
    # Where the graphical test disagrees with the signature classes, over
    # every ordered pair, in pair order.  The test is False across local
    # keys, so it runs only inside each key's bucket, where the keys are
    # already equal; across buckets, exactly the pairs in one class
    # disagree.  Inside a bucket both the test and the classes are
    # symmetric, and a graph agrees with itself, so each unordered pair is
    # decided once and a disagreement is kept in both orders.
    class_id = table.class_id
    bucket_of = _local_key_ids(*table.rows)
    verdicts = _pair_test(*table.rows)
    found = []
    for i, j in _group_pairs(bucket_of):
        graphical = verdicts(i, j)
        brute = class_id[i] == class_id[j]
        k = np.flatnonzero(graphical != brute)
        i, j, graphical, brute = (x[k].tolist() for x in (i, j, graphical, brute))
        found.extend(zip(i, j, graphical, brute))
        found.extend(zip(j, i, graphical, brute))
    first = bucket_of[[members[0] for members in table.members]]
    for c in np.unique(class_id[bucket_of != first[class_id]]).tolist():
        members = table.members[c]  # a class that spans buckets
        i, j = np.nonzero(bucket_of[members, None] != bucket_of[members])
        found.extend((a, b, False, True) for a, b in zip(*members[[i, j]].tolist()))
    found.sort()
    n, codes = table.n, table.codes
    return [
        f"{_key(n, codes[i])} vs {_key(n, codes[j])}: "
        f"graphical={graphical} brute={brute}"
        for i, j, graphical, brute in found
    ]


def verify_theorems(n: int) -> EquivalenceReport:
    """Exhaustively check the package's structural claims on ``n`` nodes.

    Covers: soundness of the two blanket-licensed replacements, necessity of
    the blanket predicates for mark flips between equivalent MAGs, the
    screened reversal characterization, both path lemmas behind them, and
    agreement of the graphical equivalence test with the brute-force oracle
    on every ordered pair.  Every MAG of the sweep table (see
    ``_SweepTable``) goes through the test behind ``Mag()`` on its node
    rows, and the move kernel (``_kernels.move_block``) gives every MAG's
    licensed and screened moves at once.  The MAG across a move or a mark
    flip is found by patching the pair in the pair code and looking the code
    up, so each check is an array comparison of class ids; only a licensed
    move's result missing from the table or in another class goes through
    ``apply_move``, for the violation text.  The graphical test runs on the
    unordered pairs inside each (skeleton, unshielded-collider) bucket,
    streamed in chunks across all buckets: the candidate-triple masks of
    ``_triple_masks``, computed once for every MAG, settle every pair with
    no triple to search as equivalent, and the chains of the other pairs'
    candidate triples are searched at once for every (pair, triple) item of
    a chunk.  The verdict on each pair is the one the discriminating-path
    search alone would give, which the tests check on every in-bucket pair
    at n <= 4 and, in the slow run, on every candidate pair at n = 5.
    """
    table = _SweepTable(n)
    checks = _move_checks(table)
    checks["thm2_vs_oracle"] = CheckOutcome(
        len(table.codes) ** 2, tuple(_oracle_violations(table))
    )
    return EquivalenceReport(
        n=n, mag_count=len(table.codes), class_count=len(table.members), checks=checks
    )


def _move_checks(table: _SweepTable) -> dict[str, CheckOutcome]:
    # The per-MAG checks of verify_theorems on the move kernel's bits.  A
    # violation is kept as (MAG, text) in move and pair order, so a stable
    # sort by MAG gives the order of a loop over the MAGs.
    n, codes, by_code = table.n, table.codes, table.by_code
    pa, _, sp = table.rows
    bits = _kernels.move_block(*table.rows)
    licensed, screened = bits[0] | bits[1], bits[2]
    names = ("thm3_sound", "thm3_necessary", "thm4_iff", "lemma1", "lemma2")
    cases = dict.fromkeys(names, 0)
    found: dict[str, list] = {name: [] for name in names}

    def report(name: str, i: np.ndarray, text: str, named=None) -> None:
        # named: the MAGs the texts name, where not the MAGs i themselves
        named = i if named is None else named
        found[name].extend(
            (a, f"{_key(n, codes[k])}: {text}") for a, k in zip(i.tolist(), named)
        )

    for mv, i, j in table.moves(bits[:2]):
        cases["thm3_sound"] += len(i)
        for a in i[~table.same_class(i, j)].tolist():
            # the result is no MAG or in another class: apply_move says which
            m = Mag(graph_from_pair_code(n, codes[a]))
            try:
                why = f" -> {apply_move(m, mv).canonical_key()}: not equivalent"
            except InputError as exc:
                why = f": {exc}"
            found["thm3_sound"].append((a, f"{m.canonical_key()} {mv}{why}"))
    cases["lemma1"] = int(np.bitwise_count(licensed).sum())
    for p, (a, b) in enumerate(_kernels.pair_list(n)):
        for x, y in ((a, b), (b, a)):
            on = licensed >> np.uint64(x * n + y) & 1 != 0
            text = f"collider entry paths into {x} escape the blanket of {y}"
            report("lemma1", np.flatnonzero(on & ~_lemma1_rows(pa, sp, x, y)), text)
        state = codes[by_code] >> 2 * p & 3
        for u, v, mark in ((a, b, _FWD), (b, a, _REV)):
            # in pair-code order: a flip adds one constant to these codes,
            # so the lookups are sorted
            i = by_code[np.flatnonzero(state == mark)]
            bit = np.uint64(u * n + v)
            blanketed = licensed[i] >> bit & 1 != 0
            edge_screened = screened[i] >> bit & 1 != 0
            tok = _token(str(u), str(v), False)

            # u <-> v sets both bits of the pair; v -> u swaps 1 and 2
            j = table.lookup(codes[i] | 3 << 2 * p)
            flips = table.same_class(i, j)
            cases["thm3_necessary"] += int(flips.sum())
            text = f"{tok} flips but is not blanketed"
            report("thm3_necessary", i[flips & ~blanketed], text)
            back = flips & (licensed[j] >> bit & 1 == 0)  # bi-to-dir, u the tail
            text = f"{u}<->{v} flips back but is not blanketed against {u}"
            report("thm3_necessary", i[back], text, j[back])

            cases["thm4_iff"] += len(i)
            same = table.same_class(i, table.lookup(codes[i] ^ 3 << 2 * p))
            for s in (False, True):
                text = f"reversal of {tok} equivalent={s} screened={not s}"
                report("thm4_iff", i[(same == s) & (edge_screened != s)], text)

            cases["lemma2"] += int(edge_screened.sum())
            text = f"{tok} screened but not blanketed"
            report("lemma2", i[edge_screened & ~blanketed], text)

    for name in names:
        found[name].sort(key=lambda item: item[0])  # stable: by MAG only
    return {k: CheckOutcome(cases[k], tuple(t for _, t in found[k])) for k in names}
