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
    _pair_edge,
    _pair_shift,
    _put_edge,
    _token,
    iter_bits,
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
    toks, rest, u = [], code, 0
    while rest:
        width = 2 * (n - u - 1)
        row, rest, v = rest & ((1 << width) - 1), rest >> width, u + 1
        while row:
            if s := row & 3:
                a, b = (v, u) if s == _REV else (u, v)
                _put_edge(pa, ch, sp, a, b, s == _BI)
                toks.append(_token(str(a), str(b), s == _BI))
            row >>= 2
            v += 1
        u += 1
    toks.sort()
    key = ";".join([str(n), *toks])
    return MixedGraph._trusted(n, _check_labels(n, labels), pa, ch, sp, key)


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


# Codes enumerate_mags decodes at a time.  Blocks of 4,096 raised the peak
# memory of `enumerate --n 5` by about 2 MB and ran no faster.
_BLOCK = 2048


def _checked_mags(
    n: int, codes: np.ndarray, perm: np.ndarray, seq: np.ndarray, tokens: np.ndarray
) -> Iterator[Mag]:
    # The graphs of codes[perm] given _canonical_order(n), each checked by
    # Mag(): numpy builds a block's node rows and keys, and the graphs are
    # streamed one at a time.
    labels = _check_labels(n, None)
    for start in range(0, perm.shape[0], _BLOCK):
        block = perm[start : start + _BLOCK]
        rows = [r.T.tolist() for r in _kernels.node_rows(n, codes[block])]
        keys = np.full(block.shape[0], str(n))
        for ranks in seq[block].T:
            keys = np.char.add(keys, tokens[ranks])
        for key, pa, ch, sp in zip(keys.tolist(), *rows):
            yield Mag(MixedGraph._trusted(n, labels, pa, ch, sp, key))


def enumerate_mags(n: int) -> Iterator[Mag]:
    """All MAGs on ``n`` unlabeled nodes, streamed in canonical-key order.

    Kernel codes are decoded in blocks: numpy builds each block's node
    rows and canonical keys, and the graphs are streamed one at a time.
    Each emitted graph is still checked by :class:`Mag`, independent of
    the kernel that produced its code; one that fails raises
    :class:`NotAMagError` naming the witness.
    """
    yield from _checked_mags(n, *_canonical_order(n))


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
    indices.  ``lookup`` finds pair codes among the kernel's sorted codes.
    ``mags`` streams the MAGs in canonical order, once, as
    :func:`enumerate_mags` does: each is checked by ``Mag()`` and dropped.
    """

    def __init__(self, n: int) -> None:
        codes, perm, seq, tokens = _canonical_order(n)
        self.n, self.codes = n, codes[perm]
        self.rows = _kernels.node_rows(n, self.codes)
        _, first, inverse = np.unique(
            _signature_ids(*self.rows), return_index=True, return_inverse=True
        )
        rank = np.argsort(np.argsort(first)).astype(np.int32)  # by first member
        self.class_id = ids = rank[inverse]
        by_class = np.argsort(ids, kind="stable")
        self.members = np.split(by_class, np.cumsum(np.bincount(ids))[:-1])
        self._sorted, self._place = codes, np.argsort(perm)
        self.mags = _checked_mags(n, codes, perm, seq, tokens)

    def lookup(self, codes: np.ndarray) -> np.ndarray:
        """The canonical index of each pair code, -1 for one not a MAG."""
        at = np.minimum(np.searchsorted(self._sorted, codes), len(self._sorted) - 1)
        return np.where(self._sorted[at] == codes, self._place[at], -1)

    def same_class(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Whether each lookup ``j`` (-1 for none) is in the class of ``i``."""
        return (j >= 0) & (self.class_id[i] == self.class_id[j])

    def moves(self, bits) -> Iterator[tuple[MoveDescriptor, np.ndarray, np.ndarray]]:
        """Per move in ``legal_moves`` order: the move, the MAGs whose move
        kernel ``bits`` license it, and the lookup of their moved codes."""
        for kind, licensed in zip(_RANKED_KINDS, bits):
            for x, y in itertools.permutations(range(self.n), 2):
                mv = MoveDescriptor(kind, x, y)
                i = np.flatnonzero(licensed >> np.uint64(x * self.n + y) & 1)
                yield mv, i, self.lookup(_moved_code(self.n, self.codes[i], mv))


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
    inside = ~(g._sp[y] | (1 << x) | (1 << y))
    chain = frontier = g._sp[x] & inside
    while frontier:
        step = 0
        for a in iter_bits(frontier):
            step |= g._sp[a]
        frontier = step & inside & ~chain
        chain |= frontier
    entered = chain
    for a in iter_bits(chain):
        entered |= g._pa[a] & inside
    return not entered & ~g._pa[y]


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

    Every MAG of the sweep table (see ``_SweepTable``) is streamed through
    ``Mag()``.  The move kernel (``_kernels.move_block``) gives every MAG's
    blanketed edges and licensed moves at once, and a move's result is
    found by patching the moved pair in the pair code and looking the code
    up, so no graph is built.  The closure starts at each class's smallest
    key and follows the moves whose result is in the class; a licensed move
    that leaves its class is a ``thm3_sound`` violation of
    ``verify_theorems``.  Counterexamples are reported, never asserted away.
    """
    table = _SweepTable(n)
    for _ in table.mags:  # the independent Mag() check of every MAG
        pass
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
    pairs_examined = 0
    for members in table.members:
        cs = table.codes[members].tolist()
        bs = blanketed[members].tolist()
        pairs_examined += len(cs) * (len(cs) - 1) // 2  # codes are distinct
        for (ci, bi), (cj, bj) in itertools.combinations(zip(cs, bs), 2):
            if not (ci ^ cj) & (bi | bj):  # the codes differ at the delta edges
                a, b = (Mag._trusted(graph_from_pair_code(n, c)) for c in (ci, cj))
                d = tuple(sorted(e.token() for e in delta(a, b)))
                counterexamples.append((a.canonical_key(), b.canonical_key(), d))
    return ConjectureReport(
        n=n,
        mag_count=len(codes),
        class_count=len(table.members),
        classes_examined=len(table.members),
        pairs_examined=pairs_examined,
        counterexamples=tuple(counterexamples),
        closure_gaps=tuple((c, k) for c, k in enumerate(missed.tolist()) if k),
    )


# Member pairs _bucket_verdicts decides at a time, as block rows times the
# bucket size: the largest n = 5 bucket holds 4,231 graphs, whose full
# uint64 candidate matrix would take 143 MB.
_BLOCK_PAIRS = 1 << 14


def _local_key_ids(pa: np.ndarray, ch: np.ndarray, sp: np.ndarray) -> np.ndarray:
    # One id per graph of the node rows, equal exactly when the graphs'
    # equivalence._local_key values are: the adjacency rows beside one bit
    # per (a, z, b), a < b, that is an unshielded collider, compared as one
    # opaque byte row per graph.
    n = pa.shape[0]
    adj, pa, sp = (pa | ch | sp).T, pa.T, sp.T
    into = pa | sp
    a, z, b = np.array(
        [
            (a, z, b)
            for z in range(n)
            for a in range(n)
            for b in range(a + 1, n)
            if z not in (a, b)
        ],
        dtype=np.uint8,
    ).reshape(-1, 3).T
    uc = (into[:, z] >> a) & (into[:, z] >> b) & ~(adj[:, a] >> b) & 1
    rows = np.ascontiguousarray(np.hstack([adj, np.packbits(uc, axis=1)]))
    packed = rows.view(np.dtype((np.void, rows.shape[1]))).ravel()
    return np.unique(packed, return_inverse=True)[1]


def _triple_masks(
    pa: np.ndarray, ch: np.ndarray, sp: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two uint64 masks per graph of the node rows over the shared ordered
    triangle triples, and those triples.

    All the graphs must share one skeleton, so they share the ordered
    triples ``(q, b, y)`` of pairwise adjacent nodes: at most 60 for five
    nodes, one bit each (more than 64 is an error), returned as the rows of
    an int64 array in bit order.  Bit t of ``f[i]`` is set when ``q -> y``
    and ``b`` has an arrowhead at ``q`` in graph i; bit t of ``c[i]`` when
    ``b`` is a collider on ``(q, b, y)`` there.  These are the only triples
    :func:`magmoves.equivalence._discriminating_witness` searches from, so
    it returns None for graphs i and j whenever ``f[i] & f[j] & (c[i] ^
    c[j])`` is 0; otherwise the set bits name the triples whose chains
    decide the pair, which the block search of ``_bucket_verdicts`` follows.
    """
    adj = (pa[:, 0] | ch[:, 0] | sp[:, 0]).tolist()
    triples = np.array(
        [
            (q, b, y)
            for y in range(len(adj))
            for q in iter_bits(adj[y])
            for b in iter_bits(adj[q] & adj[y])
        ],
        dtype=np.int64,
    ).reshape(-1, 3)
    if len(triples) > 64:
        raise ValueError(f"{len(triples)} triangle triples exceed one uint64")
    q, b, y = triples.T
    pa = pa.T.astype(np.int64)
    head = pa | sp.T
    f = (pa[:, y] >> q) & (head[:, q] >> b) & 1
    c = (head[:, b] >> q) & (head[:, b] >> y) & 1
    weight = np.uint64(1) << np.arange(len(triples), dtype=np.uint64)
    return (
        (f.astype(np.uint64) * weight).sum(axis=1, dtype=np.uint64),
        (c.astype(np.uint64) * weight).sum(axis=1, dtype=np.uint64),
        triples,
    )


def _bucket_verdicts(
    pa: np.ndarray, ch: np.ndarray, sp: np.ndarray
) -> Iterator[np.ndarray]:
    # The graphical test inside one local-key bucket, given its members'
    # node rows, as bool blocks of consecutive member rows over all members.
    # A pair is equivalent unless one of its candidate triples (q, b, y)
    # (see _triple_masks) opens the chain _discriminating_witness looks
    # for: from q along edges bi-directed in both graphs, through parents of
    # y in both, to a node with an arrowhead in both from a non-neighbour of
    # y.  All (pair, triple) items of a block run that search at once on
    # uint8 node masks, which hold the sweeps' n <= 5.
    n, count = pa.shape
    f, c, triples = _triple_masks(pa, ch, sp)
    q, y = triples[:, 0], triples[:, 2]
    node = np.uint8(1) << np.arange(n, dtype=np.uint8)
    far = ~((pa | ch | sp)[:, 0] | node)  # per y
    pa, sp = pa.T.copy(), sp.T.copy()  # one row per member
    head = pa | sp
    size = max(1, _BLOCK_PAIRS // count)
    for start in range(0, count, size):
        cand = f[start : start + size, None] & f & (c[start : start + size, None] ^ c)
        block = np.ones(cand.shape, dtype=bool)
        pi, pj = np.nonzero(cand)
        if pi.size:
            bits = cand[pi, pj].astype("<u8").view(np.uint8).reshape(-1, 8)
            item, t = np.nonzero(np.unpackbits(bits, axis=1, bitorder="little"))
            a, b = pi[item] + start, pj[item]
            ti, ty = q[t], y[t]
            bi = np.ascontiguousarray((sp[a] & sp[b]).T)  # one row per node
            hits = np.packbits(
                (head[a] & head[b] & far[ty, None]) != 0, axis=1, bitorder="little"
            )[:, 0]
            reach = _kernels.chain_reach(bi, node[ti], pa[a, ty] & pa[b, ty])
            found = item[(reach & hits) != 0]
            block[pi[found], pj[found]] = False
        yield block


def _oracle_violations(table: _SweepTable) -> list[str]:
    # Where the graphical test disagrees with the signature classes, over
    # every ordered pair, in pair order.  The test is False across local
    # keys, so it runs only inside each key's bucket, where the keys are
    # already equal; across buckets, exactly the pairs in one class
    # disagree.
    pa, ch, sp = table.rows
    class_id = table.class_id
    bucket_of = _local_key_ids(pa, ch, sp)
    found = []
    by_bucket = np.argsort(bucket_of, kind="stable")
    for members in np.split(by_bucket, np.cumsum(np.bincount(bucket_of))[:-1]):
        cls = class_id[members]
        start = 0
        for block in _bucket_verdicts(pa[:, members], ch[:, members], sp[:, members]):
            rows = members[start : start + len(block)]
            brute = cls[start : start + len(block), None] == cls
            r, j = np.nonzero(block != brute)
            found.extend(
                zip(
                    rows[r].tolist(),
                    members[j].tolist(),
                    block[r, j].tolist(),
                    brute[r, j].tolist(),
                )
            )
            start += len(block)
    bucket_of = bucket_of.tolist()
    for members in table.members:
        members = members.tolist()
        if len({bucket_of[i] for i in members}) > 1:
            found.extend(
                (i, j, False, True)
                for i in members
                for j in members
                if bucket_of[i] != bucket_of[j]
            )
    found.sort()
    n, codes = table.n, table.codes.tolist()
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
    ``_SweepTable``) is streamed through ``Mag()``, and the move kernel
    (``_kernels.move_block``) gives every MAG's licensed and screened moves
    at once.  The MAG across a move or a mark flip is found by patching the
    pair in the pair code and looking the code up, so each check is an
    array comparison of class ids; only a licensed move's result missing
    from the table or in another class goes through ``apply_move``, for the
    violation text.  Inside each (skeleton,
    unshielded-collider) bucket, the shared candidate-triple masks of
    ``_triple_masks`` settle every pair with no triple to search as
    equivalent, and the chains of the other pairs' candidate triples are
    searched a block of rows at a time, vectorised over the pairs; the
    verdict on each pair is the one the discriminating-path search alone
    would give, which the tests check on every in-bucket pair at n <= 4
    and, in the slow run, on every candidate pair at n = 5.
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
    n, codes = table.n, table.codes
    for _ in table.mags:  # the independent Mag() check of every MAG
        pass
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
        state = codes >> 2 * p & 3
        for u, v, mark in ((a, b, _FWD), (b, a, _REV)):
            i = np.flatnonzero(state == mark)
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
