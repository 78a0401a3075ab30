"""Exhaustive enumeration of small MAGs and the sweeps built on it.

Includes the equivalence-class partition, the path-family check behind the
blanket predicate, the full theorem verification report, and the
counterexample hunt for the delta-blanket conjecture.  Everything here is
desk scale: node counts up to five.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from collections.abc import Iterable, Iterator

import numpy as np

from . import _kernels
from .errors import InputError
from .graph import (
    _BI,
    _REV,
    Mag,
    MixedGraph,
    _check_labels,
    _pair_shift,
    _token,
    iter_bits,
    require_mags,
)
from .equivalence import _local_key_ids, _triple_masks
from .transform import (
    MoveKind,
    _failure,
    _moved_code,
    apply_move,
    blanketed_bidirected_violation,
    blanketed_directed_violation,
    delta,
    legal_moves,
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


@functools.lru_cache(maxsize=None)
def _code_table(n: int) -> tuple[tuple[str, ...], tuple]:
    # Everything decoding needs at one node count: the default labels, and
    # per pair position the (token, tail, tail bit, head, head bit) of
    # states 1..3 (bi-directed edges run tail u to head v too).
    rows = []
    for u, v in _kernels.pair_list(n):
        bu, bv, su, sv = 1 << u, 1 << v, str(u), str(v)
        rows.append(
            (
                None,
                (_token(su, sv, False), u, bu, v, bv),
                (_token(sv, su, False), v, bv, u, bu),
                (_token(su, sv, True), u, bu, v, bv),
            )
        )
    return tuple(f"V{i}" for i in range(n)), tuple(rows)


def graph_from_pair_code(
    n: int, code: int, labels: Iterable[str] | None = None
) -> MixedGraph:
    """Decode a base-4 pair-state code (see :mod:`magmoves._kernels`)."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise InputError(f"node count must be a non-negative integer, got {n!r}")
    if type(code) is not int:
        if not isinstance(code, np.integer):
            raise InputError(f"pair code must be an integer, got {code!r}")
        code = int(code)
    default, rows = _code_table(n)
    pa, ch, sp = [0] * n, [0] * n, [0] * n
    toks = [str(n)]
    rest = code
    for row in rows:
        s = rest & 3
        rest >>= 2
        if s:
            tok, a, abit, b, bbit = row[s]
            toks.append(tok)
            if s == 3:
                sp[a] |= bbit
                sp[b] |= abit
            else:
                ch[a] |= bbit
                pa[b] |= abit
    if rest:  # bits above the last pair, or a negative code
        raise InputError(f"pair code {code} is out of range for {n} nodes")
    toks[1:] = sorted(toks[1:])
    labels = default if labels is None else _check_labels(n, labels)
    return MixedGraph._trusted(n, labels, pa, ch, sp, ";".join(toks))


def _canonical_order(n: int, codes: np.ndarray) -> tuple[np.ndarray, ...]:
    # Permutation sorting ``codes`` by canonical key, key rows, token table.
    # No token is a prefix of another, so keys compare as their sorted token
    # sequences, a key that runs out first being smaller: that is the order
    # of the key rows, the sorted token ranks shifted up by one and padded
    # with 0.  A key is the node count, then ``tokens[r]`` for each rank r.
    # A uint8 rank, with 255 for an absent edge, fits the 30 tokens of n = 5.
    rows = _code_table(n)[1]
    order = sorted(st[0] for row in rows for st in row[1:])
    ranks = np.array(
        [[255] + [order.index(st[0]) for st in row[1:]] for row in rows],
        np.uint8,
    ).reshape(-1, 4)
    m = ranks.shape[0]
    seq = np.empty((codes.shape[0], m), np.uint8)
    for p in range(m):
        seq[:, p] = ranks[p][(codes >> (2 * p)) & 3]
    seq.sort(axis=1)
    seq += 1  # absent edges wrap from 255 to 0
    perm = np.lexsort((codes, *seq.T[::-1]))  # the last key sorts first
    return perm, seq, np.array([""] + [";" + tok for tok in order])


# Codes enumerate_mags decodes at a time.  Blocks of 4,096 raised the peak
# memory of `enumerate --n 5` by about 2 MB and ran no faster.
_BLOCK = 2048


def enumerate_mags(n: int) -> Iterator[Mag]:
    """All MAGs on ``n`` unlabeled nodes, streamed in canonical-key order.

    Kernel codes are decoded in blocks: numpy builds each block's node
    rows and canonical keys, and the graphs are streamed one at a time.
    Each emitted graph is still checked by :class:`Mag`, independent of
    the kernel that produced its code; one that fails raises
    :class:`NotAMagError` naming the witness.
    """
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= PRACTICAL_MAX_N:
        raise InputError(
            f"node count must be between 1 and {PRACTICAL_MAX_N}, got {n!r}"
        )
    codes = _kernels.enumerate_mag_codes(n)
    perm, seq, tokens = _canonical_order(n, codes)
    labels = _code_table(n)[0]
    for start in range(0, perm.shape[0], _BLOCK):
        block = perm[start : start + _BLOCK]
        rows = [r.T.tolist() for r in _kernels.node_rows(n, codes[block])]
        keys = np.full(block.shape[0], str(n))
        for ranks in seq[block].T:
            keys = np.char.add(keys, tokens[ranks])
        for key, pa, ch, sp in zip(keys.tolist(), *rows):
            yield Mag(MixedGraph._trusted(n, labels, pa, ch, sp, key))


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


def _signature_ids(graphs: list[MixedGraph]) -> list[int]:
    # One id per graph, equal exactly when the separation signatures are:
    # the signature kernel over the graphs' node rows, its packed bits
    # compared as one opaque value per graph.
    n = graphs[0].n if graphs else 0
    dtype = np.min_scalar_type((1 << n) - 1)  # uint8 up to 8 nodes
    rows = [
        np.array([getattr(g, name) for g in graphs], dtype)
        .reshape(len(graphs), n)
        .T.copy()
        for name in ("_pa", "_ch", "_sp")
    ]
    bits = np.ascontiguousarray(_kernels.signature_block(*rows))
    packed = bits.view(np.dtype((np.void, bits.shape[1]))).ravel()
    return np.unique(packed, return_inverse=True)[1].tolist()


def partition_into_classes(mags: Iterable[Mag]) -> ClassPartition:
    """Group MAGs by separation signature (definitional equivalence)."""
    if not isinstance(mags, Iterable):
        raise InputError(f"expected an iterable of Mags, got {mags!r}")
    by_key: dict[str, Mag] = {}
    n = None
    labels = None
    for m in mags:
        require_mags(m)
        if n is None:
            n, labels = m.n, m.labels
        elif m.n != n or m.labels != labels:
            raise InputError("all graphs must share the same node set")
        key = m.canonical_key()
        if key in by_key:
            raise InputError(f"duplicate graph {key}")
        by_key[key] = m
    groups: dict[int, list[str]] = {}
    ids = _signature_ids([m.graph for m in by_key.values()])
    for key, sid in zip(by_key, ids):
        groups.setdefault(sid, []).append(key)
    classes = tuple(
        tuple(sorted(g)) for g in sorted(groups.values(), key=lambda g: min(g))
    )
    class_of = {k: i for i, keys in enumerate(classes) for k in keys}
    return ClassPartition(class_of, classes, by_key)


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

    ``legal_moves`` runs once per MAG.  The closure starts at the smallest
    key and stays inside the class: a move is followed only when its
    patched pair code is one of the class's, so no graph is built.  Every
    member it reaches was checked as a ``Mag`` by ``enumerate_mags``, and
    a licensed move that leaves its class is a ``thm3_sound`` violation of
    ``verify_theorems``.  Counterexamples are reported, never asserted
    away.
    """
    part = partition_into_classes(enumerate_mags(n))
    counterexamples = []
    pairs_examined = 0
    closure_gaps = []
    for cid, keys in enumerate(part.classes):
        members = [part.graphs_by_key[k] for k in keys]
        codes = [m.graph.pair_code for m in members]
        index = {code: i for i, code in enumerate(codes)}
        # Per member: the members its moves reach, and both bits of each
        # pair position where the edge is blanketed, that is directed and
        # blanketed or bi-directed and blanketed against an endpoint.
        targets, blanketed = [], []
        for code, m in zip(codes, members):
            out, bl = [], 0
            for mv in legal_moves(m):
                j = index.get(_moved_code(n, code, mv))
                if j is not None:
                    out.append(j)
                if mv.kind is not MoveKind.REVERSE:
                    bl |= 3 << _pair_shift(n, min(mv.x, mv.y), max(mv.x, mv.y))
            targets.append(out)
            blanketed.append(bl)
        reached, frontier = {0}, {0}
        while frontier:
            frontier = {j for i in frontier for j in targets[i]} - reached
            reached |= frontier
        if len(reached) < len(members):
            closure_gaps.append((cid, len(members) - len(reached)))
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                diff = codes[i] ^ codes[j]  # nonzero at the delta edges
                if not diff:
                    continue
                pairs_examined += 1
                if not diff & (blanketed[i] | blanketed[j]):
                    d = delta(members[i], members[j])
                    counterexamples.append(
                        (keys[i], keys[j], tuple(sorted(e.token() for e in d)))
                    )
    return ConjectureReport(
        n=n,
        mag_count=len(part.class_of),
        class_count=part.class_count,
        classes_examined=part.class_count,
        pairs_examined=pairs_examined,
        counterexamples=tuple(counterexamples),
        closure_gaps=tuple(closure_gaps),
    )


def _class_by_code(part: ClassPartition) -> dict[int, tuple[int, Mag]]:
    # Pair code -> (class id, Mag) over the partitioned MAGs, in the order
    # of ``part.graphs_by_key``.
    return {
        m.graph.pair_code: (part.class_of[k], m)
        for k, m in part.graphs_by_key.items()
    }


# Member pairs _bucket_verdicts decides at a time, as block rows times the
# bucket size: the largest n = 5 bucket holds 4,231 graphs, whose full
# uint64 candidate matrix would take 143 MB.
_BLOCK_PAIRS = 1 << 14


def _bucket_verdicts(graphs: list[MixedGraph]) -> Iterator[np.ndarray]:
    # The graphical test inside one local-key bucket, as bool blocks of
    # consecutive member rows over all members.  A pair is equivalent
    # unless one of its candidate triples (q, b, y) (see _triple_masks)
    # opens the chain _discriminating_witness looks for: from q along edges
    # bi-directed in both graphs, through parents of y in both, to a node
    # with an arrowhead in both from a non-neighbour of y.  All (pair,
    # triple) items of a block run that search at once on uint8 node masks,
    # which hold the sweeps' n <= 5.
    n = graphs[0].n
    f, c, triples = _triple_masks(graphs)
    q, y = triples[:, 0], triples[:, 2]
    pa, sp = (
        np.array([getattr(g, name) for g in graphs], np.uint8).reshape(-1, n)
        for name in ("_pa", "_sp")
    )
    head = pa | sp
    node = np.uint8(1) << np.arange(n, dtype=np.uint8)
    far = ~(np.array(graphs[0]._adj, np.uint8) | node)  # per y
    size = max(1, _BLOCK_PAIRS // len(graphs))
    for start in range(0, len(graphs), size):
        cand = f[start : start + size, None] & f & (c[start : start + size, None] ^ c)
        block = np.ones(cand.shape, dtype=bool)
        pi, pj = np.nonzero(cand)
        if pi.size:
            bits = cand[pi, pj].astype("<u8").view(np.uint8).reshape(-1, 8)
            item, t = np.nonzero(np.unpackbits(bits, axis=1, bitorder="little"))
            a, b = pi[item] + start, pj[item]
            ti, ty = q[t], y[t]
            allowed = pa[a, ty] & pa[b, ty]
            bi = sp[a] & sp[b]
            hits = np.packbits(
                (head[a] & head[b] & far[ty, None]) != 0, axis=1, bitorder="little"
            )[:, 0]
            reach = node[ti]
            while True:
                nbrs = np.zeros_like(reach)
                for s in range(n):
                    nbrs |= bi[:, s] * ((reach >> s) & 1)
                grown = reach | (nbrs & allowed)
                if np.array_equal(grown, reach):
                    break
                reach = grown
            found = item[(reach & hits) != 0]
            block[pi[found], pj[found]] = False
        yield block


def _oracle_violations(part: ClassPartition) -> list[str]:
    # Where the graphical test disagrees with the signature classes, over
    # every ordered pair, in pair order.  The test is False across local
    # keys, so it runs only inside each key's bucket, where the keys are
    # already equal; across buckets, exactly the pairs in one class
    # disagree.
    keys = list(part.graphs_by_key)
    graphs = [m.graph for m in part.graphs_by_key.values()]
    class_id = np.array([part.class_of[k] for k in keys])
    bucket_of = _local_key_ids(graphs)
    found = []
    by_bucket = np.argsort(bucket_of, kind="stable")
    for members in np.split(by_bucket, np.cumsum(np.bincount(bucket_of))[:-1]):
        cls = class_id[members]
        start = 0
        for block in _bucket_verdicts([graphs[i] for i in members]):
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
    classes: dict[int, list[int]] = {}
    for i, cid in enumerate(class_id.tolist()):
        classes.setdefault(cid, []).append(i)
    for members in classes.values():
        if len({bucket_of[i] for i in members}) > 1:
            found.extend(
                (i, j, False, True)
                for i in members
                for j in members
                if bucket_of[i] != bucket_of[j]
            )
    found.sort()
    return [
        f"{keys[i]} vs {keys[j]}: graphical={graphical} brute={brute}"
        for i, j, graphical, brute in found
    ]


def verify_theorems(n: int) -> EquivalenceReport:
    """Exhaustively check the package's structural claims on ``n`` nodes.

    Covers: soundness of the two blanket-licensed replacements, necessity of
    the blanket predicates for mark flips between equivalent MAGs, the
    screened reversal characterization, both path lemmas behind them, and
    agreement of the graphical equivalence test with the brute-force oracle
    on every ordered pair.  A licensed move's result is found by patching
    the moved pair in the source's pair code and looking the code up among
    the enumerated MAGs; only a result missing there or in another class
    goes through ``apply_move``, which builds the violation text.  Inside
    each (skeleton, unshielded-collider) bucket, the shared candidate-triple
    masks of ``_triple_masks`` settle every pair with no triple to search as
    equivalent, and the chains of the other pairs' candidate triples are
    searched a block of rows at a time, vectorised over the pairs; the
    verdict on each pair is the one the discriminating-path search alone
    would give, which the tests check on every in-bucket pair at n <= 4
    and, in the slow run, on every candidate pair at n = 5.
    """
    part = partition_into_classes(enumerate_mags(n))
    checks = _move_checks(n, part)
    checks["thm2_vs_oracle"] = CheckOutcome(
        len(part.class_of) ** 2, tuple(_oracle_violations(part))
    )
    return EquivalenceReport(
        n=n, mag_count=len(part.class_of), class_count=part.class_count, checks=checks
    )


def _move_checks(n: int, part: ClassPartition) -> dict[str, CheckOutcome]:
    # The per-MAG checks of verify_theorems.  Every MAG on n nodes is in the
    # enumeration, so a code missing from ``by_code`` is not a MAG and gets
    # no class.  The dict is freed before the pair check, which sets the
    # peak memory of the sweep.
    by_code = _class_by_code(part)
    no_mag = (None, None)

    names = ("thm3_sound", "thm3_necessary", "thm4_iff", "lemma1", "lemma2")
    cases = dict.fromkeys(names, 0)
    viol: dict[str, list[str]] = {name: [] for name in names}
    for code, (cid, m) in by_code.items():
        key = m.canonical_key()
        blanketed = set()  # (x, y): the edge is blanketed (against x)
        screened = set()
        for mv in legal_moves(m):
            if mv.kind is MoveKind.REVERSE:
                screened.add((mv.x, mv.y))
                continue
            blanketed.add((mv.x, mv.y))
            cases["thm3_sound"] += 1
            if by_code.get(_moved_code(n, code, mv), no_mag)[0] != cid:
                try:
                    m2 = apply_move(m, mv)
                except InputError as exc:
                    viol["thm3_sound"].append(f"{key} {mv}: {exc}")
                    continue
                viol["thm3_sound"].append(
                    f"{key} {mv} -> {m2.canonical_key()}: not equivalent"
                )

        for i, j, mark in m.graph._marks():
            u, v = (j, i) if mark == _REV else (i, j)
            for x, y in ((u, v), (v, u)):
                if (x, y) not in blanketed:
                    continue
                cases["lemma1"] += 1
                if not _lemma1_holds(m.graph, x, y):
                    viol["lemma1"].append(
                        f"{key}: collider entry paths into {x} "
                        f"escape the blanket of {y}"
                    )
            if mark == _BI:
                continue
            edge_blanketed = (u, v) in blanketed
            edge_screened = (u, v) in screened
            shift = _pair_shift(n, i, j)

            # u <-> v sets both bits of the pair; v -> u swaps 1 and 2
            cid2, m2 = by_code.get(code | 3 << shift, no_mag)
            if cid2 == cid:
                cases["thm3_necessary"] += 1
                if not edge_blanketed:
                    viol["thm3_necessary"].append(
                        f"{key}: {_token(str(u), str(v), False)} flips but "
                        "is not blanketed"
                    )
                if _failure(m2.graph, MoveKind.BI_TO_DIR, u, v) is not None:
                    viol["thm3_necessary"].append(
                        f"{m2.canonical_key()}: {u}<->{v} flips back but is "
                        f"not blanketed against {u}"
                    )

            cases["thm4_iff"] += 1
            same = by_code.get(code ^ 3 << shift, no_mag)[0] == cid
            if same != edge_screened:
                viol["thm4_iff"].append(
                    f"{key}: reversal of {_token(str(u), str(v), False)} "
                    f"equivalent={same} screened={edge_screened}"
                )

            if edge_screened:
                cases["lemma2"] += 1
                if not edge_blanketed:
                    viol["lemma2"].append(
                        f"{key}: {_token(str(u), str(v), False)} screened but "
                        "not blanketed"
                    )

    return {k: CheckOutcome(cases[k], tuple(viol[k])) for k in names}
