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
    EdgeKind,
    Mag,
    MixedGraph,
    _check_labels,
    _pair_shift,
    _token,
    iter_bits,
    require_mags,
)
from .equivalence import (
    _discriminating_witness,
    _head_rows,
    _local_key,
    _triple_masks,
)
from .transform import (
    MoveKind,
    _failure,
    apply_move,
    blanketed_bidirected_violation,
    blanketed_directed_violation,
    equivalence_class_closure,
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
    # per pair position the (pair, token, tail, tail bit, head, head bit) of
    # states 1..3 (bi-directed edges run tail u to head v too).
    rows = []
    for u, v in _kernels.pair_list(n):
        bu, bv, su, sv = 1 << u, 1 << v, str(u), str(v)
        rows.append(
            (
                None,
                ((u, v), _token(su, sv, False), u, bu, v, bv),
                ((u, v), _token(sv, su, False), v, bv, u, bu),
                ((u, v), _token(su, sv, True), u, bu, v, bv),
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
    pairs = {}
    pa = [0] * n
    ch = [0] * n
    sp = [0] * n
    toks = [str(n)]
    rest = code
    for row in rows:
        s = rest & 3
        rest >>= 2
        if s:
            pair, tok, a, abit, b, bbit = row[s]
            pairs[pair] = s  # the graph's pair marks are these pair states
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
    return MixedGraph._trusted(
        n,
        default if labels is None else _check_labels(n, labels),
        pairs,
        pa,
        ch,
        sp,
        ";".join(toks),
    )


def _canonical_order(n: int, codes: np.ndarray) -> np.ndarray:
    # Permutation sorting ``codes`` by canonical key.  No token is a prefix
    # of another, so keys compare as their sorted token sequences, a key
    # that runs out first being smaller: that is the order of the sorted
    # token ranks, shifted up by one and padded with 0 at the end.  A uint8
    # rank, with 255 for an absent edge, fits the 30 tokens of n = 5.
    rows = _code_table(n)[1]
    order = sorted(st[1] for row in rows for st in row[1:])
    ranks = np.array(
        [[255] + [order.index(st[1]) for st in row[1:]] for row in rows],
        np.uint8,
    ).reshape(-1, 4)
    m = ranks.shape[0]
    seq = np.empty((codes.shape[0], m), np.uint8)
    for p in range(m):
        seq[:, p] = ranks[p][(codes >> (2 * p)) & 3]
    seq.sort(axis=1)
    seq += 1  # absent edges wrap from 255 to 0
    return np.lexsort((codes, *seq.T[::-1]))  # the last key sorts first


def enumerate_mags(n: int) -> Iterator[Mag]:
    """All MAGs on ``n`` unlabeled nodes, streamed in canonical-key order.

    Each emitted graph is checked again by :class:`Mag`, independent of
    the kernel that produced its code; one that fails raises
    :class:`NotAMagError` naming the witness.
    """
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= PRACTICAL_MAX_N:
        raise InputError(
            f"node count must be between 1 and {PRACTICAL_MAX_N}, got {n!r}"
        )
    codes = _kernels.enumerate_mag_codes(n)
    for code in codes[_canonical_order(n, codes)].tolist():
        yield Mag(graph_from_pair_code(n, code))


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

    Counterexamples are reported, never asserted away.
    """
    part = partition_into_classes(enumerate_mags(n))
    counterexamples = []
    pairs_examined = 0
    for keys in part.classes:
        members = [part.graphs_by_key[k] for k in keys]
        # Per member, two bits per pair position: its pair code (the marks),
        # and both bits set where the edge is blanketed, that is directed
        # and blanketed or bi-directed and blanketed against an endpoint.
        codes = []
        blanketed = []
        for m in members:
            codes.append(m.graph.pair_code)
            bl = 0
            for mv in legal_moves(m):
                if mv.kind is not MoveKind.REVERSE:
                    bl |= 3 << _pair_shift(n, min(mv.x, mv.y), max(mv.x, mv.y))
            blanketed.append(bl)
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
    closure_gaps = []
    for cid, keys in enumerate(part.classes):
        seed = part.graphs_by_key[keys[0]]
        res = equivalence_class_closure(seed, max_size=len(keys))
        missed = len(set(keys) - res.keys)
        if missed:
            closure_gaps.append((cid, missed))
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
    # Pair code -> (class id, Mag) over the partitioned MAGs.
    return {
        m.graph.pair_code: (part.class_of[k], m)
        for k, m in part.graphs_by_key.items()
    }


def _bucket_verdicts(graphs: list[MixedGraph]) -> Iterator[np.ndarray]:
    # The graphical test inside one local-key bucket, a bool row per member
    # over all members.  A pair whose candidate-triple masks leave no
    # triple is equivalent without a search (see _triple_masks); every
    # other pair asks the discriminating-path search.
    f, c = _triple_masks(graphs)
    heads = [_head_rows(g) for g in graphs]
    for i, g in enumerate(graphs):
        row = np.ones(len(graphs), dtype=bool)
        for j in np.flatnonzero(f[i] & f & (c[i] ^ c)):
            row[j] = (
                _discriminating_witness(g, graphs[j], heads[i], heads[j]) is None
            )
        yield row


def _oracle_violations(part: ClassPartition) -> list[str]:
    # Where the graphical test disagrees with the signature classes, over
    # every ordered pair, in pair order.  The test is False across local
    # keys, so it runs only inside each key's bucket, where the keys are
    # already equal; across buckets, exactly the pairs in one class
    # disagree.
    keys = list(part.graphs_by_key)
    graphs = [m.graph for m in part.graphs_by_key.values()]
    class_id = [part.class_of[k] for k in keys]
    buckets: dict = {}
    classes: dict[int, list[int]] = {}
    for i, g in enumerate(graphs):
        buckets.setdefault(_local_key(g), []).append(i)
        classes.setdefault(class_id[i], []).append(i)
    bucket_of = [0] * len(keys)
    found = []
    for b, members in enumerate(buckets.values()):
        cls = np.array([class_id[i] for i in members])
        rows = _bucket_verdicts([graphs[i] for i in members])
        for i, row in zip(members, rows):
            bucket_of[i] = b
            brute = cls == class_id[i]
            found.extend(
                (i, members[j], bool(row[j]), bool(brute[j]))
                for j in np.flatnonzero(row != brute)
            )
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
    on every ordered pair.  Inside each (skeleton, unshielded-collider)
    bucket, the shared candidate-triple masks of ``_triple_masks`` settle
    every pair with no triple to search as equivalent, and only the other
    pairs run the discriminating-path search; the verdict on each pair is
    the one the search alone would give.
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
    known = part.graphs_by_key
    by_code = _class_by_code(part)
    no_mag = (None, None)

    names = ("thm3_sound", "thm3_necessary", "thm4_iff", "lemma1", "lemma2")
    cases = dict.fromkeys(names, 0)
    viol: dict[str, list[str]] = {name: [] for name in names}
    for key, m in known.items():
        code = m.graph.pair_code
        cid = part.class_of[key]
        blanketed = set()  # (x, y): the edge is blanketed (against x)
        screened = set()
        for mv in legal_moves(m):
            if mv.kind is MoveKind.REVERSE:
                screened.add((mv.x, mv.y))
                continue
            blanketed.add((mv.x, mv.y))
            cases["thm3_sound"] += 1
            try:
                m2 = apply_move(m, mv)
            except InputError as exc:
                viol["thm3_sound"].append(f"{key} {mv}: {exc}")
                continue
            if by_code.get(m2.graph.pair_code, no_mag)[0] != cid:
                viol["thm3_sound"].append(
                    f"{key} {mv} -> {m2.canonical_key()}: not equivalent"
                )

        for e in m.edges:
            u, v = e.u, e.v
            for x, y in ((u, v), (v, u)):
                if (x, y) not in blanketed:
                    continue
                cases["lemma1"] += 1
                if not _lemma1_holds(m.graph, x, y):
                    viol["lemma1"].append(
                        f"{key}: collider entry paths into {x} "
                        f"escape the blanket of {y}"
                    )
            if e.kind is not EdgeKind.DIRECTED:
                continue
            edge_blanketed = (u, v) in blanketed
            edge_screened = (u, v) in screened
            shift = _pair_shift(n, min(u, v), max(u, v))

            # u <-> v sets both bits of the pair; v -> u swaps 1 and 2
            cid2, m2 = by_code.get(code | 3 << shift, no_mag)
            if cid2 == cid:
                cases["thm3_necessary"] += 1
                if not edge_blanketed:
                    viol["thm3_necessary"].append(
                        f"{key}: {e.token()} flips but is not blanketed"
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
                    f"{key}: reversal of {e.token()} "
                    f"equivalent={same} screened={edge_screened}"
                )

            if edge_screened:
                cases["lemma2"] += 1
                if not edge_blanketed:
                    viol["lemma2"].append(
                        f"{key}: {e.token()} screened but not blanketed"
                    )

    return {k: CheckOutcome(cases[k], tuple(viol[k])) for k in names}
