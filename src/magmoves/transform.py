"""Single-edge replacements that preserve Markov equivalence.

Three moves: turn a directed edge bi-directed, turn a bi-directed edge
directed, and reverse a directed edge.  The first two are licensed by a
blanket predicate on the edge, the third by an exact parent/spouse match
between the endpoints.  One search, ``_failure``, decides every predicate
and returns the first failing clause as a small tuple; ``legal_moves`` only
tests it against None, and ``_violation`` turns it into text for
``apply_move``'s rejection message and the ``*_violation`` functions, which
the ``is_*`` predicates test against None.  Applying a licensed move always
yields a MAG again; ``apply_move`` re-validates the result anyway.  The
closure walk knows graphs by their base-4 pair code: it validates each graph
it has not reached before exactly once, and skips a move that leads back to
a code it already holds without building a graph, a key or a ``Mag``.
"""

from __future__ import annotations

import bisect
import enum
from collections import deque
from dataclasses import dataclass

from .errors import InputError, MoveRejectedError, _shown
from .equivalence import _discriminating_chain
from .graph import (
    _BI,
    _FWD,
    _REV,
    _pair_shift,
    Edge,
    Mag,
    MixedGraph,
    bidirected,
    directed,
    iter_bits,
    require_mags,
)

__all__ = [
    "MoveKind",
    "MoveDescriptor",
    "ClosureResult",
    "is_blanketed_directed",
    "is_blanketed_bidirected_against",
    "is_screened",
    "blanketed_directed_violation",
    "blanketed_bidirected_violation",
    "screened_violation",
    "apply_move",
    "legal_moves",
    "delta",
    "equivalence_class_closure",
]


class MoveKind(enum.Enum):
    DIR_TO_BI = "dir-to-bi"
    BI_TO_DIR = "bi-to-dir"
    REVERSE = "reverse"


@dataclass(frozen=True)
class MoveDescriptor:
    """One requested replacement.  For ``DIR_TO_BI`` and ``REVERSE`` the edge
    is ``x -> y``; for ``BI_TO_DIR`` the edge is ``x <-> y`` and ``x`` becomes
    the tail."""

    kind: MoveKind
    x: int
    y: int


@dataclass(frozen=True)
class ClosureResult:
    """Everything reached from a seed MAG by licensed moves."""

    keys: frozenset[str]
    graphs: dict[str, Mag]
    truncated: bool


def _require_edge(m: Mag, kind: MoveKind, x: int, y: int) -> None:
    # Raise unless ``m`` has the edge ``kind`` acts on: x <-> y for
    # BI_TO_DIR, else x -> y.
    require_mags(m)
    bi = kind is MoveKind.BI_TO_DIR
    if not (m.graph.is_spouse if bi else m.graph.is_parent)(x, y):
        edge = "bi-directed edge {} <-> {}" if bi else "directed edge {} -> {}"
        raise InputError(f"expected the {edge.format(m.labels[x], m.labels[y])}")


# The clauses a licensing predicate can fail on; ``z`` names the offending
# node where the clause has one.
_CLAUSE_TEXT = {
    "detour": "a directed path {x} -> ... -> {y} runs through {z}",
    "parent": "parent {z} of {x} is not a parent of {y}",
    "discriminating": "a discriminating path for {x} ends ({z}, {x}, {y})",
    "spouse": "spouse {z} of {x} is neither a spouse nor a parent of {y}",
    "parents": "parents of {y} differ from parents of {x} plus {x}",
    "spouses": "spouses of {x} and {y} differ",
}


def _failure(
    g: MixedGraph, kind: MoveKind, x: int, y: int
) -> tuple[str, int | None] | None:
    # The first failing clause of the predicate that licenses ``kind`` on
    # the edge between x and y, as (clause, z), or None when it holds.  The
    # caller has checked that the edge is there with the right marks.
    if kind is MoveKind.REVERSE:
        # screened: pa(y) = pa(x) + x, and sp(y) = sp(x)
        if g._pa[y] != g._pa[x] | (1 << x):
            return "parents", None
        if g._sp[y] != g._sp[x]:
            return "spouses", None
        return None
    ybit = 1 << y
    if kind is MoveKind.DIR_TO_BI:
        # no directed path x -> c -> ... -> y besides the edge itself
        detour = g._ch[x] & ~ybit & g._ancestor_mask(y)
        if detour:
            return "detour", (detour & -detour).bit_length() - 1
    # Both blankets: parents of x are parents of y, and every spouse of x
    # (other than y) is a spouse of y, or a parent of y admitting no
    # discriminating path for x that ends (z, x, y).
    missing = g._pa[x] & ~g._pa[y]
    if missing:
        return "parent", (missing & -missing).bit_length() - 1
    for z in iter_bits(g._sp[x] & ~ybit & ~g._sp[y]):
        if not (g._ch[z] >> y) & 1:
            return "spouse", z
        if _discriminating_chain(g, z, x, y):
            return "discriminating", z
    return None


def _violation(m: Mag, kind: MoveKind, x: int, y: int) -> str | None:
    _require_edge(m, kind, x, y)
    bad = _failure(m.graph, kind, x, y)
    if bad is None:
        return None
    clause, z = bad
    lbl = m.labels
    return _CLAUSE_TEXT[clause].format(
        x=lbl[x], y=lbl[y], z=None if z is None else lbl[z]
    )


def blanketed_directed_violation(m: Mag, x: int, y: int) -> str | None:
    """None when the directed edge ``x -> y`` is blanketed, else the first
    failing clause."""
    return _violation(m, MoveKind.DIR_TO_BI, x, y)


def blanketed_bidirected_violation(m: Mag, x: int, y: int) -> str | None:
    """None when the bi-directed edge between ``x`` and ``y`` is blanketed
    against ``x``, else the first failing clause."""
    return _violation(m, MoveKind.BI_TO_DIR, x, y)


def is_blanketed_directed(m: Mag, x: int, y: int) -> bool:
    return blanketed_directed_violation(m, x, y) is None


def is_blanketed_bidirected_against(m: Mag, x: int, y: int) -> bool:
    return blanketed_bidirected_violation(m, x, y) is None


def screened_violation(m: Mag, x: int, y: int) -> str | None:
    """None when ``x -> y`` is screened: parents of ``y`` are exactly the
    parents of ``x`` plus ``x``, and spouses coincide."""
    return _violation(m, MoveKind.REVERSE, x, y)


def is_screened(m: Mag, x: int, y: int) -> bool:
    return screened_violation(m, x, y) is None


def _replacement(move: MoveDescriptor) -> Edge:
    # The edge a move of a known kind puts on its pair.
    if move.kind is MoveKind.DIR_TO_BI:
        return bidirected(move.x, move.y)
    if move.kind is MoveKind.BI_TO_DIR:
        return directed(move.x, move.y)
    return directed(move.y, move.x)


def apply_move(m: Mag, move: MoveDescriptor) -> Mag:
    """Apply a licensed move and return the resulting MAG.

    Raises :class:`MoveRejectedError` when the licensing predicate fails and
    :class:`InputError` when the named edge is missing or carries the wrong
    mark.  The result is validated from scratch.
    """
    require_mags(m)
    if not isinstance(move, MoveDescriptor):
        raise InputError(f"expected a MoveDescriptor, got {_shown(move)}")
    if not isinstance(move.kind, MoveKind):
        raise InputError(f"unknown move kind {_shown(move.kind)}")
    reason = _violation(m, move.kind, move.x, move.y)
    if reason is not None:
        label = "not screened" if move.kind is MoveKind.REVERSE else "not blanketed"
        raise MoveRejectedError(f"{label}: {reason}")
    return Mag(m.graph.with_edge(_replacement(move)))


# legal_moves sorts a move as the plain tuple (rank, x, y), no key function
_RANKED_KINDS = (MoveKind.DIR_TO_BI, MoveKind.BI_TO_DIR, MoveKind.REVERSE)


def legal_moves(m: Mag) -> list[MoveDescriptor]:
    """Every move whose predicate passes, sorted by kind then endpoints."""
    require_mags(m)
    g = m.graph
    found = []
    for i, j, mark in g._marks():
        if mark == _BI:
            tries = ((1, i, j), (1, j, i))
        else:
            u, v = (i, j) if mark == _FWD else (j, i)
            tries = ((0, u, v), (2, u, v))
        for rank, x, y in tries:
            if _failure(g, _RANKED_KINDS[rank], x, y) is None:
                found.append((rank, x, y))
    found.sort()
    return [MoveDescriptor(_RANKED_KINDS[r], x, y) for r, x, y in found]


def delta(m1: Mag, m2: Mag) -> frozenset[Edge]:
    """Edges of ``m1`` whose mark differs in ``m2``.

    Defined for MAGs on the same nodes with identical adjacencies.
    """
    require_mags(m1, m2)
    if m1.graph.skeleton() != m2.graph.skeleton():
        raise InputError("graphs must share the same adjacencies")
    return frozenset(
        e for e in m1.edges if m2.graph.edge_between(e.u, e.v) != e
    )


def _moved_code(n: int, code: int, mv: MoveDescriptor) -> int:
    # The pair code after ``mv``: a reversal swaps the states of x -> y and
    # y -> x; the other two moves swap x -> y and x <-> y.
    x, y = mv.x, mv.y
    flip = 3 if mv.kind is MoveKind.REVERSE else _BI ^ (_FWD if x < y else _REV)
    return code ^ (flip << _pair_shift(n, min(x, y), max(x, y)))


def equivalence_class_closure(m: Mag, max_size: int = 1000) -> ClosureResult:
    """Breadth-first closure of ``m`` under licensed moves.

    Stops once ``max_size`` graphs have been collected and flags the
    truncation.  Each move is one ``legal_moves`` entry, so its predicate is
    not run again.  The walk knows graphs by pair code and patches the moved
    pair's two bits for a neighbour's: a code it holds is skipped without
    building a graph or a key, and only a new one is validated as a ``Mag``.
    """
    require_mags(m)
    if not isinstance(max_size, int) or isinstance(max_size, bool) or max_size < 1:
        raise InputError(f"max_size must be an integer >= 1, got {_shown(max_size)}")
    n = m.n
    seen = {m.graph.pair_code: m}
    queue = deque(seen.items())
    truncated = False
    while queue and not truncated:
        code, cur = queue.popleft()
        for mv in legal_moves(cur):
            nxt = _moved_code(n, code, mv)
            if nxt in seen:
                continue
            if len(seen) >= max_size:
                truncated = True
                break
            new = _replacement(mv)
            seen[nxt] = member = Mag(cur.graph.with_edge(new))
            queue.append((nxt, member))
            # The member's key is its source's with the pair's token
            # swapped, cheaper than reading a large graph's rows again.
            toks = cur.canonical_key().split(";")
            toks.remove(cur.graph.edge_between(mv.x, mv.y).token())
            bisect.insort(toks, new.token(), 1)
            member.graph._key = ";".join(toks)
    graphs = {member.canonical_key(): member for member in seen.values()}
    return ClosureResult(frozenset(graphs), graphs, truncated)
