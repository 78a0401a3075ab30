"""Single-edge replacements that preserve Markov equivalence.

Three moves: turn a directed edge bi-directed, turn a bi-directed edge
directed, and reverse a directed edge.  The first two are licensed by a
blanket predicate on the edge, the third by an exact parent/spouse match
between the endpoints.  Applying a licensed move always yields a MAG again;
``apply_move`` re-validates the result anyway.  The closure walk validates
each graph it has not reached before exactly once, and skips moves that
lead back to a graph it already holds without building a ``Mag``.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass

from .errors import InputError, MoveRejectedError
from .equivalence import discriminating_path_exists_for_triple
from .graph import (
    _BI,
    _FWD,
    Edge,
    Mag,
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


def _require_directed(m: Mag, x: int, y: int) -> None:
    require_mags(m)
    if not m.graph.is_parent(x, y):
        raise InputError(
            f"expected the directed edge {m.labels[x]} -> {m.labels[y]}"
        )


def _require_bidirected(m: Mag, x: int, y: int) -> None:
    require_mags(m)
    if not m.graph.is_spouse(x, y):
        raise InputError(
            f"expected the bi-directed edge {m.labels[x]} <-> {m.labels[y]}"
        )


def _blanket_core_violation(m: Mag, x: int, y: int) -> str | None:
    # Shared clauses: parents of x are parents of y, and every spouse of x
    # (other than y) is a spouse of y, or a parent of y admitting no
    # discriminating path for x that ends (z, x, y).
    g = m.graph
    lx, ly = m.labels[x], m.labels[y]
    missing = g._pa[x] & ~g._pa[y]
    if missing:
        z = next(iter_bits(missing))
        return f"parent {m.labels[z]} of {lx} is not a parent of {ly}"
    for z in iter_bits(g._sp[x] & ~(1 << y)):
        if (g._sp[z] >> y) & 1:
            continue
        if (g._ch[z] >> y) & 1:
            if discriminating_path_exists_for_triple(g, z, x, y):
                return (
                    f"a discriminating path for {lx} ends "
                    f"({m.labels[z]}, {lx}, {ly})"
                )
            continue
        return (
            f"spouse {m.labels[z]} of {lx} is neither a spouse "
            f"nor a parent of {ly}"
        )
    return None


def blanketed_directed_violation(m: Mag, x: int, y: int) -> str | None:
    """None when the directed edge ``x -> y`` is blanketed, else the first
    failing clause."""
    _require_directed(m, x, y)
    g = m.graph
    for c in iter_bits(g._ch[x] & ~(1 << y)):
        if (g.ancestor_mask(y) >> c) & 1:
            return (
                f"a directed path {m.labels[x]} -> ... -> {m.labels[y]} "
                f"runs through {m.labels[c]}"
            )
    return _blanket_core_violation(m, x, y)


def blanketed_bidirected_violation(m: Mag, x: int, y: int) -> str | None:
    """None when the bi-directed edge between ``x`` and ``y`` is blanketed
    against ``x``, else the first failing clause."""
    _require_bidirected(m, x, y)
    return _blanket_core_violation(m, x, y)


def is_blanketed_directed(m: Mag, x: int, y: int) -> bool:
    return blanketed_directed_violation(m, x, y) is None


def is_blanketed_bidirected_against(m: Mag, x: int, y: int) -> bool:
    return blanketed_bidirected_violation(m, x, y) is None


def screened_violation(m: Mag, x: int, y: int) -> str | None:
    """None when ``x -> y`` is screened: parents of ``y`` are exactly the
    parents of ``x`` plus ``x``, and spouses coincide."""
    _require_directed(m, x, y)
    g = m.graph
    if g._pa[y] != g._pa[x] | (1 << x):
        return (
            f"parents of {m.labels[y]} differ from parents of "
            f"{m.labels[x]} plus {m.labels[x]}"
        )
    if g._sp[y] != g._sp[x]:
        return f"spouses of {m.labels[x]} and {m.labels[y]} differ"
    return None


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
        raise InputError(f"expected a MoveDescriptor, got {move!r}")
    x, y = move.x, move.y
    if move.kind is MoveKind.DIR_TO_BI:
        reason = blanketed_directed_violation(m, x, y)
    elif move.kind is MoveKind.BI_TO_DIR:
        reason = blanketed_bidirected_violation(m, x, y)
    elif move.kind is MoveKind.REVERSE:
        reason = screened_violation(m, x, y)
    else:
        raise InputError(f"unknown move kind {move.kind!r}")
    if reason is not None:
        label = "not screened" if move.kind is MoveKind.REVERSE else "not blanketed"
        raise MoveRejectedError(f"{label}: {reason}")
    return Mag(m.graph.with_edge(_replacement(move)))


def legal_moves(m: Mag) -> list[MoveDescriptor]:
    """Every move whose predicate passes, sorted by kind then endpoints."""
    require_mags(m)
    out = []
    for (i, j), mark in m.graph._pairs.items():
        if mark == _BI:
            if is_blanketed_bidirected_against(m, i, j):
                out.append(MoveDescriptor(MoveKind.BI_TO_DIR, i, j))
            if is_blanketed_bidirected_against(m, j, i):
                out.append(MoveDescriptor(MoveKind.BI_TO_DIR, j, i))
        else:
            u, v = (i, j) if mark == _FWD else (j, i)
            if is_blanketed_directed(m, u, v):
                out.append(MoveDescriptor(MoveKind.DIR_TO_BI, u, v))
            if is_screened(m, u, v):
                out.append(MoveDescriptor(MoveKind.REVERSE, u, v))
    kinds = {MoveKind.DIR_TO_BI: 0, MoveKind.BI_TO_DIR: 1, MoveKind.REVERSE: 2}
    out.sort(key=lambda mv: (kinds[mv.kind], mv.x, mv.y))
    return out


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


def equivalence_class_closure(m: Mag, max_size: int = 1000) -> ClosureResult:
    """Breadth-first closure of ``m`` under licensed moves.

    Stops once ``max_size`` graphs have been collected and flags the
    truncation.  Each move is one ``legal_moves`` entry, so its predicate is
    not run again; a neighbour whose key the walk already holds is skipped,
    and only a new one is validated as a ``Mag``.
    """
    require_mags(m)
    if not isinstance(max_size, int) or isinstance(max_size, bool) or max_size < 1:
        raise InputError(f"max_size must be an integer >= 1, got {max_size!r}")
    start = m.canonical_key()
    graphs = {start: m}
    queue = deque([m])
    truncated = False
    while queue and not truncated:
        cur = queue.popleft()
        for mv in legal_moves(cur):
            g = cur.graph.with_edge(_replacement(mv))
            key = g.canonical_key()
            if key in graphs:
                continue
            if len(graphs) >= max_size:
                truncated = True
                break
            nxt = Mag(g)
            graphs[key] = nxt
            queue.append(nxt)
    return ClosureResult(frozenset(graphs), graphs, truncated)
