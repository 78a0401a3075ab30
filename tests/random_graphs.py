"""Seeded random graphs shared by the scale tests."""

from __future__ import annotations

from magmoves import Mag, MixedGraph, bidirected, directed, is_mag
from magmoves.graph import maximality_witness


def random_dag(rng, n, degree):
    """A DAG over a random node order with expected degree ``degree``."""
    order = list(range(n))
    rng.shuffle(order)
    p = degree / (n - 1)
    return MixedGraph(
        n,
        [
            directed(order[i], order[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < p
        ],
    )


def mark_change_walk(rng, m, steps):
    """MAGs reached by changing the mark of one random edge at a time,
    keeping each change that leaves a MAG; the skeleton never moves."""
    out = []
    for _ in range(steps):
        e = rng.choice(m.edges)
        new = rng.choice(
            [
                f
                for f in (directed(e.u, e.v), directed(e.v, e.u), bidirected(e.u, e.v))
                if f != e
            ]
        )
        g = m.graph.with_edge(new)
        if is_mag(g):
            m = Mag(g)
            out.append(m)
    return out


def random_ancestral(rng, n, degree):
    """A random DAG with some edges made bi-directed where the DAG of the
    others has no directed path between the endpoints: an ancestral graph,
    usually not maximal."""
    order = list(range(n))
    rng.shuffle(order)
    pairs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    chosen = rng.sample(pairs, int(degree * n / 2))
    bi = [rng.random() < 0.3 for _ in chosen]
    dag = MixedGraph(n, [directed(a, b) for (a, b), f in zip(chosen, bi) if not f])
    return MixedGraph(
        n,
        [
            bidirected(a, b)
            if f and not (dag.ancestor_mask(b) >> a) & 1
            else directed(a, b)
            for (a, b), f in zip(chosen, bi)
        ],
    )


def join_pair(g, a, b):
    """``g`` with non-adjacent ``a`` and ``b`` joined by the edge that keeps
    an ancestral graph ancestral: directed along an existing directed path,
    else bi-directed."""
    if (g.ancestor_mask(b) >> a) & 1:
        return g.with_edge(directed(a, b))
    if (g.ancestor_mask(a) >> b) & 1:
        return g.with_edge(directed(b, a))
    return g.with_edge(bidirected(a, b))


def random_mag(rng, n, degree):
    """A :func:`random_ancestral` graph made maximal by joining every pair
    an inducing path links (Richardson & Spirtes 2002, Thm 5.1)."""
    g = random_ancestral(rng, n, degree)
    while (gap := maximality_witness(g)) is not None:
        g = join_pair(g, *gap[:2])
    return Mag(g).graph
