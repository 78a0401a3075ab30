"""Tests of the benchmark's seeded MAG families.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_gen.py
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
from magmoves import (  # noqa: E402
    Mag,
    find_separator,
    is_mag,
    markov_equivalent_bruteforce,
    parse_graph_json,
)


def test_same_seed_gives_identical_json():
    a = gen.query_stream(7)
    b = gen.query_stream(7)
    assert a == b
    assert [q.graph for q in a] == [q.graph for q in b]
    assert gen.query_stream(8) != a


@pytest.mark.parametrize("n,edges", [(10, 20), (11, 22), (12, 24), (60, 90)])
def test_random_graphs_are_mags(n, edges):
    rng = random.Random(n)
    bidirected = 0
    for _ in range(5 if n < 60 else 2):
        g = gen.random_mag(rng, n, edges)
        Mag(g)
        assert len(g.edges) >= edges
        bidirected += sum(e.kind.value == "bidirected" for e in g.edges)
    assert bidirected > 0


def test_every_stream_graph_passes_mag():
    for q in gen.query_stream(3):
        g = parse_graph_json(q.graph)
        if q.kind == "validate" and not q.mag:
            assert not is_mag(g)
        else:
            Mag(g)
        if q.partner:
            Mag(parse_graph_json(q.partner))


def test_partners():
    rng = random.Random(11)
    licensed = unlicensed = 0
    while licensed < 5 or unlicensed < 5:
        m = Mag(gen.random_mag(rng, 8, 16))
        h = gen.licensed_partner(rng, m)
        if h is not None:
            assert markov_equivalent_bruteforce(m, Mag(h))
            licensed += 1
        h = gen.unlicensed_partner(rng, m)
        if h is not None:
            assert is_mag(h)
            assert h.skeleton() == m.graph.skeleton()
            assert h != m.graph
            unlicensed += 1


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_mediator_smallest_separator_has_k_nodes(k):
    rng = random.Random(k)
    for _ in range(3):
        g, x, y = gen.mediator_mag(rng, k)
        Mag(g)
        z = find_separator(g, x, y)
        assert z is not None and len(z) == k


def test_stream_shape():
    qs = gen.query_stream(1)
    assert len(qs) >= 1000
    kinds = Counter((q.tier, q.kind) for q in qs)
    for kind in ("validate", "separate", "separator", "equiv", "moves", "class"):
        assert kinds["mid", kind] > 0
    assert {k for t, k in kinds if t == "large"} == {"validate", "moves", "class"}
    assert {q.k for q in qs if q.k} == set(gen.MEDIATOR_KS)
    equiv = [q for q in qs if q.kind == "equiv"]
    assert abs(sum(q.licensed for q in equiv) * 2 - len(equiv)) <= 4
