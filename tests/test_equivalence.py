import random
import re
import time

import pytest

from magmoves import (
    InputError,
    Mag,
    MixedGraph,
    apply_move,
    bidirected,
    directed,
    discriminating_path_exists_for_triple,
    equivalence_witness,
    format_path,
    is_discriminating_path,
    legal_moves,
    markov_equivalent,
    m_connected,
    markov_equivalent_bruteforce,
    signature_witness,
    unshielded_colliders,
)
from magmoves.equivalence import _local_key

from oracles import discriminating_triple_naive, markov_equivalent_paths
from random_graphs import mark_change_walk, random_dag


def test_unshielded_collider_directed(g_collider):
    assert unshielded_colliders(g_collider) == {(0, 1, 2)}


def test_unshielded_collider_bidirected(g_bicollider):
    assert unshielded_colliders(g_bicollider) == {(0, 1, 2)}


def test_shielded_triangle_has_none(g_triangle):
    assert unshielded_colliders(g_triangle) == frozenset()


def test_chain_has_none(g_chain):
    assert unshielded_colliders(g_chain) == frozenset()


def test_discriminating_path_positive(g_discpath):
    # labels (W, Z, X, Y) = ids (0, 1, 2, 3)
    assert is_discriminating_path(g_discpath, (0, 1, 2, 3), 2)


def test_discriminating_path_wrong_node(g_discpath):
    assert not is_discriminating_path(g_discpath, (0, 1, 2, 3), 1)
    assert not is_discriminating_path(g_discpath, (0, 1, 2, 3), 0)


def test_discriminating_path_reversed_orientation(g_discpath):
    assert is_discriminating_path(g_discpath, (3, 2, 1, 0), 2)


def test_discriminating_path_too_short(g_discpath):
    assert not is_discriminating_path(g_discpath, (1, 2, 3), 2)


def test_discriminating_path_validates_path(g_discpath):
    with pytest.raises(InputError):
        is_discriminating_path(g_discpath, (0, 3, 2, 1), 2)  # W, Y not adjacent
    with pytest.raises(InputError):
        is_discriminating_path(g_discpath, (0, 1, 0, 1), 0)


def test_triple_search_positive(g_discpath):
    assert discriminating_path_exists_for_triple(g_discpath, 1, 2, 3)


def test_triple_search_no_entry_point():
    # drop W -> Z: no first node remains
    g = MixedGraph(
        3, [bidirected(0, 1), directed(0, 2), directed(1, 2)], labels=("Z", "X", "Y")
    )
    assert not discriminating_path_exists_for_triple(g, 0, 1, 2)


def test_triple_search_entry_adjacent_to_target():
    # add W -> Y: the only candidate start is adjacent to Y
    g = MixedGraph(
        4,
        [
            directed(0, 1),
            bidirected(1, 2),
            directed(1, 3),
            directed(2, 3),
            directed(0, 3),
        ],
        labels=("W", "Z", "X", "Y"),
    )
    assert not discriminating_path_exists_for_triple(g, 1, 2, 3)


def test_triple_search_validates_context(g_discpath):
    with pytest.raises(InputError):
        discriminating_path_exists_for_triple(g_discpath, 1, 1, 3)
    with pytest.raises(InputError):
        # (Z, W) edge has no arrowhead at W
        discriminating_path_exists_for_triple(g_discpath, 1, 0, 3)
    with pytest.raises(InputError):
        # W and Y are not adjacent
        discriminating_path_exists_for_triple(g_discpath, 1, 2, 0)


def test_triple_search_matches_oracle_exhaustively(mags_by_n):
    from magmoves.graph import iter_bits

    for n in (3, 4):
        for m in mags_by_n[n]:
            g = m.graph
            for x in range(n):
                for z in iter_bits(g._pa[x] | g._sp[x]):
                    for y in iter_bits(g._adj[x] & ~(1 << z)):
                        assert discriminating_path_exists_for_triple(
                            g, z, x, y
                        ) == discriminating_triple_naive(g, z, x, y), (
                            m.canonical_key(),
                            z,
                            x,
                            y,
                        )


def test_equivalent_single_edge(g_edge):
    m1 = Mag(g_edge)
    m2 = Mag(g_edge.with_edge(bidirected(0, 1)))
    assert markov_equivalent(m1, m2)
    assert markov_equivalent_bruteforce(m1, m2)


def test_not_equivalent_different_skeleton(g_collider):
    m1 = Mag(g_collider)
    m2 = Mag(
        MixedGraph(3, [directed(0, 1), directed(1, 2)], labels=g_collider.labels)
    )
    no_shield = Mag(
        MixedGraph(3, [directed(0, 1)], labels=g_collider.labels)
    )
    assert not markov_equivalent(m1, no_shield)
    assert markov_equivalent(m1, m1)
    assert not markov_equivalent(m1, m2)


def test_not_equivalent_collider_vs_chain(g_chain, g_collider):
    m1 = Mag(g_chain)
    m2 = Mag(g_collider)
    assert not markov_equivalent(m1, m2)
    assert not markov_equivalent_bruteforce(m1, m2)


def test_discriminated_status_distinguishes(g_discpath):
    # flipping X -> Y to X <-> Y changes the discriminated node's status
    m1 = Mag(g_discpath)
    m2 = Mag(g_discpath.with_edge(bidirected(2, 3)))
    assert not markov_equivalent(m1, m2)
    assert not markov_equivalent_bruteforce(m1, m2)


def test_node_set_mismatch_rejected(g_edge):
    m1 = Mag(g_edge)
    m2 = Mag(MixedGraph(2, [directed(0, 1)], labels=("A", "B")))
    with pytest.raises(InputError):
        markov_equivalent(m1, m2)
    with pytest.raises(InputError):
        markov_equivalent_bruteforce(m1, m2)


def _queries_in_signature_order(n):
    # Pairs x < y in order, then Z over the other nodes in ascending order
    # of its bit mask.
    out = []
    for x in range(n):
        for y in range(x + 1, n):
            rest = [v for v in range(n) if v not in (x, y)]
            subsets = [
                frozenset(v for i, v in enumerate(rest) if (k >> i) & 1)
                for k in range(1 << len(rest))
            ]
            subsets.sort(key=lambda z: sum(1 << v for v in z))
            out.extend((x, y, z) for z in subsets)
    return out


def test_signature_witness_names_first_differing_query(mags_by_n):
    differ = 0
    for n in (1, 2, 3):
        queries = _queries_in_signature_order(n)
        verdicts = [
            [m_connected(m.graph, x, y, z) for x, y, z in queries]
            for m in mags_by_n[n]
        ]
        for a, va in zip(mags_by_n[n], verdicts):
            for b, vb in zip(mags_by_n[n], verdicts):
                got = signature_witness(a, b)
                if va == vb:
                    assert got is None, (a, b)
                    continue
                differ += 1
                i = queries.index(got)  # raises unless got is a query
                assert va[i] != vb[i], (a, b, got)
                assert va[:i] == vb[:i], (a, b, got)
    assert differ == 6 + 2624  # ordered pairs in different classes, n = 2, 3


def test_equivalence_relation_on_three_nodes(mags_by_n):
    mags = mags_by_n[3]
    for a in mags:
        assert markov_equivalent(a, a)
    for a in mags:
        for b in mags:
            assert markov_equivalent(a, b) == markov_equivalent(b, a)


def test_node_set_check_rejects_ill_typed_arguments(g_edge):
    m = Mag(g_edge)
    for call in (
        lambda: markov_equivalent(m, "x"),
        lambda: markov_equivalent(None, m),
        lambda: markov_equivalent_bruteforce(m, None),
        lambda: equivalence_witness(m, g_edge),
    ):
        with pytest.raises(InputError, match="expected a Mag"):
            call()


def _buckets(mags):
    out = {}
    for m in mags:
        out.setdefault(_local_key(m.graph), []).append(m)
    return out.values()


def test_graphical_test_matches_path_oracle_exhaustively(mags_by_n):
    pairs = 0
    for n in (1, 2, 3, 4):
        for members in _buckets(mags_by_n[n]):
            for a in members:
                for b in members:
                    pairs += 1
                    assert markov_equivalent(a, b) == markov_equivalent_paths(
                        a, b
                    ), (a, b)
    assert pairs == 89825


def test_graphical_test_rejects_differing_local_keys(mags_by_n):
    for n in (1, 2, 3):
        for a in mags_by_n[n]:
            for b in mags_by_n[n]:
                if _local_key(a.graph) != _local_key(b.graph):
                    assert not markov_equivalent(a, b), (a, b)


def test_graphical_test_matches_path_oracle_on_random_walks():
    rng = random.Random(20261018)
    pairs = hard = 0
    while pairs < 3000:
        n = rng.randint(5, 9)
        start = Mag(random_dag(rng, n, rng.uniform(1.5, 4.5)))
        if not start.edges:
            continue
        prev = start
        for m in mark_change_walk(rng, start, 30):
            for a in {start, prev}:
                got = markov_equivalent(a, m)
                assert got == markov_equivalent_paths(a, m), (a, m)
                pairs += 1
                hard += not got and _local_key(a.graph) == _local_key(m.graph)
            prev = m
    # non-equivalent pairs that only a discriminating path tells apart
    assert hard >= 10


def test_licensed_move_partners_are_equivalent_at_scale():
    rng = random.Random(5)
    worst = 0.0
    for n in (50, 75, 100):
        for degree in (3, 6):
            m = Mag(random_dag(rng, n, degree))
            partner = m
            for _ in range(40):
                partner = apply_move(partner, rng.choice(legal_moves(partner)))
            assert partner != m
            t0 = time.perf_counter()
            assert markov_equivalent(m, partner)
            assert markov_equivalent(partner, m)
            worst = max(worst, time.perf_counter() - t0)
    assert worst < 0.5  # two calls; about 4 ms at n = 100 on a 2-CPU machine


def test_witness_names_first_differing_adjacency(g_chain, g_collider):
    lone = Mag(MixedGraph(3, [directed(0, 1)], labels=g_chain.labels))
    assert markov_equivalent(Mag(g_chain), Mag(g_chain)) is True
    assert equivalence_witness(Mag(g_chain), Mag(g_chain)) is None
    assert (
        equivalence_witness(Mag(g_chain), lone)
        == "Z and Y are adjacent in the first graph only"
    )
    assert (
        equivalence_witness(lone, Mag(g_collider))
        == "Z and Y are adjacent in the second graph only"
    )


def test_witness_names_unshielded_collider(g_chain, g_bicollider):
    assert (
        equivalence_witness(Mag(g_chain), Mag(g_bicollider))
        == "unshielded collider X<->Z<->Y in the second graph only"
    )


def test_witness_names_discriminating_path(g_discpath):
    m1 = Mag(g_discpath)
    m2 = Mag(g_discpath.with_edge(bidirected(2, 3)))
    assert equivalence_witness(m1, m2) == (
        "discriminating path W->Z<->X->Y in the first graph, W->Z<->X<->Y in "
        "the second: X is a collider on it only in the second"
    )


def test_discriminating_witnesses_satisfy_definition_exhaustively(mags_by_n):
    pattern = re.compile(
        r"discriminating path (\S+) in the first graph, (\S+) in the second: "
        r"(\S+) is a collider on it only in the (first|second)"
    )
    found = 0
    for n in (3, 4):
        for members in _buckets(mags_by_n[n]):
            for a in members:
                for b in members:
                    text = equivalence_witness(a, b)
                    if text is None:
                        continue
                    found += 1
                    shown1, shown2, node, which = pattern.fullmatch(text).groups()
                    g1, g2 = a.graph, b.graph
                    path = tuple(
                        g1.node_id(lbl) for lbl in re.split(r"<->|->|<-", shown1)
                    )
                    z = g1.node_id(node)
                    assert z == path[-2]
                    assert format_path(g1, path) == shown1
                    assert format_path(g2, path) == shown2
                    assert is_discriminating_path(g1, path, z)
                    assert is_discriminating_path(g2, path, z)
                    before, end = path[-3], path[-1]
                    collider = [
                        g.arrowhead_toward(before, z) and g.arrowhead_toward(end, z)
                        for g in (g1, g2)
                    ]
                    assert collider == [which == "first", which == "second"]
    assert found == 384
