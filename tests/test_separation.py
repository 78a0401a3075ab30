import itertools
import random
import time

import pytest

from magmoves import (
    InputError,
    MixedGraph,
    SeparationQuery,
    bidirected,
    directed,
    find_connecting_path,
    find_separator,
    graph_from_pair_code,
    m_connected,
    m_separated_sets,
)
from magmoves.separation import _first_min_cut

from oracles import (
    conditioning_sets,
    connecting_path_by_enumeration,
    find_separator_bruteforce,
    first_vertex_cut_bruteforce,
    m_connected_naive,
)
from random_graphs import random_mag


def test_collider_blocks_marginally(g_collider):
    assert not m_connected(g_collider, 0, 2)
    assert m_connected(g_collider, 0, 2, [1])


def test_chain_blocks_on_noncollider(g_chain):
    assert m_connected(g_chain, 0, 2)
    assert not m_connected(g_chain, 0, 2, [1])


def test_bidirected_collider_blocks_marginally(g_bicollider):
    assert not m_connected(g_bicollider, 0, 2)


def test_collider_opens_via_conditioned_descendant():
    # X -> Z <- Y, Z -> D: conditioning on D opens the collider
    g = MixedGraph(
        4, [directed(0, 1), directed(2, 1), directed(1, 3)],
        labels=("X", "Z", "Y", "D"),
    )
    assert not m_connected(g, 0, 2)
    assert m_connected(g, 0, 2, [3])


def test_single_edge_connects(g_edge):
    assert m_connected(g_edge, 0, 1)
    assert m_connected_naive(g_edge, 0, 1)


def test_endpoint_validation(g_chain):
    with pytest.raises(InputError):
        m_connected(g_chain, 0, 0)
    with pytest.raises(InputError):
        m_connected(g_chain, 0, 2, [0])
    with pytest.raises(InputError):
        m_connected(g_chain, 0, 5)


def test_naive_agrees_on_collider_fixture(g_collider):
    for z in conditioning_sets(3, 0, 2):
        assert m_connected(g_collider, 0, 2, z) == m_connected_naive(
            g_collider, 0, 2, z
        )


def test_symmetry_exhaustive_small():
    for n in (2, 3):
        m = n * (n - 1) // 2
        for code in range(1 << (2 * m)):
            g = graph_from_pair_code(n, code)
            for x in range(n):
                for y in range(x + 1, n):
                    for z in conditioning_sets(n, x, y):
                        assert m_connected(g, x, y, z) == m_connected(g, y, x, z)


def test_set_level_queries(g_collider):
    assert m_separated_sets(
        g_collider, SeparationQuery(frozenset({0}), frozenset({2}))
    )
    assert not m_separated_sets(
        g_collider, SeparationQuery(frozenset({0, 1}), frozenset({2}))
    )
    assert m_separated_sets(
        g_collider, SeparationQuery(frozenset(), frozenset({2}))
    )


def test_set_level_queries_match_pairwise_verdicts():
    # every mixed graph on n <= 4 nodes; every split of its nodes into
    # sources, targets, conditioning set and the rest at n <= 3, and seeded
    # splits at n = 4
    rng = random.Random(30)
    for n in (1, 2, 3, 4):
        splits = list(itertools.product(range(4), repeat=n))
        for code in range(4 ** (n * (n - 1) // 2)):
            g = graph_from_pair_code(n, code)
            for split in splits if n < 4 else rng.sample(splits, 12):
                src, dst, given = (
                    frozenset(v for v in range(n) if split[v] == k) for k in range(3)
                )
                want = not any(m_connected(g, s, t, given) for s in src for t in dst)
                assert m_separated_sets(g, SeparationQuery(src, dst, given)) == want


def test_set_level_validation():
    with pytest.raises(InputError):
        SeparationQuery(frozenset({0}), frozenset({0}))
    with pytest.raises(InputError):
        SeparationQuery(frozenset({0}), frozenset({1}), frozenset({0}))


def test_find_separator_prefers_smallest(g_collider):
    assert find_separator(g_collider, 0, 2) == frozenset()


def test_find_separator_chain(g_chain):
    assert find_separator(g_chain, 0, 2) == frozenset({1})


def test_find_separator_absent_on_nonmaximal(g_nonmaximal):
    assert find_separator(g_nonmaximal, 0, 3) is None


def test_find_separator_rejects_adjacent(g_edge):
    with pytest.raises(InputError):
        find_separator(g_edge, 0, 1)


def test_connecting_path_witness(g_chain):
    assert find_connecting_path(g_chain, 0, 2) == (0, 1, 2)
    assert find_connecting_path(g_chain, 0, 2, [1]) is None


def test_witness_path_consistency():
    g = MixedGraph(
        4,
        [directed(0, 1), directed(1, 3), bidirected(0, 2), directed(2, 3)],
    )
    for x in range(4):
        for y in range(4):
            if x == y:
                continue
            for z in conditioning_sets(4, x, y):
                path = find_connecting_path(g, x, y, z)
                assert (path is not None) == m_connected(g, x, y, z)


def test_connecting_path_matches_enumeration_exhaustively():
    # every mixed graph with n <= 4, every ordered pair and every Z
    queries = 0
    for n in range(2, 5):
        for code in range(4 ** (n * (n - 1) // 2)):
            g = graph_from_pair_code(n, code)
            for x, y in itertools.permutations(range(n), 2):
                for z in conditioning_sets(n, x, y):
                    want = connecting_path_by_enumeration(g, x, y, z)
                    assert find_connecting_path(g, x, y, z) == want, (g, x, y, z)
                    queries += 1
    assert queries == 197_384


def test_connecting_path_matches_enumeration_on_random_graphs():
    rng = random.Random(20261020)
    found = 0
    for _ in range(20_000):
        n = rng.randint(5, 10)
        # each pair unjoined with probability 0.6, else a uniform mark
        code = 0
        for p in range(n * (n - 1) // 2):
            code |= (0 if rng.random() < 0.6 else rng.randint(1, 3)) << 2 * p
        g = graph_from_pair_code(n, code)
        x, y = rng.sample(range(n), 2)
        z = [v for v in range(n) if v not in (x, y) and rng.random() < 0.3]
        want = connecting_path_by_enumeration(g, x, y, z)
        assert find_connecting_path(g, x, y, z) == want, (g, x, y, z)
        found += want is not None
    assert 0 < found < 20_000


def test_connecting_path_ends_at_once_when_none_exists():
    # x -> w -> y for every middle node w, the middle nodes pairwise <->,
    # and Z the middle nodes: every one of the about e * (n - 2)! simple
    # paths is blocked
    for n in range(11, 15):
        x, y, middle = 0, n - 1, range(1, n - 1)
        edges = [directed(x, w) for w in middle] + [directed(w, y) for w in middle]
        edges += [bidirected(a, b) for a, b in itertools.combinations(middle, 2)]
        g = MixedGraph(n, edges)
        t0 = time.perf_counter()
        assert find_connecting_path(g, x, y, middle) is None
        assert time.perf_counter() - t0 < 0.1


def _nonadjacent_ordered_pairs(g):
    for x in range(g.n):
        for y in range(g.n):
            if x != y and not g.has_edge(x, y):
                yield x, y


def test_find_separator_matches_bruteforce_exhaustively():
    # every mixed graph with n <= 4, ancestral or not, both orders of (x, y)
    pairs = 0
    for n in range(2, 5):
        for code in range(4 ** (n * (n - 1) // 2)):
            g = graph_from_pair_code(n, code)
            for x, y in _nonadjacent_ordered_pairs(g):
                got = find_separator(g, x, y)
                assert got == find_separator_bruteforce(g, x, y), (g, x, y)
                pairs += 1
    assert pairs == 12386


def test_find_separator_matches_bruteforce_on_sampled_codes():
    rng = random.Random(20261018)
    for _ in range(3000):
        g = graph_from_pair_code(5, rng.randrange(4**10))
        for x, y in _nonadjacent_ordered_pairs(g):
            want = find_separator_bruteforce(g, x, y)
            assert find_separator(g, x, y) == want, (g, x, y)


def test_find_separator_returns_first_of_several_minimum_separators():
    # 0 -> 5 (a parent of x on no x-y path), and two chains from x = 5 to
    # y = 6: 5 -> 3 -> 1 -> 6 and 5 <- 4 -> 2 -> 6.  Every pick of one node
    # per chain separates; the first in combinations order is {1, 2}.
    g = MixedGraph(
        7,
        [
            directed(0, 5),
            directed(5, 3),
            directed(3, 1),
            directed(1, 6),
            directed(4, 5),
            directed(4, 2),
            directed(2, 6),
        ],
    )
    assert find_separator(g, 5, 6) == frozenset({1, 2})
    assert find_separator(g, 6, 5) == frozenset({1, 2})
    assert find_separator_bruteforce(g, 5, 6) == frozenset({1, 2})
    for drop, first in ((1, {2}), (2, {1})):
        # with one chain broken, the first node that cuts the other
        h = MixedGraph(7, [e for e in g.edges if drop not in (e.u, e.v)])
        assert find_separator(h, 5, 6) == frozenset(first)
        assert find_separator_bruteforce(h, 5, 6) == frozenset(first)


def test_find_separator_after_a_flow_cycle():
    # The first augmenting path is 0-2-1-6-5-11.  The second enters it at 5
    # from 8 and runs backward to 2, taking the edge 6 - 1 forward, so the
    # flow is left with a unit on the cycle 1 - 6.  Neither 1 nor 6 is in a
    # minimum cut: {1, 2} leaves 0-4-7-8-5-11 open.
    pairs = [(0, 2), (0, 4), (2, 1), (2, 3), (1, 6), (6, 5), (4, 7), (7, 8)]
    pairs += [(8, 5), (3, 9), (9, 10), (10, 11), (5, 11)]
    g = MixedGraph(12, [directed(a, b) for a, b in pairs])
    assert find_separator_bruteforce(g, 0, 11) == frozenset({2, 4})
    assert find_separator(g, 0, 11) == frozenset({2, 4})
    assert find_separator(g, 11, 0) == frozenset({2, 4})


def _ring_with_chords(rng, n, chords):
    # long paths through nodes of degree two, where an augmenting path
    # often has to run backward along the flow
    label = list(range(n))
    rng.shuffle(label)
    rows = [0] * n
    ends = [(i, (i + 1) % n) for i in range(n)]
    ends += [(rng.randrange(n), rng.randrange(n)) for _ in range(chords)]
    for a, b in ends:
        a, b = label[a], label[b]
        if a != b:
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    return rows


def _gnp_rows(rng, n, p):
    # G(n, p): each edge present with probability p
    rows = [0] * n
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p:
                rows[a] |= 1 << b
                rows[b] |= 1 << a
    return rows


def _first_min_cut_agrees(rng, rows):
    # on one random pair; False when the pair drawn is adjacent
    n = len(rows)
    x, y = rng.sample(range(n), 2)
    if (rows[x] >> y) & 1:
        return False
    inner = ((1 << n) - 1) & ~((1 << x) | (1 << y))
    want = first_vertex_cut_bruteforce(rows, x, y, inner)
    assert _first_min_cut(rows, x, y, inner) == want, (rows, x, y)
    return True


def test_first_min_cut_matches_bruteforce_on_random_graphs():
    rng = random.Random(3)
    checked = 0
    for _ in range(5000):
        n = rng.randint(10, 14)
        rows = _ring_with_chords(rng, n, rng.choice((4, 6)))
        checked += _first_min_cut_agrees(rng, rows)
    assert checked > 3500
    checked = 0
    for _ in range(2000):
        rows = _gnp_rows(rng, rng.randint(8, 13), rng.choice((0.2, 0.35)))
        checked += _first_min_cut_agrees(rng, rows)
    assert checked > 1000


def _mediator_graph(rng, k):
    # x and y joined by k disjoint chains x - a - b - y with no collider
    # on them, so the smallest separator holds one node per chain
    ids = list(range(2 + 2 * k))
    rng.shuffle(ids)
    x, y = ids[0], ids[1]
    edges = []
    for i in range(k):
        a, b = ids[2 + 2 * i], ids[3 + 2 * i]
        shape = rng.randrange(3)
        edges.append(directed(x, a) if shape == 0 else directed(a, x))
        edges.append(directed(b, a) if shape == 2 else directed(a, b))
        edges.append(directed(b, y))
    return MixedGraph(len(ids), edges), x, y


def test_find_separator_on_wide_mediator_graphs():
    rng = random.Random(7)
    worst = 0.0
    for k in (20, 40):
        g, x, y = _mediator_graph(rng, k)
        t0 = time.perf_counter()
        z = find_separator(g, x, y)
        worst = max(worst, time.perf_counter() - t0)
        assert len(z) == k
        assert not m_connected(g, x, y, z)
    assert worst < 2.0  # about 9 ms at k = 40 on a 2-CPU machine


def test_find_separator_is_minimal_on_random_mags_at_scale():
    rng = random.Random(11)
    worst = 0.0
    sizes = []
    for n in (50, 100, 200):
        for degree in (3, 6):
            g = random_mag(rng, n, degree)
            pairs = list(_nonadjacent_ordered_pairs(g))
            rng.shuffle(pairs)
            # pairs that need a non-empty separator
            picked = (p for p in pairs if m_connected(g, *p))
            for x, y in itertools.islice(picked, 10):
                t0 = time.perf_counter()
                z = find_separator(g, x, y)
                worst = max(worst, time.perf_counter() - t0)
                assert not m_connected(g, x, y, z)
                for v in z:
                    assert m_connected(g, x, y, z - {v})
                sizes.append(len(z))
    assert max(sizes) >= 4
    assert worst < 1.0  # at most about 3 ms at n = 200 on a 2-CPU machine


def test_connecting_path_on_a_long_chain():
    n = 1200
    g = MixedGraph(n, [directed(i, i + 1) for i in range(n - 1)])
    assert find_connecting_path(g, 0, n - 1) == tuple(range(n))
    assert find_connecting_path(g, 0, n - 1, [n // 2]) is None
