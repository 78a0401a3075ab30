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

from oracles import conditioning_sets, m_connected_naive


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
