"""Randomized invariants over the pair-code graph space."""

from hypothesis import given, settings, strategies as st

from magmoves import _kernels
from magmoves.enumeration import graph_from_pair_code
from magmoves.graph import (
    Mag,
    MixedGraph,
    ancestors,
    directed,
    is_ancestral,
    is_mag,
)
from magmoves.io import graph_to_dot, graph_to_json, parse_dot, parse_graph_json
from magmoves.separation import find_separator, m_connected

from oracles import m_connected_naive

MAG_CODES = {
    n: [int(c) for c in _kernels.enumerate_mag_codes(n)] for n in (2, 3, 4)
}

_label_text = st.text(
    st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8
)


@st.composite
def coded_graphs(draw, min_n=1, max_n=4, labeled=False):
    n = draw(st.integers(min_n, max_n))
    npairs = n * (n - 1) // 2
    code = draw(st.integers(0, (1 << (2 * npairs)) - 1))
    labels = None
    if labeled:
        labels = draw(
            st.lists(_label_text, min_size=n, max_size=n, unique=True)
        )
    return graph_from_pair_code(n, code, labels=labels)


@st.composite
def coded_mags(draw, max_n=4):
    n = draw(st.integers(2, max_n))
    code = draw(st.sampled_from(MAG_CODES[n]))
    return Mag(graph_from_pair_code(n, code))


@st.composite
def separation_cases(draw):
    g = draw(coded_graphs(min_n=2))
    x = draw(st.integers(0, g.n - 1))
    y = draw(st.integers(0, g.n - 1).filter(lambda v: v != x))
    rest = [v for v in range(g.n) if v not in (x, y)]
    z = [v for v in rest if draw(st.booleans())]
    return g, x, y, z


@settings(deadline=None, max_examples=150)
@given(separation_cases())
def test_walk_and_path_semantics_agree(case):
    g, x, y, z = case
    assert m_connected(g, x, y, z) == m_connected_naive(g, x, y, z)


@settings(deadline=None, max_examples=150)
@given(separation_cases())
def test_connection_is_symmetric(case):
    g, x, y, z = case
    assert m_connected(g, x, y, z) == m_connected(g, y, x, z)


@settings(deadline=None)
@given(coded_graphs(labeled=True))
def test_json_round_trip(g):
    back = parse_graph_json(graph_to_json(g))
    assert back == g
    assert back.labels == g.labels


@settings(deadline=None)
@given(coded_graphs(labeled=True))
def test_dot_round_trip(g):
    back = parse_dot(graph_to_dot(g))
    assert back == g
    assert back.labels == g.labels


@settings(deadline=None)
@given(coded_graphs(), st.randoms(use_true_random=False))
def test_canonical_key_ignores_edge_order(g, rng):
    shuffled = list(g.edges)
    rng.shuffle(shuffled)
    assert MixedGraph(g.n, shuffled).canonical_key() == g.canonical_key()


@settings(deadline=None)
@given(coded_graphs())
def test_ancestor_sets_reflexive_and_transitive(g):
    for v in range(g.n):
        an_v = ancestors(g, v)
        assert v in an_v
        for w in an_v:
            assert ancestors(g, w) <= an_v


@settings(deadline=None)
@given(coded_graphs())
def test_mag_implies_ancestral(g):
    if is_mag(g):
        assert is_ancestral(g)


@settings(deadline=None, max_examples=100)
@given(coded_mags())
def test_nonadjacent_pairs_in_mags_are_separable(m):
    g = m.graph
    for x in range(g.n):
        for y in range(x + 1, g.n):
            if g.has_edge(x, y):
                continue
            z = find_separator(g, x, y)
            assert z is not None
            assert not m_connected(g, x, y, z)


@settings(deadline=None)
@given(st.integers(2, 5), st.permutations(list(range(5))), st.integers(0, 1023))
def test_random_dag_is_mag(n, order, mask):
    # orient every selected pair along a fixed topological order: acyclic
    pairs = _kernels.pair_list(n)
    rank = [v for v in order if v < n]
    pos = {v: k for k, v in enumerate(rank)}
    edges = []
    for idx, (i, j) in enumerate(pairs):
        if (mask >> idx) & 1:
            u, v = (i, j) if pos[i] < pos[j] else (j, i)
            edges.append(directed(u, v))
    assert is_mag(MixedGraph(n, edges))
