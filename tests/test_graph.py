import itertools
import random

import pytest

from magmoves import (
    Edge,
    EdgeKind,
    InputError,
    Mag,
    MixedGraph,
    NotAMagError,
    PreconditionError,
    SeparationQuery,
    ancestors,
    bidirected,
    canonical_key,
    check_lemma1,
    directed,
    discriminating_path_exists_for_triple,
    equivalence_class_closure,
    find_connecting_path,
    find_separator,
    format_path,
    graph_from_pair_code,
    graph_to_dot,
    graph_to_json,
    graph_to_json_dict,
    inducing_path_exists,
    is_ancestral,
    is_discriminating_path,
    is_mag,
    is_maximal,
    m_connected,
    m_separated_sets,
    parse_dot,
    parse_graph_json,
    separation_signature,
    simple_paths_between,
    unshielded_colliders,
)
from magmoves.graph import inducing_path_witness, mag_violation, maximality_witness

from oracles import (
    ancestors_dfs,
    inducing_path_bfs,
    inducing_path_exists_naive,
    is_ancestral_naive,
    is_inducing_path,
    is_mag_naive,
    maximality_witness_all_pairs,
    simple_paths_recursive,
)
from random_graphs import join_pair, random_ancestral, random_mag


def test_construction_rejects_self_loop():
    with pytest.raises(InputError):
        MixedGraph(2, [directed(0, 0)])


def test_construction_rejects_duplicate_pair():
    with pytest.raises(InputError, match="more than one edge"):
        MixedGraph(2, [directed(0, 1), bidirected(0, 1)])


def test_construction_rejects_unknown_node():
    with pytest.raises(InputError):
        MixedGraph(2, [directed(0, 2)])


def test_construction_rejects_bad_labels():
    with pytest.raises(InputError):
        MixedGraph(2, labels=("A",))
    with pytest.raises(InputError):
        MixedGraph(2, labels=("A", "A"))


def test_construction_rejects_ill_typed_arguments():
    for n in (2.5, "2", None, True, 2**70):
        with pytest.raises(InputError, match="node count"):
            MixedGraph(n)
    for edge in (
        lambda: Edge(EdgeKind.DIRECTED, "a", 1),
        lambda: Edge(EdgeKind.BIDIRECTED, 0, 1.0),
    ):
        with pytest.raises(InputError, match="non-integer endpoint"):
            MixedGraph(2, [edge()])
    for build in [
        lambda: MixedGraph(2, 5),
        lambda: MixedGraph(2, labels=5),
        lambda: MixedGraph(2, labels=[1, 2]),
        lambda: MixedGraph(2, [Edge("directed", 0, 1)]),
        lambda: MixedGraph(2, labels="ab"),
        lambda: MixedGraph(2, labels=b"ab"),
    ]:
        with pytest.raises(InputError):
            build()


def test_graph_calls_reject_ill_typed_arguments(g_edge):
    m = Mag(g_edge)
    for bad in (m, "g", None):
        for call in (
            is_ancestral,
            is_maximal,
            is_mag,
            mag_violation,
            maximality_witness,
            separation_signature,
            unshielded_colliders,
            lambda g: ancestors(g, 0),
            lambda g: inducing_path_witness(g, 0, 1),
            lambda g: list(simple_paths_between(g, 0, 1)),
            lambda g: format_path(g, (0, 1)),
            lambda g: m_connected(g, 0, 1),
            lambda g: find_connecting_path(g, 0, 1),
            lambda g: find_separator(g, 0, 1),
            lambda g: discriminating_path_exists_for_triple(g, 0, 1, 2),
        ):
            with pytest.raises(InputError):
                call(bad)
    for call in (
        lambda: m_connected(g_edge, 0, 1, None),
        lambda: m_connected(g_edge, 0, 1, 5),
        lambda: find_connecting_path(g_edge, 0, 1, None),
        lambda: m_separated_sets(g_edge, None),
        lambda: m_separated_sets(m, None),
        lambda: canonical_key("g"),
        lambda: check_lemma1("m", 0, 1),
        lambda: check_lemma1(g_edge, 0, 1),
    ):
        with pytest.raises(InputError):
            call()


_EDGE = MixedGraph(2, [directed(0, 1)])


@pytest.mark.parametrize(
    "call",
    [
        lambda: SeparationQuery(1, 2),
        lambda: SeparationQuery([[]], [1]),
        lambda: format_path(_EDGE, 5),
        lambda: format_path(_EDGE, ("x",)),
        lambda: format_path(_EDGE, (7,)),
        lambda: is_discriminating_path(_EDGE, 5, 0),
        lambda: graph_to_json_dict("x"),
        lambda: graph_to_dot("x"),
        lambda: graph_to_json(3),
        lambda: parse_graph_json(5),
        lambda: parse_dot(5),
    ],
    ids=[
        "query-int-sides",
        "query-unhashable-node",
        "format-int-path",
        "format-label-node",
        "format-unknown-node",
        "discriminating-int-path",
        "json-dict-of-str",
        "dot-of-str",
        "json-of-int",
        "parse-json-int",
        "parse-dot-int",
    ],
)
def test_public_calls_raise_input_error_on_ill_typed_arguments(call):
    with pytest.raises(InputError):
        call()


@pytest.mark.parametrize("bad", [5, "a", -1, True])
def test_ancestor_mask_rejects_unknown_nodes(bad):
    g = MixedGraph(2, [directed(0, 1)])
    with pytest.raises(InputError):
        g.ancestor_mask(bad)


def test_edge_rejects_ill_typed_endpoints():
    for build in (
        lambda: bidirected("a", 1),
        lambda: bidirected(1, "a"),
        lambda: directed(0, None),
        lambda: directed(True, 1),
    ):
        with pytest.raises(InputError, match="non-integer endpoint"):
            build()


def test_with_edge_rejects_ill_typed_arguments(g_edge):
    for call in (
        lambda: g_edge.with_edge("x"),
        lambda: g_edge.with_edge(None),
        lambda: g_edge.with_edge(directed(0, 2)),
        lambda: g_edge.with_edge(bidirected(-1, 1)),
    ):
        with pytest.raises(InputError):
            call()


def test_edge_rejects_unknown_kind():
    for kind in ("directed", "bidirected", None, 1):
        with pytest.raises(InputError, match="edge kind"):
            Edge(kind, 0, 1)


def test_bidirected_edge_normalizes_endpoints():
    assert bidirected(2, 1) == bidirected(1, 2)
    assert bidirected(2, 1).u == 1


def test_edge_queries(g_chain):
    assert g_chain.is_parent(0, 1)
    assert not g_chain.is_parent(1, 0)
    assert g_chain.has_edge(1, 0)
    assert g_chain.edge_between(0, 2) is None
    assert g_chain.arrowhead_toward(0, 1)
    assert not g_chain.arrowhead_toward(1, 0)


def test_spouse_queries(g_bicollider):
    assert g_bicollider.is_spouse(0, 1)
    assert g_bicollider.is_spouse(1, 0)
    assert g_bicollider.spouses(1) == {0, 2}
    assert g_bicollider.parents(1) == frozenset()


def test_ancestors_chain(g_chain):
    # labels (X, Z, Y): Y's ancestors are everyone
    assert ancestors(g_chain, 2) == {0, 1, 2}
    assert ancestors(g_chain, 0) == {0}


def test_ancestors_bidirected_only(g_bicollider):
    assert ancestors(g_bicollider, 1) == {1}


def test_is_ancestral_rejects_cycle():
    g = MixedGraph(2, [directed(0, 1)])
    assert is_ancestral(g)
    cyc = MixedGraph(3, [directed(0, 1), directed(1, 2), directed(2, 0)])
    assert not is_ancestral(cyc)


def test_is_ancestral_rejects_ancestor_spouse():
    g = MixedGraph(3, [directed(0, 1), directed(1, 2), bidirected(0, 2)])
    assert not is_ancestral(g)


def test_is_ancestral_nonmaximal_fixture(g_nonmaximal):
    assert is_ancestral(g_nonmaximal)


def test_inducing_path_adjacent_pair(g_edge):
    assert inducing_path_exists(g_edge, 0, 1)


def test_inducing_path_nonmaximal_fixture(g_nonmaximal):
    # (a, d) non-adjacent; a<->b<->c<->d qualifies: b in an(d), c in an(a)
    assert inducing_path_exists(g_nonmaximal, 0, 3)
    x, y, path = maximality_witness(g_nonmaximal)
    assert (x, y) == (0, 3)
    assert format_path(g_nonmaximal, path) == "a<->b<->c<->d"


def test_inducing_path_collider_not_ancestor(g_collider):
    assert not inducing_path_exists(g_collider, 0, 2)


def test_inducing_path_requires_distinct_nodes(g_edge):
    with pytest.raises(InputError):
        inducing_path_exists(g_edge, 0, 0)


def test_inducing_path_matches_naive_enumeration_exhaustively():
    from magmoves import graph_from_pair_code

    for n in range(2, 5):
        m = n * (n - 1) // 2
        for code in range(1 << (2 * m)):
            g = graph_from_pair_code(n, code)
            for x in range(n):
                for y in range(x + 1, n):
                    assert inducing_path_exists(g, x, y) == inducing_path_exists_naive(
                        g, x, y
                    ), (n, code, x, y)


def test_inducing_path_witness_satisfies_definition_exhaustively():
    from magmoves import graph_from_pair_code

    for n in range(2, 5):
        for code in range(1 << (n * (n - 1))):
            g = graph_from_pair_code(n, code)
            if not is_ancestral(g):
                continue
            for x in range(n):
                for y in range(n):
                    if x == y or g.has_edge(x, y):
                        continue
                    path = inducing_path_witness(g, x, y)
                    assert (path is None) == (
                        not inducing_path_exists_naive(g, x, y)
                    ), (n, code, x, y)
                    assert path == inducing_path_bfs(g, x, y), (n, code, x, y)
                    if path is not None:
                        assert path[0] == x and path[-1] == y, (n, code, path)
                        assert is_inducing_path(g, path), (n, code, path)


def test_inducing_path_witness_is_the_bfs_path_at_scale():
    # The witness texts of validate and Mag() print this path, so which path
    # is found is pinned, not only that it is one.  Dense graphs, for long
    # inducing paths; in an ancestral graph none has a single internal node.
    rng = random.Random(2022)
    lengths = set()
    for _ in range(20):
        g = random_ancestral(rng, rng.randint(20, 60), rng.randint(8, 18))
        for x, y in itertools.permutations(range(g.n), 2):
            if not g.has_edge(x, y):
                path = inducing_path_witness(g, x, y)
                assert path == inducing_path_bfs(g, x, y), (x, y)
                lengths.add(None if path is None else len(path))
    assert {None, 4, 5, 6, 7} <= lengths


def test_mag_constructor_matches_literal_oracles_exhaustively():
    from magmoves import graph_from_pair_code

    for n in range(1, 5):
        for code in range(1 << (n * (n - 1))):
            g = graph_from_pair_code(n, code)
            try:
                Mag(g)
            except NotAMagError as exc:
                assert not is_mag_naive(g), (n, code)
                assert str(exc).startswith("not ancestral:") == (
                    not is_ancestral_naive(g)
                ), (n, code, str(exc))
            else:
                assert is_mag_naive(g), (n, code)


def test_validity_matches_literal_oracles_exhaustively():
    from magmoves import graph_from_pair_code

    for n in range(1, 5):
        for code in range(1 << (n * (n - 1))):
            g = graph_from_pair_code(n, code)
            assert is_mag(g) == is_mag_naive(g), (n, code)
            # ancestor masks reuse each other's cache, so ask in both orders
            backwards = graph_from_pair_code(n, code)
            for x in range(n):
                expected = ancestors_dfs(g, x)
                assert ancestors(g, x) == expected, (n, code, x)
                assert ancestors(backwards, n - 1 - x) == ancestors_dfs(
                    g, n - 1 - x
                ), (n, code, n - 1 - x)


def test_maximality_witness_matches_all_pairs_scan_exhaustively():
    ancestral = found = 0
    for n in range(1, 5):
        for code in range(1 << (n * (n - 1))):
            g = graph_from_pair_code(n, code)
            if not is_ancestral(g):
                continue
            ancestral += 1
            got = maximality_witness(g)
            assert got == maximality_witness_all_pairs(g), (n, code)
            found += got is not None
    assert ancestral == 2565
    assert found == 12  # with an inducing path between non-adjacent nodes


def test_maximality_witness_matches_all_pairs_scan_on_sampled_codes():
    # Uniformly random codes: the ancestral ones agree with the all-pairs
    # scan, and the rest are refused.
    rng = random.Random(606)
    kept = refused = found = 0
    while kept < 10000:
        n = rng.randint(5, 9)
        absent = rng.choice((0.3, 0.5, 0.7))
        code = 0
        for p in range(n * (n - 1) // 2):
            if rng.random() >= absent:
                code |= rng.randint(1, 3) << (2 * p)
        g = graph_from_pair_code(n, code)
        if not is_ancestral(g):
            refused += 1
            with pytest.raises(PreconditionError):
                maximality_witness(g)
            continue
        kept += 1
        got = maximality_witness(g)
        assert got == maximality_witness_all_pairs(g), (n, code)
        found += got is not None
    assert refused > 0
    assert found > 40


def test_maximality_witness_matches_all_pairs_scan_on_ancestral_codes():
    # Random codes are rarely ancestral; these orient every directed edge
    # along a random node order and keep only the ancestral graphs.
    rng = random.Random(607)
    kept = found = 0
    while kept < 4000:
        n = rng.randint(5, 9)
        rank = list(range(n))
        rng.shuffle(rank)
        absent = rng.choice((0.3, 0.5, 0.7))
        code = 0
        for p, (i, j) in enumerate(itertools.combinations(range(n), 2)):
            if rng.random() >= absent:
                state = 3 if rng.random() < 0.6 else 1 if rank[i] < rank[j] else 2
                code |= state << (2 * p)
        g = graph_from_pair_code(n, code)
        if not is_ancestral(g):
            continue
        kept += 1
        got = maximality_witness(g)
        assert got == maximality_witness_all_pairs(g), (n, code)
        found += got is not None
    assert found > 150


def test_maximality_witness_matches_all_pairs_scan_on_ancestral_graphs():
    # Ancestral graphs built as random_mag builds them, joined one pair at a
    # time until maximal: the graphs the ancestral pruning decides.
    rng = random.Random(608)
    found = 0
    for _ in range(800):
        g = random_ancestral(rng, rng.randint(8, 60), rng.randint(2, 6))
        while True:
            assert is_ancestral(g)
            got = maximality_witness(g)
            assert got == maximality_witness_all_pairs(g)
            if got is None:
                break
            found += 1
            g = join_pair(g, *got[:2])
    assert found >= 120


def test_maximality_witness_matches_all_pairs_scan_at_scale():
    # The members of random n = 60 MAGs' closures.
    rng = random.Random(60)
    for degree in (2, 3, 4):
        m = Mag(random_mag(rng, 60, degree))
        for member in equivalence_class_closure(m, max_size=25).graphs.values():
            assert maximality_witness(member.graph) is None
            assert maximality_witness_all_pairs(member.graph) is None


def test_is_maximal_requires_ancestral():
    cyc = MixedGraph(3, [directed(0, 1), directed(1, 2), directed(2, 0)])
    path = MixedGraph(3, [directed(0, 1), directed(1, 2), bidirected(0, 2)])
    for g in (cyc, path):
        with pytest.raises(PreconditionError):
            is_maximal(g)
        with pytest.raises(PreconditionError):
            maximality_witness(g)


def test_is_mag_verdicts(g_triangle, g_nonmaximal, g_collider):
    assert is_mag(g_triangle)
    assert is_mag(g_collider)
    assert not is_mag(g_nonmaximal)


def test_mag_constructor_reports_witness(g_nonmaximal):
    with pytest.raises(NotAMagError, match="inducing path a<->b<->c<->d"):
        Mag(g_nonmaximal)
    cyc = MixedGraph(2, [directed(0, 1)]).with_edge(directed(0, 1))
    Mag(cyc)  # still a MAG
    with pytest.raises(NotAMagError, match="directed cycle"):
        Mag(MixedGraph(3, [directed(0, 1), directed(1, 2), directed(2, 0)]))
    with pytest.raises(NotAMagError, match="bi-directed edge"):
        Mag(MixedGraph(3, [directed(0, 1), directed(1, 2), bidirected(0, 2)]))


def test_canonical_key_format(g_edge):
    assert g_edge.canonical_key() == "2;0>1"
    assert MixedGraph(3).canonical_key() == "3"


def test_canonical_key_ignores_insertion_order():
    a = MixedGraph(3, [directed(0, 1), bidirected(1, 2)])
    b = MixedGraph(3, [bidirected(2, 1), directed(0, 1)])
    assert a.canonical_key() == b.canonical_key()
    assert a == b
    assert hash(a) == hash(b)


def test_canonical_key_distinguishes_orientation():
    assert (
        MixedGraph(2, [directed(0, 1)]).canonical_key()
        != MixedGraph(2, [directed(1, 0)]).canonical_key()
    )


def test_equality_ignores_labels():
    a = MixedGraph(2, [directed(0, 1)], labels=("X", "Y"))
    b = MixedGraph(2, [directed(0, 1)], labels=("P", "Q"))
    assert a == b


def test_with_edge_replaces_mark(g_edge):
    g = g_edge.with_edge(bidirected(0, 1))
    assert g.is_spouse(0, 1)
    assert not g.is_parent(0, 1)
    assert g.labels == g_edge.labels


def _rows(g):
    return (g.n, g.labels, g._pa, g._ch, g._sp, g._adj)


def test_with_edge_matches_edge_list_rebuild_exhaustively():
    for n in (2, 3):
        labels = tuple("abc"[:n])
        for code in range(4 ** (n * (n - 1) // 2)):
            g = graph_from_pair_code(n, code, labels=labels)
            before = _rows(g)
            for i in range(n):
                for j in range(i + 1, n):
                    for new in (directed(i, j), directed(j, i), bidirected(i, j)):
                        kept = [e for e in g.edges if e.pair != new.pair]
                        want = MixedGraph(n, kept + [new], labels=labels)
                        got = g.with_edge(new)
                        assert _rows(got) == _rows(want)
                        assert got.canonical_key() == want.canonical_key()
            assert _rows(g) == before  # the source graph is left as it was


def test_canonical_key_matches_sorted_edge_tokens_exhaustively():
    for n in range(1, 5):
        for code in range(4 ** (n * (n - 1) // 2)):
            g = graph_from_pair_code(n, code)
            tokens = sorted(e.token() for e in g.edges)
            assert g.canonical_key() == ";".join([str(n)] + tokens)
            assert MixedGraph(n, g.edges).canonical_key() == g.canonical_key()


def test_simple_paths_enumeration(g_chain):
    assert list(simple_paths_between(g_chain, 0, 2)) == [(0, 1, 2)]
    full = MixedGraph(3, [directed(0, 1), directed(1, 2), directed(0, 2)])
    assert sorted(simple_paths_between(full, 0, 2)) == [(0, 1, 2), (0, 2)]


def test_simple_paths_order_matches_recursive_walk_exhaustively():
    for n in range(2, 5):
        for code in range(4 ** (n * (n - 1) // 2)):
            g = graph_from_pair_code(n, code)
            for x in range(n):
                for y in range(n):
                    if x != y:
                        want = list(simple_paths_recursive(g, x, y))
                        assert list(simple_paths_between(g, x, y)) == want


def test_dag_is_always_a_mag():
    g = MixedGraph(4, [directed(0, 1), directed(0, 2), directed(1, 3), directed(2, 3)])
    assert is_mag(g)
