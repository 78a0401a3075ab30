import itertools
import random

import numpy as np
import pytest

from magmoves import (
    EdgeKind,
    InputError,
    Mag,
    MixedGraph,
    NotAMagError,
    bidirected,
    directed,
    equivalence_witness,
    graph_from_pair_code,
    is_ancestral,
    is_mag,
    markov_equivalent,
    partition_into_classes,
    separation_signature,
    unshielded_colliders,
)
from magmoves import _kernels, enumeration, transform
from magmoves.equivalence import _local_key, _triple_masks

from oracles import lemma1_by_paths
from random_graphs import mark_change_walk, random_dag


def test_code_round_trip():
    g = MixedGraph(3, [directed(0, 1), bidirected(1, 2)])
    # pair order (0,1), (0,2), (1,2): states 1, 0, 3
    code = 1 | (3 << 4)
    assert graph_from_pair_code(3, code) == g


def test_pair_code_inverts_the_decoder():
    # every mixed graph with n <= 3, built through the Edge API, then
    # sampled codes at n = 5-9
    for n in (1, 2, 3):
        pairs = _kernels.pair_list(n)
        for states in itertools.product(range(4), repeat=len(pairs)):
            marks = [
                (None, directed(u, v), directed(v, u), bidirected(v, u))[s]
                for (u, v), s in zip(pairs, states)
            ]
            g = MixedGraph(n, [e for e in marks if e is not None])
            assert g.pair_code == sum(s << 2 * p for p, s in enumerate(states))
            assert graph_from_pair_code(n, g.pair_code) == g
    rng = random.Random(5)
    for n in range(5, 10):
        for _ in range(200):
            code = rng.randrange(4 ** (n * (n - 1) // 2))
            g = MixedGraph(n, graph_from_pair_code(n, code).edges)
            assert g.pair_code == code
            assert graph_from_pair_code(n, g.pair_code) == g


def test_decoder_matches_validating_constructor():
    for n in range(1, 5):
        for code in range(1 << (n * (n - 1))):
            edges = []
            for p, (u, v) in enumerate(_kernels.pair_list(n)):
                s = (code >> (2 * p)) & 3
                if s:
                    edge = [directed(u, v), directed(v, u), bidirected(u, v)][s - 1]
                    edges.append(edge)
            expected = MixedGraph(n, edges)
            got = graph_from_pair_code(n, code)
            assert got == expected and hash(got) == hash(expected), (n, code)
            assert got.canonical_key() == expected.canonical_key(), (n, code)
            assert got.labels == expected.labels
            for x in range(n):
                assert got.parents(x) == expected.parents(x)
                assert got.children(x) == expected.children(x)
                assert got.spouses(x) == expected.spouses(x)
                assert got.neighbors(x) == expected.neighbors(x)


def test_decoder_labels():
    g = graph_from_pair_code(2, 1, labels=("X", "Y"))
    assert g.labels == ("X", "Y") and g == MixedGraph(2, [directed(0, 1)])
    for bad in (("X",), ("X", "X")):
        with pytest.raises(InputError):
            graph_from_pair_code(2, 1, labels=bad)
    for bad_n in (-1, 2.0, True):
        with pytest.raises(InputError):
            graph_from_pair_code(bad_n, 0)


@pytest.mark.parametrize(
    "n, code", [(2, 16), (2, 5), (2, -1), (1, 1), (2, 1.5), (2, "1"), (2, True)]
)
def test_decoder_rejects_bad_codes(n, code):
    with pytest.raises(InputError, match="pair code"):
        graph_from_pair_code(n, code)


@pytest.mark.parametrize("n, code, key", [(14, 0, "14"), (14, 3 << 180, "14;12<>13")])
def test_decoder_handles_large_n(n, code, key):
    assert graph_from_pair_code(n, code).canonical_key() == key


@pytest.mark.parametrize(
    "n, code, witness",
    [
        (3, 1 | (2 << 2) | (1 << 4), "directed cycle"),  # 0->1->2->0
        # a<->b<->c<->d with b->d and c->a: pairs (0,1) (0,2) (0,3) (1,2)
        # (1,3) (2,3) in states 3, 2, 0, 3, 1, 3
        (4, 3 | (2 << 2) | (3 << 6) | (1 << 8) | (3 << 10), "inducing path"),
    ],
)
def test_enumeration_rechecks_kernel_codes(monkeypatch, n, code, witness):
    monkeypatch.setattr(
        _kernels, "enumerate_mag_codes", lambda n: np.array([code], np.int64)
    )
    with pytest.raises(NotAMagError, match=witness):
        list(enumeration.enumerate_mags(n))


def test_counts_small():
    assert len(list(enumeration.enumerate_mags(1))) == 1
    assert len(list(enumeration.enumerate_mags(2))) == 4
    assert len(list(enumeration.enumerate_mags(3))) == 56
    assert len(list(enumeration.enumerate_mags(4))) == 2492


def test_two_node_inventory():
    keys = [m.canonical_key() for m in enumeration.enumerate_mags(2)]
    assert keys == sorted(["2", "2;0>1", "2;1>0", "2;0<>1"])


def test_stream_is_sorted_and_duplicate_free(mags_by_n):
    for n in (1, 2, 3, 4):
        keys = [m.canonical_key() for m in mags_by_n[n]]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_every_emitted_graph_is_validated(mags_by_n):
    for m in mags_by_n[3]:
        assert isinstance(m, Mag)
        assert is_mag(m.graph)


def test_n_range_enforced():
    for bad in (0, 6, -1, "3", 2.0):
        with pytest.raises(InputError):
            list(enumeration.enumerate_mags(bad))


def test_partition_two_nodes(mags_by_n):
    part = partition_into_classes(mags_by_n[2])
    assert part.class_count == 2
    assert part.classes == (("2",), ("2;0<>1", "2;0>1", "2;1>0"))
    assert part.class_of["2;0>1"] == 1


def test_partition_single_node(mags_by_n):
    part = partition_into_classes(mags_by_n[1])
    assert part.class_count == 1


def test_partition_counts(mags_by_n):
    assert partition_into_classes(mags_by_n[3]).class_count == 11
    assert partition_into_classes(mags_by_n[4]).class_count == 248


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_partition_matches_grouping_by_separation_signature(n, mags_by_n):
    groups = {}
    for m in mags_by_n[n]:
        groups.setdefault(separation_signature(m.graph), set()).add(
            m.canonical_key()
        )
    part = partition_into_classes(mags_by_n[n])
    assert sorted(map(set, part.classes), key=min) == sorted(
        groups.values(), key=min
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_code_lookup_membership_equals_is_mag(n, mags_by_n):
    # the code -> class dict stands in for is_mag after a mark change only
    # because the enumeration holds every MAG
    by_code = enumeration._class_by_code(partition_into_classes(mags_by_n[n]))
    assert len(by_code) == len(mags_by_n[n])
    changed = 0
    for m in mags_by_n[n]:
        code = m.graph.pair_code
        for p in range(len(_kernels.pair_list(n))):
            for s in range(4):
                new = code & ~(3 << 2 * p) | s << 2 * p
                if new == code:
                    continue
                changed += 1
                assert (new in by_code) == is_mag(graph_from_pair_code(n, new))
    assert changed == len(mags_by_n[n]) * 3 * len(_kernels.pair_list(n))


def test_partition_members_share_skeleton_and_colliders(mags_by_n):
    part = partition_into_classes(mags_by_n[3])
    for keys in part.classes:
        members = [part.graphs_by_key[k] for k in keys]
        first = members[0].graph
        for m in members[1:]:
            assert m.graph.skeleton() == first.skeleton()
            assert unshielded_colliders(m.graph) == unshielded_colliders(first)


def test_partition_rejects_mixed_node_sets(mags_by_n):
    with pytest.raises(InputError):
        partition_into_classes(mags_by_n[2] + mags_by_n[3])


def test_chain_and_collider_in_different_classes(g_chain, g_collider, mags_by_n):
    part = partition_into_classes(mags_by_n[3])
    assert (
        part.class_of[Mag(g_chain).canonical_key()]
        != part.class_of[Mag(g_collider).canonical_key()]
    )


def test_check_lemma1_vacuous(g_edge):
    assert enumeration.check_lemma1(Mag(g_edge), 0, 1)


def test_check_lemma1_requires_blanketed(g_unshared_parent):
    with pytest.raises(InputError):
        enumeration.check_lemma1(Mag(g_unshared_parent), 1, 2)
    with pytest.raises(InputError):
        enumeration.check_lemma1(Mag(g_unshared_parent), 0, 2)


def test_check_lemma1_nontrivial_family():
    # A <-> B <-> X <-> Y with A -> Y, B -> Y: the collider entry paths into
    # X are (B,), (A, B), and each satisfies the parent clause
    g = MixedGraph(
        4,
        [
            bidirected(0, 1),
            bidirected(1, 2),
            bidirected(2, 3),
            directed(0, 3),
            directed(1, 3),
        ],
        labels=("A", "B", "X", "Y"),
    )
    m = Mag(g)
    assert enumeration.check_lemma1(m, 2, 3)


def _adjacent_ordered_pairs(g):
    for e in g.edges:
        yield e.u, e.v
        yield e.v, e.u


def test_lemma1_core_matches_path_oracle_exhaustively():
    # every ordered adjacent pair of every mixed graph with n <= 4,
    # blanketed or not, ancestral or not
    pairs = failing = 0
    for n in range(2, 5):
        for code in range(4 ** (n * (n - 1) // 2)):
            g = graph_from_pair_code(n, code)
            for x, y in _adjacent_ordered_pairs(g):
                want = lemma1_by_paths(g, x, y)
                assert enumeration._lemma1_holds(g, x, y) == want, (g, x, y)
                pairs += 1
                failing += not want
    assert (pairs, failing) == (37158, 9540)


def test_lemma1_core_matches_path_oracle_on_sampled_codes():
    rng = random.Random(20261019)
    failing = 0
    for n in (5, 6, 7):
        for _ in range(400):
            g = graph_from_pair_code(n, rng.randrange(4 ** (n * (n - 1) // 2)))
            for x, y in _adjacent_ordered_pairs(g):
                want = lemma1_by_paths(g, x, y)
                assert enumeration._lemma1_holds(g, x, y) == want, (g, x, y)
                failing += not want
    assert failing


def test_verify_theorems_small():
    rep = enumeration.verify_theorems(2)
    assert rep.mag_count == 4
    assert rep.class_count == 2
    assert set(rep.checks) == {
        "thm3_sound",
        "thm3_necessary",
        "thm4_iff",
        "lemma1",
        "lemma2",
        "thm2_vs_oracle",
    }
    assert all(c.passed for c in rep.checks.values())
    assert rep.checks["thm2_vs_oracle"].cases == 16
    payload = rep.to_json_dict()
    assert payload["n"] == 2
    assert payload["checks"]["thm3_sound"]["passed"] is True


def test_conjecture_report_small():
    rep = enumeration.test_conjecture1(2)
    assert rep.mag_count == 4
    assert rep.class_count == 2
    assert rep.pairs_examined == 3
    assert rep.counterexamples == ()
    assert rep.closure_gaps == ()
    payload = rep.to_json_dict()
    assert payload["counterexamples"] == []
    assert payload["closure_gaps"] == []


def test_conjecture_report_trivial():
    rep = enumeration.test_conjecture1(1)
    assert rep.mag_count == 1
    assert rep.pairs_examined == 0


def test_ancestral_filter_counts_match_kernels():
    # third route: count MAGs among ancestral graphs by the python filter
    for n in (2, 3):
        total = 0
        for code in range(1 << (2 * (n * (n - 1) // 2))):
            g = graph_from_pair_code(n, code)
            if is_ancestral(g) and is_mag(g):
                total += 1
        assert total == len(list(enumeration.enumerate_mags(n)))


def _full_pair_loop(mags, equivalent, signature):
    # thm2_vs_oracle as the literal loop over every ordered pair
    sigs = [signature(m.graph) for m in mags]
    return [
        f"{a.canonical_key()} vs {b.canonical_key()}: "
        f"graphical={equivalent(a, b)} brute={sigs[i] == sigs[j]}"
        for i, a in enumerate(mags)
        for j, b in enumerate(mags)
        if equivalent(a, b) != (sigs[i] == sigs[j])
    ]


def _same_key(a, b):
    return _local_key(a.graph) == _local_key(b.graph)


def _spouse_count(m):
    return sum(bin(mask).count("1") for mask in m.graph._sp)


@pytest.mark.parametrize(
    "equivalent, signature",
    [
        # also asks for as many bi-directed edges on both sides
        (lambda a, b: _same_key(a, b) and _spouse_count(a) == _spouse_count(b), None),
        # a graph is equivalent only to itself
        (lambda a, b: _same_key(a, b) and a == b, None),
        # the real test against a signature whose classes span buckets
        (None, lambda g: len(g.skeleton())),
    ],
    ids=["spouse-count", "identity", "coarse-signature"],
)
def test_bucketed_oracle_check_matches_full_pair_loop(
    monkeypatch, mags_by_n, equivalent, signature
):
    if equivalent is None:
        equivalent = markov_equivalent
    else:
        # inside a bucket the loop asks the bucket verdicts alone
        monkeypatch.setattr(
            enumeration,
            "_bucket_verdicts",
            lambda graphs: (
                np.array([equivalent(Mag._trusted(a), Mag._trusted(b)) for b in graphs])
                for a in graphs
            ),
        )
    if signature is None:
        signature = separation_signature
    else:
        # the partition groups by the ids of this one seam
        monkeypatch.setattr(
            enumeration,
            "_signature_ids",
            lambda graphs: [signature(g) for g in graphs],
        )
    want = _full_pair_loop(mags_by_n[3], equivalent, signature)
    got = enumeration.verify_theorems(3).checks["thm2_vs_oracle"]
    assert want
    assert list(got.violations) == want
    assert got.cases == 56**2


def _assert_bucket_verdicts_match_search(mags):
    # Every ordered pair of every local-key bucket among ``mags``; returns
    # the pair count and how many of them the search tells apart.
    buckets = {}
    for m in mags:
        buckets.setdefault(_local_key(m.graph), []).append(m)
    pairs = apart = 0
    for members in buckets.values():
        graphs = [m.graph for m in members]
        got = [list(row) for row in enumeration._bucket_verdicts(graphs)]
        want = [[equivalence_witness(a, b) is None for b in members] for a in members]
        assert got == want, graphs
        pairs += len(graphs) ** 2
        apart += sum(not v for row in want for v in row)
    return pairs, apart


def test_bucket_verdicts_match_discriminating_search(mags_by_n):
    counts = [_assert_bucket_verdicts_match_search(mags_by_n[n]) for n in (1, 2, 3, 4)]
    assert counts[3][0] == 89_302
    assert counts[3][1] > 0


def test_bucket_verdicts_match_discriminating_search_on_random_walks():
    rng = random.Random(8)
    pairs = apart = 0
    for _ in range(60):
        start = Mag(random_dag(rng, 5, rng.uniform(2.0, 4.0)))
        if not start.edges:
            continue
        walk = set(mark_change_walk(rng, start, 60))
        p, a = _assert_bucket_verdicts_match_search(
            sorted(walk | {start}, key=Mag.canonical_key)
        )
        pairs += p
        apart += a
    assert pairs > 10_000
    assert apart > 0


def test_triple_masks_stop_at_one_word():
    complete = MixedGraph(
        6, [directed(u, v) for u in range(6) for v in range(u + 1, 6)]
    )
    with pytest.raises(ValueError):
        _triple_masks([complete])


def _literal_counterexamples(n):
    # The conjecture sweep edge by edge: an equivalent pair is a
    # counterexample when no differing edge is blanketed on either side.
    part = partition_into_classes(enumeration.enumerate_mags(n))
    out = []
    for keys in part.classes:
        members = [part.graphs_by_key[k] for k in keys]
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                d = transform.delta(a, b)
                if not any(_edge_blanketed(m, e) for e in d for m in (a, b)):
                    out.append(
                        (a.canonical_key(), b.canonical_key(),
                         tuple(sorted(e.token() for e in d)))
                    )
    return out


def _edge_blanketed(m, edge):
    e = m.graph.edge_between(edge.u, edge.v)
    if e.kind is EdgeKind.DIRECTED:
        return transform.is_blanketed_directed(m, e.u, e.v)
    return transform.is_blanketed_bidirected_against(
        m, e.u, e.v
    ) or transform.is_blanketed_bidirected_against(m, e.v, e.u)


def test_conjecture_masks_match_edge_by_edge_check(monkeypatch):
    # Deliberately wrong blanket predicates, so counterexamples exist: a
    # directed edge x -> y is blanketed only when x < y, a bi-directed one
    # against x only when x > y.  Every predicate and legal_moves ask the
    # module's one search, so it is the one patched.
    real = transform._failure

    def wrong(g, kind, x, y):
        if (kind is transform.MoveKind.DIR_TO_BI and x > y) or (
            kind is transform.MoveKind.BI_TO_DIR and x < y
        ):
            return "parent", None
        return real(g, kind, x, y)

    monkeypatch.setattr(transform, "_failure", wrong)
    want = _literal_counterexamples(4)
    rep = enumeration.test_conjecture1(4)
    assert want
    assert list(rep.counterexamples) == want
