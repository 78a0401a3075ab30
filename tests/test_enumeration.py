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
from magmoves.cli import main
from magmoves.enumeration import _local_key_ids, _triple_masks
from magmoves.equivalence import _discriminating_witness, _head_rows, _local_key

from oracles import lemma1_by_paths, move_bits_by_legal_moves
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
    for bad_n in (-1, 2.0, True, 2**70):
        with pytest.raises(InputError):
            graph_from_pair_code(bad_n, 0)


@pytest.mark.parametrize(
    "n, code", [(2, 16), (2, 5), (2, -1), (1, 1), (2, 1.5), (2, "1"), (2, True)]
)
def test_decoder_rejects_bad_codes(n, code):
    with pytest.raises(InputError, match="pair code"):
        graph_from_pair_code(n, code)


@pytest.mark.parametrize(
    "n, code, key",
    [
        (14, 0, "14"),
        (14, 3 << 180, "14;12<>13"),
        (1000, 1, "1000;0>1"),
        pytest.param(
            1000, 3 << 2 * (1000 * 999 // 2 - 1), "1000;998<>999", id="1000-last-pair"
        ),
    ],
)
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
@pytest.mark.parametrize(
    "stream",
    [
        lambda n: list(enumeration.enumerate_mags(n)),
        enumeration.verify_theorems,
        enumeration.test_conjecture1,
        enumeration._SweepTable,
    ],
    ids=["enumerate_mags", "verify_theorems", "test_conjecture1", "_SweepTable"],
)
def test_enumeration_rechecks_kernel_codes(monkeypatch, stream, n, code, witness):
    # each stream checks the kernel's codes independently and names the
    # witness Mag() gives for the decoded graph
    with pytest.raises(NotAMagError, match=witness) as want:
        Mag(graph_from_pair_code(n, code))
    monkeypatch.setattr(
        _kernels, "enumerate_mag_codes", lambda n: np.array([code], np.int64)
    )
    with pytest.raises(NotAMagError) as got:
        stream(n)
    assert str(got.value) == str(want.value)


# 0 -> 1 -> 2 -> 0 sorts after the MAGs 3, 3;0<>1 and 3;0>1, so with
# blocks of two it fails at the start of the second block or inside it
_CYCLE = 1 | (2 << 2) | (1 << 4)
_PAST_A_BLOCK = [[0, 3, _CYCLE], [0, 1, 3, _CYCLE]]


@pytest.mark.parametrize("codes", _PAST_A_BLOCK, ids=["3rd", "4th"])
def test_enumerate_mags_stops_at_a_failed_recheck_past_a_block(monkeypatch, codes):
    # the MAGs before the failure are streamed, then Mag()'s error
    with pytest.raises(NotAMagError, match="directed cycle") as want:
        Mag(graph_from_pair_code(3, _CYCLE))
    before = sorted(graph_from_pair_code(3, c).canonical_key() for c in codes[:-1])
    monkeypatch.setattr(enumeration, "_BLOCK", 2)
    monkeypatch.setattr(
        _kernels, "enumerate_mag_codes", lambda n: np.array(codes, np.int64)
    )
    got = []
    with pytest.raises(NotAMagError) as raised:
        for m in enumeration.enumerate_mags(3):
            got.append(m.canonical_key())
    assert got == before
    assert str(raised.value) == str(want.value)


def test_row_test_matches_is_mag_exhaustively():
    # the sweeps' test on the node rows of every mixed graph with n <= 4
    for n in (1, 2, 3, 4):
        codes = np.arange(4 ** (n * (n - 1) // 2), dtype=np.int64)
        rows = [r.T.tolist() for r in _kernels.node_rows(n, codes)]
        got = [enumeration._is_mag_rows(*r, [None] * n) for r in zip(*rows)]
        want = [is_mag(graph_from_pair_code(n, c)) for c in codes.tolist()]
        assert got == want
        assert codes[got].tolist() == _kernels.enumerate_mag_codes(n).tolist()


@pytest.fixture
def check_calls(monkeypatch):
    # Mag.__init__, MixedGraph._trusted and row-test calls, counted
    calls = dict.fromkeys(("Mag", "graph", "rows"), 0)

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)

        return call

    monkeypatch.setattr(Mag, "__init__", counted("Mag", Mag.__init__))
    trusted = counted("graph", MixedGraph._trusted.__func__)
    monkeypatch.setattr(MixedGraph, "_trusted", classmethod(trusted))
    rows = counted("rows", enumeration._is_mag_rows)
    monkeypatch.setattr(enumeration, "_is_mag_rows", rows)
    return calls


def test_sweeps_check_rows_without_building_graphs(check_calls):
    # the independent check of all 2,492 MAGs at n = 4 runs on node rows:
    # no Mag or MixedGraph is built
    for sweep in (enumeration.test_conjecture1, enumeration.verify_theorems):
        check_calls.update(dict.fromkeys(check_calls, 0))
        sweep(4)
        assert check_calls == {"Mag": 0, "graph": 0, "rows": 2492}, sweep.__name__


def test_enumerate_checks_rows_and_writes_keys_without_building_graphs(
    check_calls, capsys
):
    # every one of the 2,492 MAGs at n = 4 passes the row test; the text
    # format writes the keys and builds no graph, JSON and DOT build each
    # checked graph once, and enumerate_mags wraps each checked graph with
    # no second check
    formats = (("text", 0, "\n"), ("json", 2492, "\n"), ("dot", 2492, "}\n"))
    for fmt, graphs, end in formats:
        check_calls.update(dict.fromkeys(check_calls, 0))
        assert main(["enumerate", "--n", "4", "--format", fmt]) == 0
        assert capsys.readouterr().out.count(end) == 2492, fmt
        assert check_calls == {"Mag": 0, "graph": graphs, "rows": 2492}, fmt
    check_calls.update(dict.fromkeys(check_calls, 0))
    assert len(list(enumeration.enumerate_mags(4))) == 2492
    assert check_calls == {"Mag": 0, "graph": 2492, "rows": 2492}


def _assert_block_decoder_matches_oracle(n):
    # The kernel's codes decoded one at a time by graph_from_pair_code and
    # sorted by their keys, against enumerate_mags' block decoding.
    codes = sorted(
        _kernels.enumerate_mag_codes(n).tolist(),
        key=lambda c: graph_from_pair_code(n, c).canonical_key(),
    )
    count = 0
    for code, m in zip(codes, enumeration.enumerate_mags(n)):
        got, want = m.graph, graph_from_pair_code(n, code)
        assert (got._pa, got._ch, got._sp) == (want._pa, want._ch, want._sp), code
        assert got.labels == want.labels
        # _trusted stores the key unchecked: rebuild it from the edges
        key = got.canonical_key()
        assert key == MixedGraph(n, got.edges).canonical_key() == want.canonical_key()
        count += 1
    assert count == len(codes)


def test_block_decoder_matches_per_code_decoder():
    for n in (1, 2, 3, 4):
        _assert_block_decoder_matches_oracle(n)


@pytest.mark.slow
def test_block_decoder_matches_per_code_decoder_on_every_n5_mag():
    _assert_block_decoder_matches_oracle(5)


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
    # the table's code lookup stands in for is_mag after a mark change only
    # because the enumeration holds every MAG
    table = enumeration._SweepTable(n)
    assert len(table.codes) == len(mags_by_n[n])
    changed = []
    for m in mags_by_n[n]:
        code = m.graph.pair_code
        for p in range(len(_kernels.pair_list(n))):
            for s in range(4):
                new = code & ~(3 << 2 * p) | s << 2 * p
                if new == code:
                    continue
                changed.append(new)
    found = table.lookup(np.array(changed, np.int64)).tolist()
    for new, j in zip(changed, found):
        assert (j >= 0) == is_mag(graph_from_pair_code(n, new))
        assert j < 0 or table.codes[j] == new
    assert len(changed) == len(mags_by_n[n]) * 3 * len(_kernels.pair_list(n))


def _assert_table_matches_partition(n, mags):
    # codes, canonical order, class ids and class numbering of the sweep
    # table, whose constructor runs the row check, against the public
    # partition
    table = enumeration._SweepTable(n)
    part = partition_into_classes(mags)
    keys = list(part.graphs_by_key)
    codes = table.codes.tolist()
    assert keys == sorted(keys)
    assert [graph_from_pair_code(n, c).canonical_key() for c in codes] == keys
    assert codes == [m.graph.pair_code for m in part.graphs_by_key.values()]
    assert table.lookup(table.codes).tolist() == list(range(len(codes)))
    assert table.class_id.tolist() == [part.class_of[k] for k in keys]
    place = {k: i for i, k in enumerate(keys)}
    assert [m.tolist() for m in table.members] == [
        [place[k] for k in c] for c in part.classes
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sweep_table_matches_partition(n, mags_by_n):
    _assert_table_matches_partition(n, mags_by_n[n])


@pytest.mark.slow
def test_sweep_table_matches_partition_at_n5():
    _assert_table_matches_partition(5, enumeration.enumerate_mags(5))


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


def _rows(graphs):
    # the node rows of graphs, as the sweep table holds them
    return _kernels.node_rows(graphs[0].n, np.array([g.pair_code for g in graphs]))


def _row_graphs(pa, ch, sp):
    # the graphs of node rows, one per column
    n = pa.shape[0]
    labels = tuple(f"V{i}" for i in range(n))
    return [
        MixedGraph._trusted(n, labels, *(r.tolist() for r in cols), None)
        for cols in zip(pa.T, ch.T, sp.T)
    ]


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
        # inside a bucket the loop asks the pair test alone
        def pair_test(*rows):
            mags = [Mag._trusted(g) for g in _row_graphs(*rows)]
            return lambda a, b: np.array(
                [equivalent(mags[i], mags[j]) for i, j in zip(a.tolist(), b.tolist())],
                dtype=bool,
            )

        monkeypatch.setattr(enumeration, "_pair_test", pair_test)
    if signature is None:
        signature = separation_signature
    else:
        # the sweep table groups by the ids of this one seam
        monkeypatch.setattr(
            enumeration,
            "_signature_ids",
            lambda *rows: [signature(g) for g in _row_graphs(*rows)],
        )
    want = _full_pair_loop(mags_by_n[3], equivalent, signature)
    got = enumeration.verify_theorems(3).checks["thm2_vs_oracle"]
    assert want
    assert list(got.violations) == want
    assert got.cases == 56**2


def _assert_local_key_ids_match(graphs):
    # the sweep's bucket ids pair off one to one with the local keys
    keys = [_local_key(g) for g in graphs]
    ids = _local_key_ids(*_rows(graphs)).tolist()
    assert len(set(zip(keys, ids))) == len(set(keys)) == len(set(ids))


def _assert_bucket_verdicts_match_search(mags, chunk=None, monkeypatch=None):
    # Every ordered pair of every local-key bucket among ``mags``, i >= j
    # included, through the sweep's pair test: with ``chunk`` given, the
    # unordered pairs come from _group_pairs in chunks of that many pairs
    # and are asked in both orders beside the diagonal.  Returns the pair
    # count and how many of them the search tells apart.
    graphs = [m.graph for m in mags]
    _assert_local_key_ids_match(graphs)
    verdicts = enumeration._pair_test(*_rows(graphs))
    keys = [_local_key(g) for g in graphs]
    buckets = {}
    for i, key in enumerate(keys):
        buckets.setdefault(key, []).append(i)
    pairs = [(i, j) for members in buckets.values() for i in members for j in members]
    if chunk is not None:
        monkeypatch.setattr(enumeration, "_PAIR_CHUNK", chunk)
        number = {key: b for b, key in enumerate(buckets)}
        chunks = list(enumeration._group_pairs(np.array([number[k] for k in keys])))
        unordered = [(i, j) for i, j in pairs if i < j]
        whole, rest = divmod(len(unordered), chunk)
        assert [len(a) for a, _ in chunks] == [chunk] * whole + [rest] * (rest > 0)
        a, b = (np.concatenate(x) for x in zip(*chunks))
        assert list(zip(a.tolist(), b.tolist())) == unordered
        diagonal = list(range(len(graphs)))
        pairs = list(zip([*a, *b, *diagonal], [*b, *a, *diagonal]))
    got = dict(zip(pairs, verdicts(*np.array(pairs).T).tolist()))
    want = {(i, j): equivalence_witness(mags[i], mags[j]) is None for i, j in pairs}
    assert got == want
    return len(pairs), sum(not v for v in want.values())


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


@pytest.mark.parametrize("chunk", [1, 4, 7])
def test_bucket_verdicts_match_discriminating_search_in_ragged_blocks(
    monkeypatch, mags_by_n, chunk
):
    # the n = 4 in-bucket pairs in blocks of 1, 4 or 7 pairs: the 43,405
    # unordered pairs make 6,200 blocks of 7 and a last one of 5, and the
    # blocks cut across buckets, the 6-graph ones (which hold every pair the
    # search tells apart at n = 4) included
    pairs, apart = _assert_bucket_verdicts_match_search(
        mags_by_n[4], chunk, monkeypatch
    )
    assert pairs == 89_302
    assert apart > 0


@pytest.mark.slow
def test_bucket_verdicts_match_discriminating_search_on_every_n5_mag():
    # the sweep's buckets, and the per-pair search on every in-bucket pair
    # with a candidate triple
    graphs = [m.graph for m in enumeration.enumerate_mags(5)]
    assert len(graphs) == 328_924
    _assert_local_key_ids_match(graphs)
    buckets = {}
    for i, g in enumerate(graphs):
        buckets.setdefault(_local_key(g), []).append(i)
    pa, ch, sp = _rows(graphs)
    verdicts = enumeration._pair_test(pa, ch, sp)
    f, c, _ = _triple_masks(pa, sp)
    heads = [_head_rows(g) for g in graphs]
    searches = 0
    for members in buckets.values():
        members = np.array(members)
        for i in members:
            want = np.ones(len(members), dtype=bool)
            for k in np.flatnonzero(f[i] & f[members] & (c[i] ^ c[members])):
                searches += 1
                j = members[k]
                want[k] = (
                    _discriminating_witness(graphs[i], graphs[j], heads[i], heads[j])
                    is None
                )
            got = verdicts(np.full(len(members), i), members)
            assert (got == want).all(), graphs[i]
    assert searches == 13_700_640


def test_triple_masks_stop_at_one_word():
    complete = MixedGraph(
        6, [directed(u, v) for u in range(6) for v in range(u + 1, 6)]
    )
    pa, _, sp = _rows([complete])
    with pytest.raises(ValueError):
        _triple_masks(pa, sp)


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


def _public_closure_gaps(n):
    # (class id, members missed) per class that equivalence_class_closure,
    # from the class's smallest key, does not cover.
    part = partition_into_classes(enumeration.enumerate_mags(n))
    gaps = []
    for cid, keys in enumerate(part.classes):
        res = transform.equivalence_class_closure(
            part.graphs_by_key[keys[0]], max_size=len(keys)
        )
        missed = len(set(keys) - res.keys)
        if missed:
            gaps.append((cid, missed))
    return gaps


def test_conjecture_masks_match_edge_by_edge_check(monkeypatch):
    # Deliberately wrong blanket predicates, so counterexamples exist: a
    # directed edge x -> y is blanketed only when x < y, a bi-directed one
    # against x only when x > y.  Every predicate and legal_moves ask the
    # module's one search, so it is the one patched; the sweep's move kernel
    # is swapped for the literal legal_moves bits, which the patch reaches.
    real = transform._failure

    def wrong(g, kind, x, y):
        if (kind is transform.MoveKind.DIR_TO_BI and x > y) or (
            kind is transform.MoveKind.BI_TO_DIR and x < y
        ):
            return "parent", None
        return real(g, kind, x, y)

    monkeypatch.setattr(transform, "_failure", wrong)
    monkeypatch.setattr(_kernels, "move_block", move_bits_by_legal_moves)
    want = _literal_counterexamples(4)
    rep = enumeration.test_conjecture1(4)
    assert want
    assert list(rep.counterexamples) == want
    # The denied moves leave members the closure never reaches; the sweep
    # counts them as gaps exactly as the public closure from each class's
    # smallest key misses them.
    gaps = _public_closure_gaps(4)
    assert gaps
    assert list(rep.closure_gaps) == gaps


def _leaking(g, kind, x, y, real=transform._failure):
    # x -> y is blanketed exactly when x < y
    if kind is not transform.MoveKind.DIR_TO_BI:
        return real(g, kind, x, y)
    return None if x < y else ("parent", None)


def test_conjecture_closure_is_the_walk_inside_each_class(monkeypatch):
    # A leaking predicate: x -> y is blanketed exactly when x < y, so some
    # licensed dir-to-bi moves lead out of the MAGs, some into another
    # class, and the denied ones leave members unreached.  The sweep's
    # closure must be the literal walk over apply_move results that stays
    # inside the class, and its counterexamples the edge-by-edge ones.
    monkeypatch.setattr(transform, "_failure", _leaking)
    # the sweep's move kernel as the literal legal_moves bits
    monkeypatch.setattr(_kernels, "move_block", move_bits_by_legal_moves)
    part = partition_into_classes(enumeration.enumerate_mags(4))
    gaps, no_mag, other_class = [], 0, 0
    for cid, keys in enumerate(part.classes):
        reached, todo = {keys[0]}, [keys[0]]
        while todo:
            m = part.graphs_by_key[todo.pop()]
            for mv in transform.legal_moves(m):
                try:
                    key = transform.apply_move(m, mv).canonical_key()
                except InputError:
                    no_mag += 1
                    continue
                if part.class_of[key] != cid:
                    other_class += 1
                elif key not in reached:
                    reached.add(key)
                    todo.append(key)
        if len(reached) < len(keys):
            gaps.append((cid, len(keys) - len(reached)))
    rep = enumeration.test_conjecture1(4)
    assert gaps and no_mag and other_class
    assert list(rep.closure_gaps) == gaps
    want = _literal_counterexamples(4)
    assert want
    assert list(rep.counterexamples) == want


def test_pair_chunks_leave_both_sweep_reports_unchanged(monkeypatch):
    # Both sweeps test their pairs in _group_pairs chunks; with one pair, 7
    # pairs and the default per chunk the reports must be equal.  verify
    # runs under a coarse signature, the local key, so that every pair the
    # search tells apart is a thm2_vs_oracle violation (the skeleton size
    # of the bucketed-oracle test gives 1.55 M violations at n = 4, too
    # many texts to write three times here), and conjecture under the
    # leaking predicate, which gives 5 counterexamples.
    def local_key_ids(*rows):
        first = {}
        return [first.setdefault(_local_key(g), len(first)) for g in _row_graphs(*rows)]

    reports = []
    for chunk in (enumeration._PAIR_CHUNK, 1, 7):
        monkeypatch.setattr(enumeration, "_PAIR_CHUNK", chunk)
        with monkeypatch.context() as patch:
            patch.setattr(enumeration, "_signature_ids", local_key_ids)
            verify = enumeration.verify_theorems(4)
        with monkeypatch.context() as patch:
            patch.setattr(transform, "_failure", _leaking)
            patch.setattr(_kernels, "move_block", move_bits_by_legal_moves)
            conjecture = enumeration.test_conjecture1(4)
        reports.append((verify, conjecture))
    assert len(reports[0][0].checks["thm2_vs_oracle"].violations) == 384
    assert reports[0][1].counterexamples == (
        ("4;0<>1;0<>2;1<>3;2>1;3>0", "4;0<>2;1<>2;1<>3;1>0;3>0", ("0<>1", "2>1")),
        ("4;0<>1;0<>3;1<>2;2>0;3>1", "4;0<>3;1<>2;1<>3;1>0;2>0", ("0<>1", "3>1")),
        (
            "4;0<>1;0<>3;1<>2;2<>3;2>0;3>1",
            "4;0<>2;0<>3;1<>2;1<>3;1>0;3>2",
            ("0<>1", "2<>3", "2>0", "3>1"),
        ),
        ("4;0<>2;0<>3;1<>2;1>0;3>2", "4;0<>3;1<>2;1>0;2<>3;2>0", ("0<>2", "3>2")),
        ("4;0<>2;0>1;1<>2;1<>3;3>2", "4;0<>2;0>1;1<>3;2<>3;2>1", ("1<>2", "3>2")),
    )
    assert reports[1] == reports[2] == reports[0]


def test_sweep_lookups_ask_for_sorted_codes(monkeypatch):
    # A move or mark flip adds one constant to the codes of the MAGs it
    # applies to, so taken in code order they stay sorted for searchsorted.
    lookup, queries = enumeration._SweepTable.lookup, []

    def recording(table, codes):
        queries.append(codes)
        return lookup(table, codes)

    monkeypatch.setattr(enumeration._SweepTable, "lookup", recording)
    enumeration.verify_theorems(4)
    enumeration.test_conjecture1(4)
    assert len(queries) == 84
    assert all((np.diff(codes) > 0).all() for codes in queries)


@pytest.mark.slow
def test_conjecture_closure_gaps_match_public_closure_on_every_n5_class():
    rep = enumeration.test_conjecture1(5)
    assert rep.class_count == 24_259
    assert list(rep.closure_gaps) == _public_closure_gaps(5)


def test_thm3_sound_reports_what_apply_move_finds(monkeypatch):
    # Every dir-to-bi and bi-to-dir move licensed, so some lead out of the
    # MAGs and some into another class: the check must report what
    # apply_move and a class lookup find, move by move, in order.
    real = transform._failure

    def licensed(g, kind, x, y):
        if kind is transform.MoveKind.REVERSE:
            return real(g, kind, x, y)
        return None

    monkeypatch.setattr(transform, "_failure", licensed)
    # the sweep's move kernel as the literal legal_moves bits
    monkeypatch.setattr(_kernels, "move_block", move_bits_by_legal_moves)
    part = partition_into_classes(enumeration.enumerate_mags(4))
    cases, want = 0, []
    for key, m in part.graphs_by_key.items():
        for mv in transform.legal_moves(m):
            if mv.kind is transform.MoveKind.REVERSE:
                continue
            cases += 1
            try:
                m2 = transform.apply_move(m, mv)
            except InputError as exc:
                want.append(f"{key} {mv}: {exc}")
                continue
            if part.class_of[m2.canonical_key()] != part.class_of[key]:
                want.append(f"{key} {mv} -> {m2.canonical_key()}: not equivalent")
    got = enumeration.verify_theorems(4).checks["thm3_sound"]
    unequal = sum(v.endswith(": not equivalent") for v in want)
    assert 0 < unequal < len(want)
    assert got.cases == cases
    assert list(got.violations) == want


def _literal_move_checks(n):
    # The five per-MAG checks of verify_theorems as a literal loop over the
    # public partition: every licensed move through apply_move, every mark
    # flip as a neighbour Mag looked up by its canonical key.
    part = partition_into_classes(enumeration.enumerate_mags(n))
    names = ("thm3_sound", "thm3_necessary", "thm4_iff", "lemma1", "lemma2")
    cases = dict.fromkeys(names, 0)
    viol = {name: [] for name in names}
    reverse = transform.MoveKind.REVERSE

    def neighbour(m, edge):
        g = m.graph.with_edge(edge)
        if not is_mag(g):
            return None, None
        return Mag(g), part.class_of[g.canonical_key()]

    for key, m in part.graphs_by_key.items():
        cid = part.class_of[key]
        moves = transform.legal_moves(m)
        licensed = {(mv.x, mv.y) for mv in moves if mv.kind is not reverse}
        screened = {(mv.x, mv.y) for mv in moves if mv.kind is reverse}
        for mv in moves:
            if mv.kind is reverse:
                continue
            cases["thm3_sound"] += 1
            try:
                m2 = transform.apply_move(m, mv)
            except InputError as exc:
                viol["thm3_sound"].append(f"{key} {mv}: {exc}")
                continue
            if part.class_of[m2.canonical_key()] != cid:
                viol["thm3_sound"].append(
                    f"{key} {mv} -> {m2.canonical_key()}: not equivalent"
                )
        for e in m.edges:
            for x, y in ((e.u, e.v), (e.v, e.u)):
                if (x, y) in licensed:
                    cases["lemma1"] += 1
                    if not enumeration.check_lemma1(m, x, y):
                        viol["lemma1"].append(
                            f"{key}: collider entry paths into {x} "
                            f"escape the blanket of {y}"
                        )
            if e.kind is EdgeKind.BIDIRECTED:
                continue
            u, v = e.u, e.v
            m2, cid2 = neighbour(m, bidirected(u, v))
            if cid2 == cid:
                cases["thm3_necessary"] += 1
                if (u, v) not in licensed:
                    viol["thm3_necessary"].append(
                        f"{key}: {u}>{v} flips but is not blanketed"
                    )
                back = transform._failure(m2.graph, transform.MoveKind.BI_TO_DIR, u, v)
                if back is not None:
                    viol["thm3_necessary"].append(
                        f"{m2.canonical_key()}: {u}<->{v} flips back but is not "
                        f"blanketed against {u}"
                    )
            cases["thm4_iff"] += 1
            same = neighbour(m, directed(v, u))[1] == cid
            if same != ((u, v) in screened):
                viol["thm4_iff"].append(
                    f"{key}: reversal of {u}>{v} equivalent={same} "
                    f"screened={(u, v) in screened}"
                )
            if (u, v) in screened:
                cases["lemma2"] += 1
                if (u, v) not in licensed:
                    viol["lemma2"].append(f"{key}: {u}>{v} screened but not blanketed")
    return cases, viol


def test_move_checks_report_what_the_literal_loop_finds(monkeypatch):
    # Wrong predicates: x -> y is blanketed exactly when x < y, x <-> y
    # against x never when x < y, and x -> y is screened whenever pa(y)
    # contains pa(x).  All five checks then find violations, and each must
    # report, in order, what the literal loop finds, including the flip
    # back, which asks the patched predicate.
    real = transform._failure

    def wrong(g, kind, x, y):
        if kind is transform.MoveKind.REVERSE:
            return ("parents", None) if g._pa[x] & ~g._pa[y] else None
        if kind is transform.MoveKind.DIR_TO_BI:
            return None if x < y else ("parent", None)
        return ("parent", None) if x < y else real(g, kind, x, y)

    monkeypatch.setattr(transform, "_failure", wrong)
    # the sweep's move kernel as the literal legal_moves bits
    monkeypatch.setattr(_kernels, "move_block", move_bits_by_legal_moves)
    cases, viol = _literal_move_checks(4)
    checks = enumeration.verify_theorems(4).checks
    for name in cases:
        assert checks[name].cases == cases[name], name
        assert list(checks[name].violations) == viol[name], name
        assert viol[name], name
    texts = viol["thm3_necessary"]
    assert any("flips but" in t for t in texts)
    assert any("flips back" in t for t in texts)
    assert any(t.endswith(": not equivalent") for t in viol["thm3_sound"])
