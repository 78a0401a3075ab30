import itertools
import random

import numpy as np
import pytest

from magmoves import _kernels, graph
from magmoves.enumeration import (
    _lemma1_holds,
    _lemma1_rows,
    enumerate_mags,
    graph_from_pair_code,
)
from magmoves.graph import is_mag
from magmoves.separation import separation_signature

from oracles import (
    directed_path_queue,
    inducing_path_queue,
    lemma1_by_paths,
    move_bits_by_legal_moves,
)
from random_graphs import random_mag


def test_pair_list_order():
    assert _kernels.pair_list(3) == [(0, 1), (0, 2), (1, 2)]
    assert _kernels.pair_list(1) == []


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_numpy_codes_match_reference_filter(n):
    codes = _kernels.enumerate_mag_codes(n)
    assert list(codes) == sorted(codes)
    # independent check: decode each candidate and test it directly
    total = 1 << (2 * len(_kernels.pair_list(n)))
    expected = [
        c for c in range(total) if is_mag(graph_from_pair_code(n, c))
    ]
    assert list(codes) == expected


def test_dispatcher_matches_active_backend():
    got = _kernels.enumerate_mag_codes(3)
    assert len(got) == 56
    assert np.array_equal(got, _kernels.enumerate_mag_codes(3))


def _kernel_signatures(graphs, dtype):
    # signature_block on the graphs' node rows, each row of bytes read back
    # as the integer separation_signature packs
    n = graphs[0].n
    rows = [
        np.array([getattr(g, name) for g in graphs], dtype).reshape(-1, n).T.copy()
        for name in ("_pa", "_ch", "_sp")
    ]
    bits = _kernels.signature_block(*rows)
    assert bits.shape[0] == len(graphs) and bits.dtype == np.uint8
    return [int.from_bytes(row.tobytes(), "little") for row in bits]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_signature_block_matches_separation_signature_exhaustively(n):
    # every mixed graph on n nodes, cyclic and non-ancestral ones included
    graphs = [
        graph_from_pair_code(n, c) for c in range(1 << (2 * len(_kernels.pair_list(n))))
    ]
    assert _kernel_signatures(graphs, np.uint8) == [
        separation_signature(g) for g in graphs
    ]


@pytest.mark.parametrize(
    "n, count, dtype",
    [(5, 200, np.uint8), (6, 60, np.uint8), (7, 25, np.uint8), (8, 10, np.uint8),
     (9, 4, np.uint16), (8, 10, np.uint64)],
)
def test_signature_block_matches_separation_signature_on_seeded_graphs(
    n, count, dtype
):
    # uniformly random pair codes, which are mostly not MAGs, and as many
    # random MAGs; the row dtype only needs n bits
    rng = random.Random(n * 1000 + count)
    graphs = [
        graph_from_pair_code(n, rng.randrange(4 ** len(_kernels.pair_list(n))))
        for _ in range(count)
    ] + [random_mag(rng, n, 2.5) for _ in range(count)]
    assert _kernel_signatures(graphs, dtype) == [
        separation_signature(g) for g in graphs
    ]


@pytest.mark.slow
def test_signature_block_matches_separation_signature_on_every_n5_mag():
    graphs = [m.graph for m in enumerate_mags(5)]
    assert len(graphs) == 328924
    assert _kernel_signatures(graphs, np.uint8) == [
        separation_signature(g) for g in graphs
    ]


def _assert_move_block_matches_legal_moves(rows):
    got = _kernels.move_block(*rows)
    want = move_bits_by_legal_moves(*rows)
    assert len(got) == 3
    for g, w in zip(got, want):
        assert g.dtype == np.uint64 and g.shape == (rows[0].shape[1],)
        assert np.array_equal(g, w)
    return got


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_move_block_matches_legal_moves_on_every_mag(n):
    codes = _kernels.enumerate_mag_codes(n)
    bits = _assert_move_block_matches_legal_moves(_kernels.node_rows(n, codes))
    # every kind is licensed somewhere once there are three nodes
    assert n < 3 or all(b.any() for b in bits)


@pytest.mark.slow
def test_move_block_matches_legal_moves_on_every_n5_mag():
    codes = _kernels.enumerate_mag_codes(5)
    assert len(codes) == 328924
    _assert_move_block_matches_legal_moves(_kernels.node_rows(5, codes))


@pytest.mark.parametrize("n, degree", [(6, 2.5), (7, 3.0), (8, 3.5), (8, 5.0)])
def test_move_block_matches_legal_moves_on_seeded_mags(n, degree):
    rng = random.Random(2300 + n * 10 + int(degree))
    graphs = [random_mag(rng, n, degree) for _ in range(150)]
    rows = np.array([(g._pa, g._ch, g._sp) for g in graphs], np.uint8)
    bits = _assert_move_block_matches_legal_moves(rows.transpose(1, 2, 0).copy())
    # the moves reach the top bits: bit 7 * 8 + 6 = 62 is the highest pair
    top = max(int(b).bit_length() for kind in bits for b in kind.tolist())
    assert top > 32 if n < 8 else top > 56


@pytest.mark.parametrize("n, failing", [(2, 0), (3, 42), (4, 7440)])
def test_lemma1_rows_match_one_graph_and_the_path_oracle(n, failing):
    # every ordered pair of every MAG on n nodes: the rows give one verdict
    # per MAG, equal to the one-graph search and to the path oracle; the
    # lemma holds wherever the move kernel licenses a blanket
    codes = _kernels.enumerate_mag_codes(n)
    pa, ch, sp = _kernels.node_rows(n, codes)
    dir_bi, bi_dir, _ = _kernels.move_block(pa, ch, sp)
    licensed = (dir_bi | bi_dir).tolist()
    fails = 0
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            rows = _lemma1_rows(pa, sp, x, y).tolist()
            for i, code in enumerate(codes.tolist()):
                g = graph_from_pair_code(n, code)
                want = lemma1_by_paths(g, x, y)
                assert rows[i] == _lemma1_holds(g, x, y) == want
                assert want or not licensed[i] >> (x * n + y) & 1
                fails += not want
    assert fails == failing


def _assert_searches_match_twins(n, codes):
    # for every single-node seed and every allowed set that leaves out at
    # most one node
    kinds = _kernels.node_rows(n, codes)
    rows_of = np.stack(kinds).transpose(2, 0, 1).tolist()  # [graph][kind][node]
    full = (1 << n) - 1
    allowed_sets = [full] + [full & ~(1 << v) for v in range(n)]

    def per_graph(mask):
        return np.full(len(codes), mask, np.uint8)

    for k, rows in enumerate(kinds):
        for mask in range(full + 1):
            want = _kernels._spread(list(rows), per_graph(mask)).tolist()
            assert [graph._spread(g[k], mask) for g in rows_of] == want
        for x in range(n):
            for allowed in allowed_sets:
                want = _kernels.chain_reach(
                    list(rows), per_graph(1 << x), per_graph(allowed)
                ).tolist()
                assert [graph._reach(g[k], 1 << x, allowed) for g in rows_of] == want
    for code, (_, ch, sp) in zip(codes.tolist(), rows_of):
        g = graph_from_pair_code(n, code)
        for x, y in itertools.permutations(range(n), 2):
            assert graph._directed_path(g, x, y) == directed_path_queue(ch, x, y)
            for allowed in allowed_sets:
                assert graph._inducing_path(ch, sp, x, y, allowed) == (
                    inducing_path_queue(ch, sp, x, y, allowed)
                )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_one_graph_searches_match_their_vector_twins_exhaustively(n):
    # every mixed graph on n nodes, cyclic ones included
    _assert_searches_match_twins(n, np.arange(4 ** len(_kernels.pair_list(n))))


def test_one_graph_searches_match_their_vector_twins_on_seeded_graphs():
    # at n = 7 a popped node can have several unseen successors, so the
    # order in which the path searches queue them shows in their paths
    rng = random.Random(30)
    codes = np.array([rng.randrange(4**21) for _ in range(300)], np.int64)
    _assert_searches_match_twins(7, codes)
