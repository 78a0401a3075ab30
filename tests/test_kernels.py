import random

import numpy as np
import pytest

from magmoves import _kernels
from magmoves.enumeration import enumerate_mags, graph_from_pair_code
from magmoves.graph import is_mag
from magmoves.separation import separation_signature

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
