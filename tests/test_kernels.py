import numpy as np
import pytest

from magmoves import _kernels
from magmoves.enumeration import graph_from_pair_code
from magmoves.graph import is_mag


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

