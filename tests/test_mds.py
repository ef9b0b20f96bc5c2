from itertools import combinations

import numpy as np
import pytest

from gf_reference import gf_matmul
from srcodes import gf256
from srcodes.errors import ParameterError
from srcodes.mds import decode_matrix, make_generator


def test_generator_2_4_all_submatrices_invertible():
    # exhaustive oracle: invert every C(4,2) column pair
    g = make_generator(2, 4)
    for cols in combinations(range(4), 2):
        gf256.mat_inv(g[:, cols])  # raises if singular


def test_generator_identity_cases():
    g = make_generator(1, 1)
    assert g.tolist() == [[1]]
    g = make_generator(3, 3)
    assert np.array_equal(g, np.eye(3, dtype=np.uint8))


def test_generator_mds_property_small_n():
    for n in range(1, 9):
        for k in range(1, n + 1):
            g = make_generator(k, n)
            assert np.array_equal(g[:, :k], np.eye(k, dtype=np.uint8))
            for cols in combinations(range(n), k):
                gf256.mat_inv(g[:, cols])


def test_generator_deterministic():
    a = make_generator(5, 9)
    b = make_generator(5, 9)
    assert np.array_equal(a, b)
    assert a.shape == b.shape == (5, 9)


def test_generator_parameter_errors():
    with pytest.raises(ParameterError):
        make_generator(0, 4)
    with pytest.raises(ParameterError):
        make_generator(5, 4)
    with pytest.raises(ParameterError):
        make_generator(2, 256)


def _check_decode(g, cols, data):
    """decode_matrix(cols) inverts G[:, cols] and recovers data from the
    chosen coded columns; products come from the scalar reference."""
    inv = decode_matrix(list(cols), g)
    assert np.array_equal(gf_matmul(inv, g[:, cols]),
                          np.eye(g.shape[0], dtype=np.uint8))
    coded = gf_matmul(g.T, data)
    assert np.array_equal(gf_matmul(inv.T, coded[list(cols)]), data)


def test_decode_systematic_passthrough():
    g = make_generator(3, 6)
    assert np.array_equal(decode_matrix([0, 1, 2], g),
                          np.eye(3, dtype=np.uint8))


def test_decode_every_subset_4_2():
    # brute-force all 6 subsets and require identical recovery
    rng = np.random.default_rng(4)
    g = make_generator(2, 4)
    data = rng.integers(0, 256, (2, 16), dtype=np.uint8)
    for cols in combinations(range(4), 2):
        _check_decode(g, cols, data)


def test_round_trip_exhaustive_small_sampled_large():
    rng = np.random.default_rng(5)
    for n in range(2, 13):
        for k in (1, n // 2, n - 1):
            if k < 1:
                continue
            g = make_generator(k, n)
            data = rng.integers(0, 256, (k, 4), dtype=np.uint8)
            subsets = list(combinations(range(n), k))
            if n > 9 and len(subsets) > 30:
                idx = rng.choice(len(subsets), 30, replace=False)
                subsets = [subsets[i] for i in idx]
            for cols in subsets:
                _check_decode(g, cols, data)


def test_decode_parameter_errors():
    g = make_generator(2, 4)
    with pytest.raises(ParameterError):
        decode_matrix([0, 0], g)
    with pytest.raises(ParameterError):
        decode_matrix([0], g)
    with pytest.raises(ParameterError):
        decode_matrix([0, 9], g)
