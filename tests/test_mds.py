from itertools import combinations

import numpy as np
import pytest

from gf_reference import cauchy_generator, gf_matmul, gf_rank
from srcodes import gf256
from srcodes.errors import ParameterError
from srcodes.mds import make_generator


def _independent(g, cols):
    """The columns cols of g have full rank, by the reference's
    elimination."""
    return gf_rank(g[:, list(cols)].T.tolist()) == len(cols)


def test_generator_2_4_all_submatrices_invertible():
    # exhaustive oracle: every C(4,2) column pair is independent
    g = make_generator(2, 4)
    for cols in combinations(range(4), 2):
        assert _independent(g, cols)


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
                assert _independent(g, cols)


def test_generator_matches_the_reference_construction():
    for n in (1, 2, 7, 16, 50, 255):
        for k in {1, n // 2 or 1, n}:
            assert np.array_equal(make_generator(k, n),
                                  cauchy_generator(k, n))


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


def _decode(g, cols):
    """gf256.solve's coefficients of each data row over the coded
    columns cols of g."""
    k = g.shape[0]
    x, spanned = gf256.solve(g[:, list(cols)].T, np.eye(k, dtype=np.uint8))
    assert spanned.all()
    return x


def _check_decode(g, cols, data):
    """gf256.solve recovers data from the chosen coded columns: products
    come from the scalar reference."""
    x = _decode(g, cols)
    assert np.array_equal(gf_matmul(x, g[:, list(cols)].T),
                          np.eye(g.shape[0], dtype=np.uint8))
    coded = gf_matmul(g.T, data)
    assert np.array_equal(gf_matmul(x, coded[list(cols)]), data)


def test_decode_systematic_passthrough():
    g = make_generator(3, 6)
    assert np.array_equal(_decode(g, [0, 1, 2]), np.eye(3, dtype=np.uint8))


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
