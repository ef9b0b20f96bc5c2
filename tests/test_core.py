from itertools import combinations

import numpy as np
import pytest

from srcodes.core import (ChunkId, SrcParams, encode, layout, reconstruct,
                          ring_add, ring_sub)
from srcodes.errors import InsufficientDataError, ParameterError, ShapeError
from srcodes.mds import make_generator

from gf_reference import gf_matmul

PARAM_GRID = [(4, 2, 2), (5, 3, 2), (6, 4, 2), (6, 3, 3), (8, 4, 3), (5, 3, 1)]


def _random_file(seed, size):
    return np.random.default_rng(seed).integers(
        0, 256, size, dtype=np.uint8).tobytes()


def test_ring_arithmetic():
    for n in (2, 4, 7, 255):
        assert ring_add(n, 1, n) == 1
        assert ring_sub(1, 1, n) == n
    assert ring_add(2, 0, 5) == 2
    assert ring_add(3, 7, 5) == 5
    assert ring_sub(2, 3, 5) == 4


def test_params_validation():
    SrcParams(4, 2, 2, 1)
    with pytest.raises(ParameterError):
        SrcParams(4, 4, 2, 16)       # k == n
    with pytest.raises(ParameterError):
        SrcParams(256, 2, 2, 16)     # n beyond the field
    with pytest.raises(ParameterError):
        SrcParams(4, 2, 4, 16)       # f + 1 > n
    with pytest.raises(ParameterError):
        SrcParams(4, 2, 0, 16)
    with pytest.raises(ParameterError):
        SrcParams(4, 2, 2, 0)


def test_layout_four_node_fixture():
    p = SrcParams(4, 2, 2, 16)
    lay = layout(p)
    assert lay.node_chunks(1) == [ChunkId(1, 1), ChunkId(2, 2), ChunkId(3, 3)]
    assert lay.node_chunks(4) == [ChunkId(1, 4), ChunkId(2, 1), ChunkId(3, 2)]
    # the second coded part at subscript 1 sits on node 4, its parity on node 3
    assert lay.chunk_location(ChunkId(2, 1)) == 4
    assert lay.chunk_location(ChunkId(3, 1)) == 3


@pytest.mark.parametrize("n,k,f", PARAM_GRID)
def test_layout_bijection_and_distinct_subscripts(n, k, f):
    p = SrcParams(n, k, f, 16)
    lay = layout(p)
    seen = set()
    for node in range(1, n + 1):
        ids = lay.node_chunks(node)
        assert len(ids) == f + 1
        subs = [c.subscript for c in ids]
        assert len(set(subs)) == len(subs)   # no shared subscript in a node
        for cid in ids:
            assert lay.chunk_location(cid) == node
            seen.add(cid)
    assert len(seen) == (f + 1) * n          # bijection onto all slots


def test_encode_single_stripe_matches_manual_construction():
    # independent oracle: run the outer code by hand on the 4-chunk file
    cs = 32
    p = SrcParams(4, 2, 2, cs)
    file_bytes = _random_file(11, 2 * 2 * cs)
    chunks = np.frombuffer(file_bytes, np.uint8).reshape(4, cs)
    g = make_generator(2, 4)
    first = gf_matmul(g.entries.T, chunks[0:2])
    second = gf_matmul(g.entries.T, chunks[2:4])
    parity = [a ^ b for a, b in zip(first, second)]

    arr = encode(file_bytes, p)
    assert arr.stripe_count == 1
    for node in range(1, 5):
        shard = arr.shards[node][0]
        assert np.array_equal(shard[0], first[ring_add(node, 0, 4) - 1])
        assert np.array_equal(shard[1], second[ring_add(node, 1, 4) - 1])
        assert np.array_equal(shard[2], parity[ring_add(node, 2, 4) - 1])


@pytest.mark.parametrize("n,k,f", PARAM_GRID)
def test_parity_identity_every_subscript(n, k, f):
    p = SrcParams(n, k, f, 64)
    arr = encode(_random_file(21, 3 * p.stripe_data_bytes + 17), p)
    for stripe in range(arr.stripe_count):
        for m in range(1, n + 1):
            acc = np.zeros(p.chunk_size, np.uint8)
            for part in range(1, f + 1):
                acc ^= arr.chunk(stripe, ChunkId(part, m))
            assert np.array_equal(acc, arr.chunk(stripe, ChunkId(f + 1, m)))


def test_zero_file_gives_zero_shards():
    p = SrcParams(5, 3, 2, 32)
    arr = encode(bytes(p.stripe_data_bytes), p)
    for shard in arr.shards.values():
        assert not shard.any()


def test_storage_accounting():
    p = SrcParams(6, 4, 2, 64)
    arr = encode(_random_file(3, 5 * p.stripe_data_bytes), p)
    padded = arr.stripe_count * p.stripe_data_bytes
    assert arr.total_stored_bytes() * p.f * p.k == padded * (p.f + 1) * p.n


def test_empty_file():
    p = SrcParams(4, 2, 2, 16)
    arr = encode(b"", p)
    assert arr.stripe_count == 0 and arr.file_size == 0
    assert reconstruct(arr.shards, p, 0) == b""


def test_reconstruct_all_subsets_5_3_2():
    p = SrcParams(5, 3, 2, 2048)
    file_bytes = _random_file(31, 1 << 20)
    arr = encode(file_bytes, p)
    for nodes in combinations(range(1, 6), 3):
        shards = {i: arr.shards[i] for i in nodes}
        assert reconstruct(shards, p, arr.file_size) == file_bytes


@pytest.mark.parametrize("n,k,f", PARAM_GRID)
def test_any_n_minus_k_erasures_recoverable(n, k, f):
    p = SrcParams(n, k, f, 128)
    file_bytes = _random_file(41, 2 * p.stripe_data_bytes + 99)
    arr = encode(file_bytes, p)
    for erased in combinations(range(1, n + 1), n - k):
        survivors = {i: arr.shards[i] for i in range(1, n + 1)
                     if i not in erased}
        assert reconstruct(survivors, p, arr.file_size) == file_bytes


def test_reconstruct_errors():
    p = SrcParams(4, 2, 2, 16)
    arr = encode(_random_file(5, 500), p)
    with pytest.raises(InsufficientDataError):
        reconstruct({1: arr.shards[1]}, p, arr.file_size)
    bad = {1: arr.shards[1], 2: arr.shards[2][:, :, :8]}
    with pytest.raises(ShapeError):
        reconstruct(bad, p, arr.file_size)


def test_f_equal_one_mirrored_degenerate():
    p = SrcParams(4, 2, 1, 32)
    file_bytes = _random_file(6, 3000)
    arr = encode(file_bytes, p)
    # the parity part duplicates the single coded part, shifted by one node
    for stripe in range(arr.stripe_count):
        for m in range(1, 5):
            assert np.array_equal(arr.chunk(stripe, ChunkId(1, m)),
                                  arr.chunk(stripe, ChunkId(2, m)))
    for nodes in combinations(range(1, 5), 2):
        shards = {i: arr.shards[i] for i in nodes}
        assert reconstruct(shards, p, arr.file_size) == file_bytes
