import numpy as np
import pytest

from srcodes import gf256
from srcodes.core import ChunkId, SrcParams, encode, layout, reconstruct
from srcodes.errors import InsufficientDataError, RepairError
from srcodes.repair import (ChunkStore, chunk_repair_plan, chunks_from_shards,
                            degraded_read, execute_repair, node_repair_plan)

from gf_reference import gf_matmul

PARAM_GRID = [(4, 2, 2), (5, 3, 2), (6, 4, 2), (6, 3, 3), (8, 4, 3), (5, 3, 1)]


def _coded(seed, params, stripes=2, extra=13):
    rng = np.random.default_rng(seed)
    size = stripes * params.stripe_data_bytes + extra
    return encode(rng.integers(0, 256, size, dtype=np.uint8).tobytes(), params)


def test_chunk_plan_four_node_fixture():
    p = SrcParams(4, 2, 2, 16)
    plan = chunk_repair_plan(p, ChunkId(1, 1))
    assert plan.reads == ((4, ChunkId(2, 1)), (3, ChunkId(3, 1)))
    assert plan.disk_access_set == {3, 4}


def test_parity_plan_reads_all_coded_parts():
    p = SrcParams(6, 3, 3, 16)
    plan = chunk_repair_plan(p, ChunkId(4, 2))
    assert [cid.part for _, cid in plan.reads] == [1, 2, 3]
    assert all(cid.subscript == 2 for _, cid in plan.reads)


@pytest.mark.parametrize("n,k,f", PARAM_GRID)
def test_chunk_plan_locality(n, k, f):
    p = SrcParams(n, k, f, 16)
    lay = layout(p)
    for part in range(1, f + 2):
        for sub in range(1, n + 1):
            target = ChunkId(part, sub)
            plan = chunk_repair_plan(p, target)
            assert plan.chunk_reads == f
            assert all(cid.subscript == sub for _, cid in plan.reads)
            assert lay.chunk_location(target) not in plan.disk_access_set
            assert all(lay.chunk_location(cid) == node
                       for node, cid in plan.reads)


@pytest.mark.parametrize("n,k,f", PARAM_GRID)
def test_node_plan_counts(n, k, f):
    p = SrcParams(n, k, f, 16)
    for node in range(1, n + 1):
        plan = node_repair_plan(p, node)
        assert plan.chunk_reads == f * (f + 1)
        assert len(plan.disk_access_set) == min(2 * f, n - 1)
        assert node not in plan.disk_access_set


def test_node_plan_422_six_reads_three_disks():
    plan = node_repair_plan(SrcParams(4, 2, 2, 16), 1)
    assert plan.chunk_reads == 6
    assert plan.disk_access_set == {2, 3, 4}


def test_node_plan_10_6_2_four_disks():
    p = SrcParams(10, 6, 2, 16)
    for node in range(1, 11):
        assert len(node_repair_plan(p, node).disk_access_set) == 4


def test_disk_set_capped_at_all_survivors():
    p = SrcParams(5, 3, 3, 16)  # 2f = 6 > n-1 = 4
    for node in range(1, 6):
        plan = node_repair_plan(p, node)
        assert plan.disk_access_set == set(range(1, 6)) - {node}


@pytest.mark.parametrize("n,k,f", PARAM_GRID)
def test_node_repair_restores_exact_bytes(n, k, f):
    p = SrcParams(n, k, f, 64)
    arr = _coded(100 + n, p)
    for failed in range(1, n + 1):
        store = ChunkStore.from_array(arr, unavailable={failed})
        restored = execute_repair(node_repair_plan(p, failed), store)
        assert np.array_equal(restored, arr.shards[failed])


def test_every_single_chunk_repair_6_4_3():
    p = SrcParams(6, 4, 3, 32)
    arr = _coded(7, p)
    for node in range(1, 7):
        store = ChunkStore.from_array(arr, unavailable={node})
        for slot, cid in enumerate(layout(p).node_chunks(node)):
            got = execute_repair(chunk_repair_plan(p, cid), store)
            assert np.array_equal(got, arr.shards[node][:, slot])


def test_zero_file_repairs_to_zero():
    p = SrcParams(4, 2, 2, 32)
    arr = encode(bytes(p.stripe_data_bytes), p)
    store = ChunkStore.from_array(arr, unavailable={2})
    assert not execute_repair(node_repair_plan(p, 2), store).any()


def test_missing_helper_is_named():
    p = SrcParams(4, 2, 2, 16)
    arr = _coded(8, p)
    store = ChunkStore.from_array(arr, unavailable={1, 4})
    with pytest.raises(RepairError, match=r"part2\[1\]"):
        execute_repair(chunk_repair_plan(p, ChunkId(1, 1)), store)


class _CountingStore(ChunkStore):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.helper_reads = 0

    def chunk(self, chunk):
        self.helper_reads += 1
        return super().chunk(chunk)


def test_degraded_read_live_node_touches_no_helper():
    p = SrcParams(4, 2, 2, 16)
    arr = _coded(9, p)
    store = _CountingStore(p, arr.shards, arr.stripe_count)
    got = degraded_read(p, ChunkId(1, 2), store)
    assert np.array_equal(got, arr.shards[2][:, 0])
    assert store.helper_reads == 0


def test_degraded_read_uses_lookup_when_node_down():
    p = SrcParams(4, 2, 2, 16)
    arr = _coded(10, p)
    store = _CountingStore.from_array(arr, unavailable={1})
    got = degraded_read(p, ChunkId(1, 1), store)
    assert np.array_equal(got, arr.shards[1][:, 0])
    assert store.helper_reads == p.f


def test_degraded_read_fallback_matches_reconstruction_oracle():
    p = SrcParams(5, 3, 2, 64)
    arr = _coded(11, p)
    # node 1 down and one of part1[1]'s helpers down too
    helper_nodes = {node for node, _ in
                    chunk_repair_plan(p, ChunkId(1, 1)).reads}
    down = {1, sorted(helper_nodes)[0]}
    store = ChunkStore.from_array(arr, unavailable=down)
    got = degraded_read(p, ChunkId(1, 1), store)

    # oracle: full reconstruction, then re-encode the stripe and extract
    live = [i for i in range(1, 6) if i not in down][:3]
    data = reconstruct({i: arr.shards[i] for i in live}, p,
                       arr.stripe_count * p.stripe_data_bytes)
    grid = np.frombuffer(data, np.uint8).reshape(
        arr.stripe_count, p.f, p.k, p.chunk_size)
    column = p.generator().entries[:, :1].T  # subscript 1
    expect = np.stack([gf_matmul(column, grid[s, 0])[0]  # part 1
                       for s in range(arr.stripe_count)])
    assert np.array_equal(got, expect)
    assert np.array_equal(got, arr.shards[1][:, 0])


def test_lookup_repair_does_no_gf_work(monkeypatch):
    p = SrcParams(10, 6, 2, 64)
    arr = _coded(13, p)

    def no_gf(*args):
        raise RuntimeError("GF(256) multiply in look-up repair")

    monkeypatch.setattr(gf256, "addmul_buf", no_gf)
    with pytest.raises(RuntimeError):
        encode(b"x", p)   # the patch does catch GF work
    store = ChunkStore.from_array(arr, unavailable={4})
    restored = execute_repair(node_repair_plan(p, 4), store)
    assert np.array_equal(restored, arr.shards[4])


@pytest.mark.parametrize("n,k,f", PARAM_GRID)
def test_chunks_from_shards_rebuilds_every_node(n, k, f):
    p = SrcParams(n, k, f, 32)
    arr = _coded(14, p)
    helpers = {i: arr.shards[i] for i in range(n - k + 1, n + 1)}
    for node in range(1, n + 1):
        got = chunks_from_shards(p, helpers, layout(p).node_chunks(node))
        assert np.array_equal(got, arr.shards[node])


def test_degraded_read_insufficient_data():
    p = SrcParams(4, 2, 2, 16)
    arr = _coded(12, p)
    store = ChunkStore.from_array(arr, unavailable={1, 3, 4})
    with pytest.raises(InsufficientDataError):
        degraded_read(p, ChunkId(1, 1), store)


def test_plan_describe_mentions_disks_and_bytes():
    p = SrcParams(10, 6, 2, 1024)
    text = "\n".join(node_repair_plan(p, 3).describe(stripe_count=5))
    assert "distinct helper disks: 4" in text
    assert f"bytes moved: {6 * 1024 * 5}" in text
