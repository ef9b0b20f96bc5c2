import numpy as np
import pytest
from click.testing import CliRunner

from srcodes import core, gf256
from srcodes.cli import main
from srcodes.core import ChunkId, SrcParams, Step, chunks_from_shards, \
    encode, plan_chunks
from srcodes.errors import InsufficientDataError
from srcodes.mds import make_generator
from srcodes.repair import describe, node_plan
from srcodes.shards import MANIFEST_NAME, shard_filename

from gf_reference import chunk_row, gf_matmul, gf_rank

PARAM_GRID = [(4, 2, 2), (5, 3, 2), (6, 4, 2), (6, 3, 3), (8, 4, 3), (5, 3, 1)]


def _coded(seed, params, stripes=2, extra=13):
    rng = np.random.default_rng(seed)
    size = stripes * params.stripe_data_bytes + extra
    return encode(rng.integers(0, 256, size, dtype=np.uint8).tobytes(), params)


def _without(arr, down):
    return {i: s for i, s in arr.shards.items() if i not in down}


def _off_node(p, node):
    """Every chunk of a stripe but those on node."""
    return {c for other in range(1, p.n + 1) if other != node
            for c in p.node_chunks(other)}


def _disks(p, chunks):
    return {p.chunk_location(c) for c in chunks}


def test_chunk_plan_four_node_fixture():
    p = SrcParams(4, 2, 2, 16)
    plan = plan_chunks(p, _off_node(p, 1), [ChunkId(1, 1)])
    assert plan.steps == (Step((ChunkId(1, 1),),
                               (ChunkId(2, 1), ChunkId(3, 1))),)
    assert [p.chunk_location(c) for c in plan.steps[0].sources] == [4, 3]
    assert all(step.coeffs is None for step in plan.steps)


def test_parity_plan_reads_all_coded_parts():
    p = SrcParams(6, 3, 3, 16)
    target = ChunkId(4, 2)
    plan = plan_chunks(p, _off_node(p, p.chunk_location(target)),
                       [target])
    step, = plan.steps
    chunks = step.sources
    assert [c.part for c in chunks] == [1, 2, 3]
    assert all(c.subscript == 2 for c in chunks)


@pytest.mark.parametrize("n,k,f", PARAM_GRID)
def test_chunk_plan_locality(n, k, f):
    # every chunk, its node lost, is the XOR of the f others with its
    # subscript, read off its node
    p = SrcParams(n, k, f, 16)
    for part in range(1, f + 2):
        for sub in range(1, n + 1):
            target = ChunkId(part, sub)
            node = p.chunk_location(target)
            plan = plan_chunks(p, _off_node(p, node), [target])
            expect = [ChunkId(l, sub) for l in range(1, f + 2) if l != part]
            assert plan.steps == (Step((target,), tuple(expect)),)
            assert plan.reads == tuple(expect)
            assert all(step.coeffs is None for step in plan.steps)
            assert node not in _disks(p, plan.reads)


@pytest.mark.parametrize("n,k,f", PARAM_GRID)
def test_node_plan_counts(n, k, f):
    p = SrcParams(n, k, f, 16)
    for node in range(1, n + 1):
        plan = node_plan(p, node)
        assert plan.targets == tuple(p.node_chunks(node))
        assert plan.steps == tuple(Step((c,), tuple(p.helpers(c)))
                                   for c in plan.targets)
        assert [len(s.sources) for s in plan.steps] == [f] * (f + 1)
        assert len(plan.reads) == f * (f + 1)
        assert len(_disks(p, plan.reads)) == min(2 * f, n - 1)
        assert node not in _disks(p, plan.reads)


def test_node_plan_422_six_reads_three_disks():
    p = SrcParams(4, 2, 2, 16)
    plan = node_plan(p, 1)
    assert len(plan.reads) == 6
    assert _disks(p, plan.reads) == {2, 3, 4}


def test_node_plan_10_6_2_four_disks():
    p = SrcParams(10, 6, 2, 16)
    for node in range(1, 11):
        assert len(_disks(p, node_plan(p, node).reads)) == 4


def test_disk_set_capped_at_all_survivors():
    p = SrcParams(5, 3, 3, 16)  # 2f = 6 > n-1 = 4
    for node in range(1, 6):
        assert _disks(p, node_plan(p, node).reads) == set(range(1, 6)) - {node}


@pytest.mark.parametrize("n,k,f", PARAM_GRID)
def test_node_repair_restores_exact_bytes(n, k, f):
    p = SrcParams(n, k, f, 64)
    arr = _coded(100 + n, p)
    for failed in range(1, n + 1):
        restored = chunks_from_shards(p, _without(arr, {failed}),
                                      p.node_chunks(failed))
        assert np.array_equal(restored, arr.shards[failed])


def test_every_single_chunk_repair_6_4_3():
    p = SrcParams(6, 4, 3, 32)
    arr = _coded(7, p)
    for node in range(1, 7):
        for slot, cid in enumerate(p.node_chunks(node)):
            got = chunks_from_shards(p, _without(arr, {node}), [cid])
            assert np.array_equal(got[:, 0], arr.shards[node][:, slot])


def test_zero_file_repairs_to_zero():
    p = SrcParams(4, 2, 2, 32)
    arr = encode(bytes(p.stripe_data_bytes), p)
    assert not chunks_from_shards(p, _without(arr, {2}),
                                  p.node_chunks(2)).any()


def test_missing_helper_is_named():
    # node 4 alone is left: part1[1] can be neither copied, XORed from
    # its helpers on nodes 5 and 4, nor derived, as node 4's chunks do
    # not span it
    p = SrcParams(5, 3, 2, 16)
    rows = [chunk_row(5, 3, 2, c.part, c.subscript) for c in p.node_chunks(4)]
    assert gf_rank(rows + [chunk_row(5, 3, 2, 1, 1)]) > gf_rank(rows)
    arr = _coded(8, p)
    with pytest.raises(InsufficientDataError,
                       match=r"part1\[1\]: helper node\(s\) 5 absent"):
        chunks_from_shards(p, _without(arr, {1, 2, 3, 5}), [ChunkId(1, 1)])


def _noise_but(arr, keep, seed):
    """arr's shards with every chunk except those in keep replaced by
    random bytes, so output equal to arr's chunks was made from keep."""
    rng = np.random.default_rng(seed)
    shards = {}
    for node, shard in arr.shards.items():
        shards[node] = rng.integers(0, 256, shard.shape, dtype=np.uint8)
        for slot, cid in enumerate(arr.params.node_chunks(node)):
            if cid in keep:
                shards[node][:, slot] = shard[:, slot]
    return shards


def test_degraded_read_live_node_touches_no_helper():
    p = SrcParams(4, 2, 2, 16)
    arr = _coded(9, p)
    shards = _noise_but(arr, {ChunkId(1, 2)}, 90)
    got = chunks_from_shards(p, shards, [ChunkId(1, 2)])
    assert np.array_equal(got[:, 0], arr.shards[2][:, 0])
    assert not np.shares_memory(got, shards[2])


def test_degraded_read_uses_lookup_when_node_down():
    p = SrcParams(4, 2, 2, 16)
    arr = _coded(10, p)
    helpers = p.helpers(ChunkId(1, 1))
    assert len(helpers) == p.f
    shards = _noise_but(arr, set(helpers), 100)
    del shards[1]
    got = chunks_from_shards(p, shards, [ChunkId(1, 1)])
    assert np.array_equal(got[:, 0], arr.shards[1][:, 0])


def test_degraded_read_fallback_matches_reconstruction_oracle():
    p = SrcParams(5, 3, 2, 64)
    file_bytes = np.random.default_rng(11).integers(
        0, 256, 2 * p.stripe_data_bytes, dtype=np.uint8).tobytes()
    arr = encode(file_bytes, p)
    # node 1 down and one of part1[1]'s helpers down too
    helper_nodes = _disks(p, p.helpers(ChunkId(1, 1)))
    down = {1, sorted(helper_nodes)[0]}
    got = chunks_from_shards(p, _without(arr, down), [ChunkId(1, 1)])[:, 0]

    # oracle: the generator column applied to the input's part 1
    grid = np.frombuffer(file_bytes, np.uint8).reshape(
        arr.stripe_count, p.f, p.k, p.chunk_size)
    column = make_generator(p.k, p.n)[:, :1].T  # subscript 1
    expect = np.stack([gf_matmul(column, grid[s, 0])[0]  # part 1
                       for s in range(arr.stripe_count)])
    assert np.array_equal(got, expect)
    assert np.array_equal(got, arr.shards[1][:, 0])


def test_lookup_repair_does_no_gf_work(monkeypatch):
    p = SrcParams(10, 6, 2, 64)
    arr = _coded(13, p)

    def no_gf(*args):
        raise RuntimeError("GF(256) multiply in look-up repair")

    monkeypatch.setattr(gf256, "addmul_rows", no_gf)   # every kernel's way in
    monkeypatch.setattr(gf256, "solve", no_gf)
    with pytest.raises(RuntimeError):
        encode(b"x", p)   # the patch does catch GF work
    with pytest.raises(RuntimeError):   # and a derived chunk
        chunks_from_shards(p, _without(arr, {3, 4}), [ChunkId(1, 4)])
    restored = chunks_from_shards(p, _without(arr, {4}),
                                  p.node_chunks(4))
    assert np.array_equal(restored, arr.shards[4])


def test_plans_that_derive_nothing_build_no_generator(monkeypatch):
    p = SrcParams(10, 6, 2, 64)

    def no_generator(*args):
        raise RuntimeError("generator built for a look-up plan")

    monkeypatch.setattr(core, "make_generator", no_generator)
    with pytest.raises(RuntimeError):   # the patch does catch a derive
        plan_chunks(p, core.data_chunks(p), [ChunkId(1, 7)])
    for node in range(1, p.n + 1):
        assert all(step.coeffs is None
                   for step in node_plan(p, node).steps)
    every = [c for node in range(1, p.n + 1) for c in p.node_chunks(node)]
    healthy = plan_chunks(p, every, core.data_chunks(p))
    assert all(step.coeffs is None for step in healthy.steps)
    assert len(healthy.reads) == p.f * p.k


@pytest.mark.parametrize("n,k,f", [(4, 2, 2), (5, 2, 2), (7, 2, 3)])
def test_lookup_repair_stays_lookup_where_deriving_reads_less(
        tmp_path, monkeypatch, n, k, f):
    # deriving every part would read k*f chunks per stripe, fewer than a
    # look-up's f*(f+1), but with every other node present a repair is
    # the paper's look-up: XORs only, and no generator built
    assert k * f < f * (f + 1)
    runner, out, src = CliRunner(), tmp_path / "shards", tmp_path / "input.bin"
    src.write_bytes(bytes(range(256)) * 40)
    assert runner.invoke(main, [
        "encode", str(src), "--n", str(n), "--k", str(k), "--f", str(f),
        "--chunk-size", "128", "--out", str(out)]).exit_code == 0

    def no_generator(*args):
        raise RuntimeError("generator built for a look-up repair")

    monkeypatch.setattr(core, "make_generator", no_generator)
    p = SrcParams(n, k, f, 128)
    for node in range(1, n + 1):
        plan = node_plan(p, node)
        assert all(step.coeffs is None for step in plan.steps)
        assert len(plan.reads) == f * (f + 1)
        lost = out / shard_filename(node)
        expected = lost.read_bytes()
        lost.unlink()
        res = runner.invoke(main, ["repair", "--manifest",
                                   str(out / MANIFEST_NAME), "--shards",
                                   str(out), "--node", str(node)])
        assert res.exit_code == 0, res.output
        assert "via look-up repair" in res.stdout
        assert lost.read_bytes() == expected


def test_one_solve_per_deriving_plan(monkeypatch):
    # every derived chunk of a plan, whatever its part, comes from one
    # gf256.solve over the stripe's available chunks
    p = SrcParams(10, 6, 2, 64)
    calls = []
    solve = gf256.solve

    def counting(a, b):
        calls.append(b.shape[0])
        return solve(a, b)

    monkeypatch.setattr(gf256, "solve", counting)
    left = [c for node in range(5, p.n + 1) for c in p.node_chunks(node)]
    plan = plan_chunks(p, left, core.data_chunks(p))
    assert len(calls) == 1
    assert {c.part for step in plan.steps if step.coeffs is not None
            for c in step.outs} == {1, 2}   # both parts derive
    calls.clear()
    node_plan(p, 3)
    every = [c for node in range(1, p.n + 1) for c in p.node_chunks(node)]
    plan_chunks(p, every, core.data_chunks(p))
    assert calls == []


@pytest.mark.parametrize("n,k,f", PARAM_GRID)
def test_chunks_from_shards_rebuilds_every_node(n, k, f):
    p = SrcParams(n, k, f, 32)
    arr = _coded(14, p)
    helpers = {i: arr.shards[i] for i in range(n - k + 1, n + 1)}
    for node in range(1, n + 1):
        got = chunks_from_shards(p, helpers, p.node_chunks(node))
        assert np.array_equal(got, arr.shards[node])


def test_degraded_read_insufficient_data():
    p = SrcParams(4, 2, 2, 16)
    arr = _coded(12, p)
    with pytest.raises(InsufficientDataError):
        chunks_from_shards(p, _without(arr, {1, 3, 4}), [ChunkId(1, 1)])


def test_plan_describe_mentions_disks_and_bytes():
    p = SrcParams(10, 6, 2, 1024)
    text = "\n".join(describe(p, 3, stripe_count=5))
    assert "distinct helper disks: 4" in text
    assert f"bytes moved: {6 * 1024 * 5}" in text
