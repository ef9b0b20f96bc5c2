import hashlib
import io
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from srcodes import shards
from srcodes.core import SrcParams, data_chunks, encode
from srcodes.errors import IntegrityError, ShapeError
from srcodes.shards import (MANIFEST_NAME, Manifest, ShardReader, ShardWriter,
                            load_manifest, shard_filename, write_shard_set)

from gf_reference import reference_encode
from shard_files import HEADER_B, shard_bytes, slot_at, table_bytes


def read_chunks(manifest, directory, wanted):
    with ShardReader(manifest, directory, wanted) as reader:
        return reader.read_chunks(wanted, 0, manifest.stripe_count)


def _array(seed=1, params=None):
    params = params or SrcParams(4, 2, 2, 32)
    data = np.random.default_rng(seed).integers(
        0, 256, 3 * params.stripe_data_bytes + 5, dtype=np.uint8).tobytes()
    return data, encode(data, params)


def _write_set(directory, data, params):
    """data's shard files and manifest, written as encode writes them, a
    part of a stripe per batch; the manifest path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shards, "_BATCH_BYTES", 1)   # a part unit per batch
        return write_shard_set(directory, params, io.BytesIO(data), len(data))


def _read_node(manifest, directory, node):
    """Every slot of a node's shard file, read and checked, as
    (stripes, f+1, chunk_size); and the chunks that failed."""
    slots = manifest.params.node_chunks(node)
    chunks, failed = read_chunks(manifest, directory, slots)
    if failed:
        return None, failed
    return np.stack([chunks[c] for c in slots], axis=1), failed


@st.composite
def _sets(draw):
    """A code with n <= 10, any k < n and any f < n; a size from 0 to
    several stripes, the last stripe often partial; and the budget of a
    batch of encode, from below one part unit, which it then holds
    alone, to many stripes."""
    n = draw(st.integers(2, 10))
    p = SrcParams(n, draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1)),
                  draw(st.integers(1, 64)))
    return (p, draw(st.integers(0, 5 * p.stripe_data_bytes)),
            draw(st.integers(1, (12 * p.f + 1) * n * p.chunk_size)))


@settings(max_examples=80, deadline=None, derandomize=True)
# f = 1, so a parity is one chunk; two part units a batch
@example((SrcParams(4, 2, 1, 8), 3 * 16 + 5, 5 * 4 * 8))
@example((SrcParams(4, 2, 2, 8), 0, 1))   # an empty input
@given(_sets())
def test_shard_round_trip(case):
    # write_shard_set, a batch at a time, against the reference encoder,
    # which shares no code with core's, and against the whole file
    # encoded in one batch
    p, size, budget = case
    data = np.random.default_rng(size).integers(0, 256, size,
                                                dtype=np.uint8).tobytes()
    _, expected = reference_encode(data, p.n, p.k, p.f, p.chunk_size)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() \
            as mp:
        whole = Path(tmp) / "whole"
        write_shard_set(whole, p, io.BytesIO(data), size)
        mp.setattr(shards, "_BATCH_BYTES", budget)
        manifest = load_manifest(write_shard_set(tmp, p, io.BytesIO(data),
                                                 size))
        assert (whole / MANIFEST_NAME).read_bytes() == \
            (Path(tmp) / MANIFEST_NAME).read_bytes()
        assert manifest.file_digest == hashlib.sha256(data).hexdigest()
        for node in range(1, p.n + 1):
            blob = (Path(tmp) / shard_filename(node)).read_bytes()
            assert blob == (whole / shard_filename(node)).read_bytes()
            assert len(blob) == shard_bytes(p, p.stripes(size))
            assert manifest.shard_digests[node] == \
                hashlib.sha256(blob).hexdigest()
            shard, failed = _read_node(manifest, tmp, node)
            assert failed == {}
            assert np.array_equal(shard, expected[node])


def _write_shard(directory, arr, node, payload, digest=None):
    """One node's shard file from its whole payload, appended a chunk at
    a time; its sha256."""
    with ShardWriter(directory, arr.params, node, arr.file_size) as writer:
        for stripe in payload:
            for chunk in stripe:
                writer.write(chunk)
        return writer.seal(digest)


def _written_shard(directory, arr, node, payload, digest=None):
    directory.mkdir(exist_ok=True)
    sha = _write_shard(directory, arr, node, payload, digest)
    return sha, (directory / shard_filename(node)).read_bytes()


def test_shard_serialization_deterministic(tmp_path):
    _, a = _array(seed=3)
    _, b = _array(seed=3)
    assert _written_shard(tmp_path / "a", a, 1, a.shards[1]) \
        == _written_shard(tmp_path / "b", b, 1, b.shards[1])


def test_write_shard_strided_view_equals_its_copy(tmp_path):
    # encode's shards are strided views of one coded array
    data, arr = _array()
    view = arr.shards[2]
    assert not view.flags.c_contiguous
    sha, blob = _written_shard(tmp_path / "view", arr, 2, view)
    assert (sha, blob) == _written_shard(tmp_path / "copy", arr, 2,
                                         np.ascontiguousarray(view))
    assert sha == hashlib.sha256(blob).hexdigest()
    assert sorted(p.name for p in (tmp_path / "view").iterdir()) == \
        [shard_filename(2)]


def test_shard_rejects_wrong_shape(tmp_path):
    _, arr = _array()
    shard = arr.shards[1]
    for bad in (shard[:-1], shard[:, :-1], shard[..., :-1], shard[0]):
        with pytest.raises(ShapeError):
            _write_shard(tmp_path, arr, 1, bad)
    assert list(tmp_path.iterdir()) == []


def test_write_shard_refuses_a_wrong_digest(tmp_path):
    _, arr = _array()
    with pytest.raises(IntegrityError, match="node 1 does not match"):
        _write_shard(tmp_path, arr, 1, arr.shards[1], "00" * 32)
    assert list(tmp_path.iterdir()) == []


def test_shard_corruption_detected(tmp_path):
    data, arr = _array()
    manifest = load_manifest(_write_set(tmp_path, data, arr.params))
    path = tmp_path / shard_filename(1)
    blob = path.read_bytes()
    for damaged, problem in [
            (blob[:-1] + bytes([blob[-1] ^ 0xFF]),
             "parity[3] fails the CRC-32 check"),
            (b"NOTSHARD" + blob[8:], "header disagrees with manifest"),
            (blob[:40], "is 40 bytes, expected"),   # shorter than a header
            (blob + b"x", "bytes, expected")]:
        path.write_bytes(damaged)
        shard, failed = _read_node(manifest, tmp_path, 1)
        assert shard is None and failed
        assert all(isinstance(exc, IntegrityError) and problem in str(exc)
                   for exc in failed.values())


def test_write_and_load_manifest(tmp_path):
    data, arr = _array()
    manifest_path = _write_set(tmp_path, data, arr.params)
    manifest = load_manifest(manifest_path)
    assert manifest.params == arr.params
    assert manifest.stripe_count == arr.stripe_count
    assert manifest.file_size == len(data)
    assert sorted(manifest.shard_digests) == [1, 2, 3, 4]
    for node in range(1, 5):
        shard, failed = _read_node(manifest, tmp_path, node)
        assert failed == {}
        assert np.array_equal(shard, arr.shards[node])


def test_manifest_rejects_unknown_generator(tmp_path):
    data, arr = _array()
    manifest_path = _write_set(tmp_path, data, arr.params)
    text = manifest_path.read_text().replace(
        "gf256-cauchy-systematic-v1", "mystery-code-v9")
    with pytest.raises(IntegrityError, match="generator"):
        Manifest.from_json(text)


def test_manifest_rejects_wrong_format():
    with pytest.raises(IntegrityError):
        Manifest.from_json('{"format": "other"}')


def test_shard_file_size_matches_stripe_math(tmp_path):
    # header + one CRC per chunk + (f+1) chunks per stripe
    params = SrcParams(4, 2, 2, 4096)
    data = np.random.default_rng(9).integers(
        0, 256, 1 << 20, dtype=np.uint8).tobytes()
    arr = encode(data, params)
    _write_set(tmp_path, data, params)
    stripes = arr.stripe_count
    assert stripes == -(-(1 << 20) // params.stripe_data_bytes)
    expect = shard_bytes(params, stripes)
    for node in range(1, 5):
        assert (tmp_path / shard_filename(node)).stat().st_size == expect
    # stored bytes relate to the padded file by (f+1)n / (fk)
    padded = stripes * params.stripe_data_bytes
    total_chunks_bytes = 4 * stripes * 3 * 4096
    assert total_chunks_bytes * params.f * params.k == \
        padded * (params.f + 1) * params.n


def _written(tmp_path, size=None, params=None):
    params = params or SrcParams(5, 2, 2, 32)
    size = 3 * params.stripe_data_bytes + 5 if size is None else size
    data = np.random.default_rng(4).integers(0, 256, size,
                                             dtype=np.uint8).tobytes()
    arr = encode(data, params)
    return arr, load_manifest(_write_set(tmp_path, data, params))


def _flip(path, at):
    blob = bytearray(path.read_bytes())
    blob[at] ^= 0x01
    path.write_bytes(bytes(blob))


def test_read_chunks_reads_the_wanted_slots(tmp_path):
    arr, manifest = _written(tmp_path)
    # node 2's first and last slots, and node 4's middle one
    wanted = [arr.params.node_chunks(2)[0], arr.params.node_chunks(2)[2],
              arr.params.node_chunks(4)[1]]
    chunks, failed = read_chunks(manifest, tmp_path, wanted)
    assert failed == {} and sorted(chunks) == sorted(wanted)
    for c, got in chunks.items():
        node = arr.params.chunk_location(c)
        slot = arr.params.node_chunks(node).index(c)
        assert got.shape == (arr.stripe_count, arr.params.chunk_size)
        assert np.array_equal(got, arr.shards[node][:, slot])


def test_read_chunks_empty_file(tmp_path):
    arr, manifest = _written(tmp_path, size=0)
    assert manifest.stripe_count == 0
    wanted = arr.params.node_chunks(1)
    chunks, failed = read_chunks(manifest, tmp_path, wanted)
    assert failed == {}
    assert {c: a.shape for c, a in chunks.items()} == \
        {c: (0, arr.params.chunk_size) for c in wanted}


def test_read_chunks_skips_shard_with_flipped_reserved_byte(tmp_path):
    arr, manifest = _written(tmp_path)
    _flip(tmp_path / shard_filename(3), 18)   # the reserved u16
    wanted = arr.params.node_chunks(3)[:1] + arr.params.node_chunks(1)[:1]
    chunks, failed = read_chunks(manifest, tmp_path, wanted)
    assert list(chunks) == arr.params.node_chunks(1)[:1]
    # every chunk of the shard is unusable, not only the wanted one
    assert sorted(failed) == arr.params.node_chunks(3)
    assert all(str(exc) == "shard node_003.shard header disagrees with "
               "manifest" for exc in failed.values())


def test_read_chunks_drops_a_chunk_failing_its_crc(tmp_path):
    arr, manifest = _written(tmp_path)
    # the middle slot of node 2, last stripe
    _flip(tmp_path / shard_filename(2),
          slot_at(arr.params, arr.stripe_count, arr.stripe_count - 1, 1))
    chunks, failed = read_chunks(manifest, tmp_path, arr.params.node_chunks(2))
    bad = arr.params.node_chunks(2)[1]
    assert list(failed) == [bad]
    assert str(failed[bad]) == \
        f"shard node_002.shard: {bad.label(2)} fails the CRC-32 check"
    assert sorted(chunks) == [c for c in arr.params.node_chunks(2) if c != bad]


def test_read_chunks_checks_the_length(tmp_path):
    arr, manifest = _written(tmp_path)
    path = tmp_path / shard_filename(5)
    path.write_bytes(path.read_bytes() + b"x")
    chunks, failed = read_chunks(manifest, tmp_path,
                                 arr.params.node_chunks(5))
    assert chunks == {} and len(failed) == 3
    assert "bytes, expected" in str(next(iter(failed.values())))


def test_read_chunks_splits_long_runs(tmp_path):
    # 3000 stripes of 1-byte chunks: one run of 6000 slots, more than
    # one preadv may take
    arr, manifest = _written(tmp_path, size=3000,
                             params=SrcParams(3, 1, 1, 1))
    wanted = arr.params.node_chunks(2)
    chunks, failed = read_chunks(manifest, tmp_path, wanted)
    assert failed == {}
    for slot, c in enumerate(wanted):
        assert np.array_equal(chunks[c], arr.shards[2][:, slot])


def test_read_chunks_reads_a_stripe_range_header_once(tmp_path, monkeypatch):
    # stripes 1..2 of 4: only their slots are read and checked, and a
    # second call on the same reader reads no header or CRC table again
    arr, manifest = _written(tmp_path, size=4 * SrcParams(5, 2, 2, 32)
                             .stripe_data_bytes)
    stripes = arr.stripe_count
    _flip(tmp_path / shard_filename(2), slot_at(arr.params, stripes, 3, 0))
    opened = []
    monkeypatch.setattr(os, "pread", lambda fd, size, at, pread=os.pread:
                        opened.append(size) or pread(fd, size, at))
    with ShardReader(manifest, tmp_path, arr.params.node_chunks(2)) as reader:
        chunks, failed = reader.read_chunks(arr.params.node_chunks(2), 1, 3)
        again, _ = reader.read_chunks(arr.params.node_chunks(2)[:1], 0, 1)
    assert failed == {} and opened == [HEADER_B,
                                       table_bytes(arr.params, stripes)]
    for slot, c in enumerate(arr.params.node_chunks(2)):
        assert np.array_equal(chunks[c], arr.shards[2][1:3, slot])
    assert np.array_equal(again[arr.params.node_chunks(2)[0]],
                          arr.shards[2][:1, 0])


def test_reader_batches_plan_around_a_failed_chunk(tmp_path, capsys):
    # the library reader without the CLI: part1[2] fails its CRC in the
    # middle stripe, is XORed from its helpers instead, and its shard is
    # named on stderr in the line the CLI prints
    params = SrcParams(10, 6, 2, 256)
    data = np.random.default_rng(5).integers(
        0, 256, 3 * params.stripe_data_bytes - 9, dtype=np.uint8).tobytes()
    manifest = load_manifest(_write_set(tmp_path, data, params))
    _flip(tmp_path / shard_filename(2), slot_at(params, 3, 1, 0))
    with ShardReader(manifest, tmp_path, data_chunks(params)) as reader:
        out = np.empty((manifest.stripe_count, len(reader.targets),
                        params.chunk_size), np.uint8)
        reader.read(out, 0, None)   # one batch: nothing ahead
    assert out.tobytes()[:len(data)] == data
    assert capsys.readouterr().err == \
        "skipped: shard node_002.shard: part1[2] fails the CRC-32 check\n"
    assert list(reader.skipped) == [shard_filename(2)]


def test_reader_zeroes_the_last_stripes_chunks_past_last(tmp_path):
    # with last, the last stripe's targets past the first last are zeroed
    # in a dirty buffer, not read, and the stripes before it are whole
    params = SrcParams(10, 6, 2, 256)
    data = np.random.default_rng(6).integers(
        0, 256, 2 * params.stripe_data_bytes + 3 * 256 - 9,
        dtype=np.uint8).tobytes()
    manifest = load_manifest(_write_set(tmp_path, data, params))
    with ShardReader(manifest, tmp_path, data_chunks(params),
                     last=3) as reader:
        out = np.full((manifest.stripe_count, len(reader.targets),
                       params.chunk_size), 0xFF, np.uint8)
        reader.read(out, 0, None)   # one batch: nothing ahead
    assert len(reader.tail.reads) == 3
    assert out.tobytes() == data + bytes(out.nbytes - len(data))
