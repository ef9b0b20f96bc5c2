"""encode, decode and repair stream: one plan, a batch of stripes at a
time.

Their memory must not grow with the file: encode and repair write each
batch as they make it, and decode hashes and writes each as it goes.  A
chunk that fails its CRC-32 in a late batch must be handled as in an
early one: dropped, named once on stderr, planned around, or exit 4 with
no output left behind.  Most cases force one stripe per batch so that a
small file spans many.
"""

import os
import threading
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

from srcodes import shards
from srcodes.cli import main
from srcodes.core import SrcParams
from srcodes.shards import MANIFEST_NAME, shard_filename

from shard_files import slot_at

P = SrcParams(10, 6, 2, 4096)


def _input(tmp_path, size, name):
    data = np.random.default_rng(size).integers(0, 256, size,
                                                dtype=np.uint8).tobytes()
    src = tmp_path / f"{name}.bin"
    src.write_bytes(data)
    return data, src


def _run_encode(src, out):
    return CliRunner().invoke(main, [
        "encode", str(src), "--n", str(P.n), "--k", str(P.k), "--f", str(P.f),
        "--chunk-size", str(P.chunk_size), "--out", str(out)])


def _encode(tmp_path, size, name="shards"):
    data, src = _input(tmp_path, size, name)
    out = tmp_path / name
    res = _run_encode(src, out)
    assert res.exit_code == 0, res.output
    return data, out


def _stripes(size):
    return -(-size // P.stripe_data_bytes)


def _flip(path, stripes, stripe, slot):
    blob = bytearray(path.read_bytes())
    blob[slot_at(P, stripes, stripe, slot)] ^= 0xFF
    path.write_bytes(bytes(blob))


def _decode(out, dest):
    return CliRunner().invoke(main, [
        "decode", "--manifest", str(out / MANIFEST_NAME), "--shards", str(out),
        "--out", str(dest)])


def _repair(out, node):
    return CliRunner().invoke(main, [
        "repair", "--manifest", str(out / MANIFEST_NAME), "--shards", str(out),
        "--node", str(node)])


def _peak(run):
    tracemalloc.start()
    try:
        res = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.exit_code == 0, res.output
    return peak


def test_memory_does_not_grow_with_the_file(tmp_path, monkeypatch):
    # a 256 KiB budget is two or three stripes of 4 KiB chunks: a 2 MiB
    # and an 8 MiB file must peak alike
    monkeypatch.setattr(shards, "_BATCH_BYTES", 256 << 10)
    decode_peak, repair_peak = {}, {}
    for size in (2 << 20, 8 << 20):
        _, out = _encode(tmp_path, size, f"f{size}")
        decode_peak[size] = _peak(lambda: _decode(out, tmp_path / "y.bin"))
        # node 4 with its helper node 5 missing: the reconstruction fallback
        (out / shard_filename(4)).unlink()
        (out / shard_filename(5)).unlink()
        repair_peak[size] = _peak(lambda: _repair(out, 4))
    small, large = sorted(decode_peak)
    assert decode_peak[large] - decode_peak[small] < 256 << 10
    assert repair_peak[large] - repair_peak[small] < 256 << 10


def test_encode_memory_does_not_grow_with_the_file(tmp_path, monkeypatch):
    # encode holds two batches of every node's stripes, neither the input
    # nor a shard.  A first encode makes what a process makes once, such
    # as the generator cache and the GF kernel's per-thread blocks.
    monkeypatch.setattr(shards, "_BATCH_BYTES", 256 << 10)
    _encode(tmp_path, 100_000, "warm")
    peak = {}
    for size in (2 << 20, 8 << 20):
        _, src = _input(tmp_path, size, f"f{size}")
        peak[size] = _peak(lambda: _run_encode(src, tmp_path / f"f{size}"))
    small, large = sorted(peak)
    assert peak[large] - peak[small] < 256 << 10


def test_encode_of_a_pipe_peaks_like_a_regular_file(tmp_path, monkeypatch):
    # a pipe is spooled to a temporary file, not read into memory
    monkeypatch.setattr(shards, "_BATCH_BYTES", 256 << 10)
    _encode(tmp_path, 100_000, "warm")
    data, src = _input(tmp_path, 8 << 20, "regular")
    regular = _peak(lambda: _run_encode(src, tmp_path / "from-file"))
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,))
    writer.start()
    try:
        piped = _peak(lambda: _run_encode(fifo, tmp_path / "from-pipe"))
    finally:
        writer.join(timeout=60)
    assert not writer.is_alive()
    assert piped - regular < 256 << 10
    for node in range(1, P.n + 1):
        assert (tmp_path / "from-pipe" / shard_filename(node)).read_bytes() \
            == (tmp_path / "from-file" / shard_filename(node)).read_bytes()


FOUR_BATCHES = 15 * P.stripe_data_bytes // 2   # 8 stripes, the last half full


@pytest.fixture
def two_stripe_batches(monkeypatch):
    monkeypatch.setattr(shards, "_BATCH_BYTES",
                        2 * P.n * (P.f + 1) * P.chunk_size)


def _on_write(monkeypatch, hook):
    """Call hook(node, batch) in each ShardWriter.write, on the writer's
    thread, before it writes; batch counts a node's writes from 1."""
    write, written = shards.ShardWriter.write, {}

    def hooked(self, rows):
        written[self.node] = written.get(self.node, 0) + 1
        hook(self.node, written[self.node])
        write(self, rows)

    monkeypatch.setattr(shards.ShardWriter, "write", hooked)


def _encode_fails_cleanly(tmp_path, src, stderr):
    """An encode into a new directory two levels deep exits 2 with one
    error line, leaves no file or directory, and stops its threads."""
    before = sorted(tmp_path.rglob("*"))
    threads = threading.active_count()
    res = _run_encode(src, tmp_path / "new" / "shards")
    assert (res.exit_code, res.stderr) == (2, stderr)
    assert sorted(tmp_path.rglob("*")) == before
    assert threading.active_count() == threads


def test_encode_writer_error_in_second_batch(tmp_path, monkeypatch,
                                             two_stripe_batches):
    _, src = _input(tmp_path, FOUR_BATCHES, "input")

    def full(node, batch):
        if (node, batch) == (3, 2):
            raise OSError("disk full")

    _on_write(monkeypatch, full)
    _encode_fails_cleanly(tmp_path, src, "error: disk full\n")


def test_encode_input_shrinks_while_writes_run(tmp_path, monkeypatch,
                                               two_stripe_batches):
    # batch 2's writes start, then wait until batch 3 has failed to read
    # its input
    _, src = _input(tmp_path, FOUR_BATCHES, "input")
    writing, failed, started = threading.Event(), threading.Event(), []
    encode_from = shards.encode_from

    def shrinking(fill, size, params, step):
        coded = encode_from(fill, size, params, step)
        yield next(coded)
        yield next(coded)
        started.append(writing.wait(timeout=30))
        os.truncate(src, 5 * P.stripe_data_bytes)
        try:
            yield from coded
        finally:
            failed.set()

    def second_waits(node, batch):
        if batch == 2:
            writing.set()
            failed.wait(timeout=30)

    monkeypatch.setattr(shards, "encode_from", shrinking)
    _on_write(monkeypatch, second_waits)
    _encode_fails_cleanly(tmp_path, src,
                          f"error: {src} changed size while read\n")
    assert started == [True]


@pytest.fixture
def one_stripe_batches(monkeypatch):
    monkeypatch.setattr(shards, "_BATCH_BYTES", 1)


def test_decode_crc_failure_in_last_batch(tmp_path, one_stripe_batches):
    size = 300_000
    data, out = _encode(tmp_path, size)
    stripes = _stripes(size)
    _flip(out / shard_filename(2), stripes, stripes - 1, 0)   # part1[2]
    dest = tmp_path / "y.bin"
    res = _decode(out, dest)
    assert res.exit_code == 0, res.output
    assert dest.read_bytes() == data
    assert res.stderr.splitlines() == [
        "skipped: shard node_002.shard: part1[2] fails the CRC-32 check"]


def test_repair_crc_failure_in_last_batch_falls_back(tmp_path,
                                                     one_stripe_batches):
    size = 300_000
    _, out = _encode(tmp_path, size)
    stripes = _stripes(size)
    lost = out / shard_filename(3)
    expected = lost.read_bytes()
    lost.unlink()
    # node 2 holds part2[3], a look-up helper of node 3's part1[3]
    _flip(out / shard_filename(2), stripes, stripes - 1, 1)
    res = _repair(out, 3)
    assert res.exit_code == 0, res.output
    assert "via reconstruction fallback" in res.stdout
    assert lost.read_bytes() == expected
    assert res.stderr.splitlines() == [
        "skipped: shard node_002.shard: part2[3] fails the CRC-32 check",
        "look-up repair blocked for part1[3]; falling back to reconstruction"]


def test_mid_stream_failure_leaves_no_output(tmp_path, one_stripe_batches):
    # nodes 5..10 are exactly k; part1[5] failing in the last stripe
    # leaves part 1 short once stripes are already written
    size = 300_000
    _, out = _encode(tmp_path, size)
    stripes = _stripes(size)
    for node in range(1, 5):
        (out / shard_filename(node)).unlink()
    _flip(out / shard_filename(5), stripes, stripes - 1, 0)
    dest = tmp_path / "y.bin"
    res = _decode(out, dest)
    assert res.exit_code == 4
    assert res.stderr.splitlines()[0] == \
        "skipped: shard node_005.shard: part1[5] fails the CRC-32 check"
    assert res.stderr.splitlines()[-1].endswith("skipped node_005.shard")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["shards",
                                                          "shards.bin"]

