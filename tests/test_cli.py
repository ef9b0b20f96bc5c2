import errno
import hashlib
import json
import math
import os
import shutil
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from srcodes import cli, shards
from srcodes.cli import main
from srcodes.core import (ChunkId, SrcParams, data_chunks, plan_chunks,
                          split_plan)
from srcodes.metrics import comparison_table, format_table
from srcodes.shards import MANIFEST_NAME, ShardReader, shard_filename

from shard_files import (HEADER_B, RESERVED_AT, counter_input, slot_at,
                         table_at, table_bytes)


@pytest.fixture
def runner():
    return CliRunner()


def _write_input(tmp_path, size, seed=17):
    data = np.random.default_rng(seed).integers(
        0, 256, size, dtype=np.uint8).tobytes()
    path = tmp_path / "input.bin"
    path.write_bytes(data)
    return path, data


def _encode(runner, tmp_path, n=4, k=2, f=2, size=100_000, chunk=4096):
    src, data = _write_input(tmp_path, size)
    out = tmp_path / "shards"
    res = runner.invoke(main, ["encode", str(src), "--n", str(n), "--k", str(k),
                               "--f", str(f), "--chunk-size", str(chunk),
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    # the benchmark counts these files: no temporary file may remain
    assert sorted(p.name for p in out.iterdir()) == \
        sorted([MANIFEST_NAME] + [shard_filename(i) for i in range(1, n + 1)])
    return src, data, out


def _flip_byte(path, at):
    blob = bytearray(path.read_bytes())
    blob[at] ^= 0xFF
    path.write_bytes(bytes(blob))


def _stripes(p, size):
    return -(-size // p.stripe_data_bytes)


def _lookup(p, node):
    """The f helpers of each chunk of a node, and the nodes holding
    them, from the layout alone."""
    helpers = {h for c in p.node_chunks(node) for h in p.helpers(c)}
    return helpers, {p.chunk_location(h) for h in helpers}


def _decode(runner, out, dest):
    return runner.invoke(main, ["decode", "--manifest", str(out / MANIFEST_NAME),
                                "--shards", str(out), "--out", str(dest)])


def test_encode_repair_decode_cycle(runner, tmp_path):
    src, data, out = _encode(runner, tmp_path)
    lost = out / shard_filename(1)
    original_shard = lost.read_bytes()
    lost.unlink()

    res = runner.invoke(main, ["repair", "--manifest", str(out / MANIFEST_NAME),
                               "--shards", str(out), "--node", "1"])
    assert res.exit_code == 0, res.output
    assert "look-up repair" in res.output
    assert lost.read_bytes() == original_shard

    dest = tmp_path / "restored.bin"
    res = runner.invoke(main, ["decode", "--manifest", str(out / MANIFEST_NAME),
                               "--shards", str(out), "--out", str(dest)])
    assert res.exit_code == 0, res.output
    assert dest.read_bytes() == data


def test_encode_deterministic(runner, tmp_path):
    _, _, out1 = _encode(runner, tmp_path)
    src = tmp_path / "input.bin"
    out2 = tmp_path / "again"
    res = runner.invoke(main, ["encode", str(src), "--n", "4", "--k", "2",
                               "--f", "2", "--chunk-size", "4096",
                               "--out", str(out2)])
    assert res.exit_code == 0
    for node in range(1, 5):
        assert (out1 / shard_filename(node)).read_bytes() == \
            (out2 / shard_filename(node)).read_bytes()
    assert (out1 / MANIFEST_NAME).read_text() == \
        (out2 / MANIFEST_NAME).read_text()


def test_encode_reads_a_pipe(runner, tmp_path):
    # a pipe has no size to read into: it is read whole, and encodes to
    # the same shards as the regular file
    _, data, out = _encode(runner, tmp_path)
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,))
    writer.start()
    res = runner.invoke(main, ["encode", str(fifo), "--n", "4", "--k", "2",
                               "--f", "2", "--chunk-size", "4096",
                               "--out", str(tmp_path / "piped")])
    writer.join(timeout=30)
    assert not writer.is_alive()
    assert res.exit_code == 0, res.output
    assert _files(tmp_path / "piped") == _files(out)


@pytest.mark.parametrize("delta", [-1, 1])
def test_encode_input_changing_size_is_a_usage_error(runner, tmp_path,
                                                     monkeypatch, delta):
    # the size stat gave is off by one from what reading finds
    src, _ = _write_input(tmp_path, 10_000)
    fstat = os.fstat

    def changed(fd):
        st = fstat(fd)
        return os.stat_result(st[:6] + (st.st_size + delta,) + st[7:])

    monkeypatch.setattr(os, "fstat", changed)
    out = tmp_path / "shards"
    res = runner.invoke(main, ["encode", str(src), "--n", "4", "--k", "2",
                               "--f", "2", "--out", str(out)])
    assert (res.exit_code, res.stderr) == (
        2, f"error: {src} changed size while read\n")
    assert not out.exists()


def test_encode_stripe_too_large_for_memory_usage_error(runner, tmp_path):
    # a batch holds at least one part unit, n chunks: 4 PiB cannot be
    # allocated, even where memory is overcommitted
    src = tmp_path / "one.bin"
    src.write_bytes(b"x")
    out = tmp_path / "shards"
    res = runner.invoke(main, ["encode", str(src), "--n", "4", "--k", "2",
                               "--f", "2", "--chunk-size", str(2 ** 50),
                               "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.stderr.startswith("error: out of memory: ")
    assert res.stderr.count("\n") == 1 and "Traceback" not in res.output
    assert not out.exists()


@pytest.mark.parametrize("chunk", [2 ** 62, 2 ** 63, 2 ** 64])
def test_encode_stripe_beyond_any_buffer_usage_error(runner, tmp_path, chunk):
    # too large for a numpy array, or for the header's u64 field: a
    # usage error, not a traceback
    src = tmp_path / "one.bin"
    src.write_bytes(b"x")
    out = tmp_path / "new" / "shards"
    res = runner.invoke(main, ["encode", str(src), "--n", "4", "--k", "2",
                               "--f", "2", "--chunk-size", str(chunk),
                               "--out", str(out)])
    assert (res.exit_code, res.stderr) == (
        2, f"error: a stripe of 12 chunks of {chunk} bytes is too large "
        "to hold\n")
    assert sorted(tmp_path.iterdir()) == [src]


def test_encode_empty_file(runner, tmp_path, monkeypatch):
    # an empty file is no batch, so no command starts a writer thread
    started = []
    monkeypatch.setattr(threading.Thread, "start", started.append)
    src = tmp_path / "empty.bin"
    src.write_bytes(b"")
    out = tmp_path / "shards"
    res = runner.invoke(main, ["encode", str(src), "--n", "4", "--k", "2",
                               "--f", "2", "--out", str(out)])
    assert res.exit_code == 0
    manifest = json.loads((out / MANIFEST_NAME).read_text())
    assert manifest["stripe_count"] == 0 and manifest["file_size"] == 0
    dest = tmp_path / "restored.bin"
    res = runner.invoke(main, ["decode", "--manifest", str(out / MANIFEST_NAME),
                               "--shards", str(out), "--out", str(dest)])
    assert res.exit_code == 0
    assert dest.read_bytes() == b""
    shard = out / shard_filename(1)
    before = shard.read_bytes()
    shard.unlink()
    res = runner.invoke(main, ["repair", "--manifest", str(out / MANIFEST_NAME),
                               "--shards", str(out), "--node", "1"])
    assert res.exit_code == 0
    assert shard.read_bytes() == before
    assert started == []


# the SHA-256 of every file `srcodes encode` writes, manifest last: format
# v2 (the v1 digests of the same inputs are pinned in test_v1_fixture)
GOLDEN_ENCODE = {
    (4, 2, 2, 4096, 50_000): [
        "a0e04bc75d9b2b90eaa1f6db4941e3cac6aa37c8bd9618e337f227e2ef3de971",
        "f3587d3a116d0f702d9c4b8e690c54dd9dbd3602287a11558c8e651d9a3c235d",
        "9bc1441845df0744b97075a685a0f0c9baab33a3fb0325706135ac4a566e2f10",
        "eed7b1caae90a8fbd4ca6ccef40c6c179f60564848058645da602cee5e74f7ef",
        "e358a03e43c793d8c3164bf3d488e234236cb43426d4940d6cb1b72f917f9f39",
    ],
    # odd chunks (the 8-bit kernel path) and a partial last stripe
    (5, 3, 3, 1023, 30_000): [
        "e8d8a016fe74edd2d6a97649eb120a915ad2b399ddf0831ed12e2b0a1c0ebeab",
        "f45871309401656de148a34eff4a432c69168315f20f08b1266989b1d7d39feb",
        "14b9be702a2ddfc13dbe481df076c87a83d577abd9df8150aae908d1d9e82d5b",
        "a64d0eabc52007c109db3d3f7ca0f10ec24496f654f97cd0b8545e4c8193eef0",
        "c012ec6dcebc7e70ee1fa3d0a2e22768b9aeb19c3719cfc16c1690c7d5830b10",
        "7f651922cdc347a97a18ef0fbc6d4221da079efdbe540d560517bf4ac8730c4d",
    ],
    (10, 6, 2, 4096, 100_000): [
        "5944b225b1128bec8948f19d030f3b3f58fe2cab31618a326e80d4e94ab23110",
        "d06df13fd88a30c6d28d30e7a34f77534d0246fac00c2993780147a372d15d42",
        "9001a85a40523e077898b0742d325b2eac0b70b059dc5aa152cdfadc429aad60",
        "912932a0be96595992e7b7bd4dc1ffb433b752c4fb724c812145ecfd5d2f6f44",
        "03a2696860564cb2cf0feb35f7695661a7e6300815426dda67d9da71497cdf2b",
        "f057e1d1de0cbb32fc76734885ba12b14d3a31dcdcbf179fa9d59da04f645d05",
        "09715ac4750deb10f372775990bc927a3fa8a28dc954b8f583dfb13b98a2bd31",
        "0c737ebf28d630b499cce0c96b58bc59e450136bfa829898022bc5f97ebf5193",
        "36dc01e4bda5a6b9d9928f7975c47ececa336972a03bfb7c0c918b644d2884a5",
        "fa8b03e6c3e8bb0caa89fbeac7ea9a55482ebcbd375ff5d54c970fd668041f06",
        "6917ecea3f22f2f55c05b8bb3c30ff7186816c19921a4cf2945e7e4f4f91a982",
    ],
    (4, 2, 2, 4096, 0): [
        "42f0ebbb793e1b7a30e94f47865c55ece4bf9f89b247265481fb85141477d6fd",
        "074bc3cdc2266597214b0d6e49024e555ff425f803d96eb8003d365ec6d167d0",
        "22425ef61d66d411d8ccb039c5d44d018120acdc50626a8698accfe2a03a9d55",
        "693a0adda7a37eab636918aab345252be15eca89ffcad64df5ae3e2a516c236d",
        "a620f0c550d69667b2614eebf500cdad7a8394d3ac9aef803a8303937771d6b9",
    ],
}


@pytest.mark.parametrize("n,k,f,chunk,size", GOLDEN_ENCODE)
def test_encode_golden_digests(runner, tmp_path, n, k, f, chunk, size):
    src = tmp_path / "input.bin"
    src.write_bytes(counter_input(size))
    out = tmp_path / "shards"
    res = runner.invoke(main, ["encode", str(src), "--n", str(n), "--k", str(k),
                               "--f", str(f), "--chunk-size", str(chunk),
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    names = [shard_filename(i) for i in range(1, n + 1)] + [MANIFEST_NAME]
    got = [hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in names]
    assert got == GOLDEN_ENCODE[n, k, f, chunk, size]


def test_encode_invalid_params_usage_error(runner, tmp_path):
    src, _ = _write_input(tmp_path, 100)
    res = runner.invoke(main, ["encode", str(src), "--n", "4", "--k", "4",
                               "--f", "2", "--out", str(tmp_path / "x")])
    assert res.exit_code == 2
    assert "k < n" in res.output or "k < n" in (res.stderr or "")


@pytest.mark.parametrize("n,k,f,line", [
    ("6", "6", "2", "need 1 <= k < n <= 255, got n=6, k=6"),
    ("4", "2", "4", "need f+1 <= n for repairable placement, got f=4, n=4"),
], ids=["k-equals-n", "f-too-large"])
def test_metrics_and_encode_refuse_a_triple_alike(runner, tmp_path, n, k, f,
                                                  line):
    # both commands take their checks from SrcParams
    src, _ = _write_input(tmp_path, 100)
    code = ["--n", n, "--k", k, "--f", f]
    for args in (["encode", str(src), *code, "--out", str(tmp_path / "x")],
                 ["metrics", *code]):
        res = runner.invoke(main, args)
        assert (res.exit_code, res.stdout, res.stderr) == (
            2, "", f"error: {line}\n")


def test_repair_dry_run_writes_nothing(runner, tmp_path):
    _, _, out = _encode(runner, tmp_path, n=10, k=6, f=2, size=300_000)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    res = runner.invoke(main, ["repair", "--manifest", str(out / MANIFEST_NAME),
                               "--shards", str(out), "--node", "3", "--dry-run"])
    assert res.exit_code == 0, res.output
    assert "distinct helper disks: 4" in res.output
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    assert before == after


DRY_RUN_422_NODE_1 = """\
rebuild node 1:
  repair part1[1]:
    read part2[1] from node 4
    read parity[1] from node 3
    combine: XOR of 2 chunks
    bytes moved: 512
  repair part2[2]:
    read part1[2] from node 2
    read parity[2] from node 4
    combine: XOR of 2 chunks
    bytes moved: 512
  repair parity[3]:
    read part1[3] from node 3
    read part2[3] from node 2
    combine: XOR of 2 chunks
    bytes moved: 512
  distinct helper disks: 3 ([2, 3, 4])
  chunk reads per stripe: 6
  bytes moved: 1536
"""

DRY_RUN_1062_NODE_3 = """\
rebuild node 3:
  repair part1[3]:
    read part2[3] from node 2
    read parity[3] from node 1
    combine: XOR of 2 chunks
    bytes moved: 57344
  repair part2[4]:
    read part1[4] from node 4
    read parity[4] from node 2
    combine: XOR of 2 chunks
    bytes moved: 57344
  repair parity[5]:
    read part1[5] from node 5
    read part2[5] from node 4
    combine: XOR of 2 chunks
    bytes moved: 57344
  distinct helper disks: 4 ([1, 2, 4, 5])
  chunk reads per stripe: 6
  bytes moved: 172032
"""

# 2f = 6 > n - 1 = 4: every other node is a helper
DRY_RUN_533_NODE_2 = """\
rebuild node 2:
  repair part1[2]:
    read part2[2] from node 1
    read part3[2] from node 5
    read parity[2] from node 4
    combine: XOR of 3 chunks
    bytes moved: 3072
  repair part2[3]:
    read part1[3] from node 3
    read part3[3] from node 1
    read parity[3] from node 5
    combine: XOR of 3 chunks
    bytes moved: 3072
  repair part3[4]:
    read part1[4] from node 4
    read part2[4] from node 3
    read parity[4] from node 1
    combine: XOR of 3 chunks
    bytes moved: 3072
  repair parity[5]:
    read part1[5] from node 5
    read part2[5] from node 4
    read part3[5] from node 3
    combine: XOR of 3 chunks
    bytes moved: 3072
  distinct helper disks: 4 ([1, 3, 4, 5])
  chunk reads per stripe: 12
  bytes moved: 12288
"""


@pytest.mark.parametrize("n,k,f,node,size,chunk,expected", [
    (4, 2, 2, 1, 1000, 256, DRY_RUN_422_NODE_1),          # one stripe
    (10, 6, 2, 3, 300_000, 4096, DRY_RUN_1062_NODE_3),    # seven stripes
    (5, 3, 3, 2, 5000, 512, DRY_RUN_533_NODE_2),          # two stripes
], ids=["4-2-2", "10-6-2", "5-3-3"])
def test_repair_dry_run_stdout(runner, tmp_path, n, k, f, node, size, chunk,
                               expected):
    _, _, out = _encode(runner, tmp_path, n=n, k=k, f=f, size=size,
                        chunk=chunk)
    res = runner.invoke(main, ["repair", "--manifest", str(out / MANIFEST_NAME),
                               "--shards", str(out), "--node", str(node),
                               "--dry-run"])
    assert res.exit_code == 0, res.output
    assert res.stdout == expected


def test_repair_dry_run_prints_the_plan_with_every_other_node(runner,
                                                             tmp_path):
    # the dry run reads no shard file: deleting the node's shard and a
    # helper's changes no byte it prints, though it still reads from the
    # helper that the real repair has to plan around
    _, _, out = _encode(runner, tmp_path, n=6, k=4, f=2)
    args = ["repair", "--manifest", str(out / MANIFEST_NAME),
            "--shards", str(out), "--node", "1", "--dry-run"]
    whole = runner.invoke(main, args)
    for node in (1, 2):
        (out / shard_filename(node)).unlink()
    lost = runner.invoke(main, args)
    assert whole.exit_code == lost.exit_code == 0, lost.output
    assert lost.stdout_bytes == whole.stdout_bytes
    assert "from node 2" in whole.stdout


@pytest.mark.parametrize("n,k,f,node", [
    (5, 2, 2, 1),
    (10, 6, 2, 7),   # every slot of node 7 sits on a subscript > k
    (7, 3, 3, 2),
])
def test_repair_fallback_when_helper_missing(runner, tmp_path, monkeypatch,
                                             n, k, f, node):
    # 60_000 bytes is not a whole number of stripes for any case
    _, _, out = _encode(runner, tmp_path, n=n, k=k, f=f, size=60_000,
                        chunk=1024)
    manifest = out / MANIFEST_NAME
    lost = out / shard_filename(node)
    expected = lost.read_bytes()
    lost.unlink()
    # drop one look-up helper as well; n - 2 live nodes still >= k
    _, helper_nodes = _lookup(SrcParams(n, k, f, 1024), node)
    (out / shard_filename(max(helper_nodes))).unlink()

    def no_encode(*args):
        raise AssertionError("repair must not re-encode the file")

    monkeypatch.setattr(shards, "encoder", no_encode)
    res = runner.invoke(main, ["repair", "--manifest", str(manifest),
                               "--shards", str(out), "--node", str(node)])
    assert res.exit_code == 0, res.output
    assert "reconstruction fallback" in res.output
    assert lost.read_bytes() == expected


def test_repair_insufficient_shards_exit_3(runner, tmp_path):
    _, _, out = _encode(runner, tmp_path, n=4, k=2, f=2)
    for node in (1, 2, 4):
        (out / shard_filename(node)).unlink()
    res = runner.invoke(main, ["repair", "--manifest", str(out / MANIFEST_NAME),
                               "--shards", str(out), "--node", "1"])
    assert res.exit_code == 3


def test_decode_insufficient_shards_exit_3(runner, tmp_path):
    _, _, out = _encode(runner, tmp_path)
    for node in (1, 2, 3):
        (out / shard_filename(node)).unlink()
    res = runner.invoke(main, ["decode", "--manifest", str(out / MANIFEST_NAME),
                               "--shards", str(out), "--out",
                               str(tmp_path / "y.bin")])
    assert res.exit_code == 3


@pytest.mark.parametrize("triple,left,code", [
    ((10, 6, 2), (1, 3, 5, 7, 9), 3),   # k - 1 nodes that do not span the data
    ((5, 3, 2), (3, 4), 0)])            # k - 1 nodes that do
def test_decode_exactly_where_the_shards_span_the_data(runner, tmp_path,
                                                       triple, left, code):
    n, k, f = triple
    _, data, out = _encode(runner, tmp_path, n=n, k=k, f=f)
    for node in set(range(1, n + 1)) - set(left):
        (out / shard_filename(node)).unlink()
    dest = tmp_path / "y.bin"
    res = _decode(runner, out, dest)
    assert res.exit_code == code, res.output
    if code:
        assert res.stderr.endswith("do not determine it\n")
        assert not dest.exists()
    else:
        assert dest.read_bytes() == data


def test_decode_skips_corrupt_shard(runner, tmp_path):
    # node 1's header is corrupt, nodes 2-4 are intact and k = 2
    _, data, out = _encode(runner, tmp_path)
    _flip_byte(out / shard_filename(1), RESERVED_AT)
    dest = tmp_path / "y.bin"
    res = _decode(runner, out, dest)
    assert res.exit_code == 0, res.output
    assert dest.read_bytes() == data
    assert "node_001.shard" in res.stderr
    assert len(res.stderr.splitlines()) == 1


def test_corrupted_shard_exit_4(runner, tmp_path):
    # 3 of 4 shard headers corrupt leaves 1 usable shard, k = 2
    _, _, out = _encode(runner, tmp_path)
    for node in (1, 2, 4):
        _flip_byte(out / shard_filename(node), RESERVED_AT)
    res = _decode(runner, out, tmp_path / "y.bin")
    assert res.exit_code == 4
    assert not (tmp_path / "y.bin").exists()
    for node in (1, 2, 4):
        assert shard_filename(node) in res.stderr


def _eio_on(monkeypatch, name):
    """Make every os.preadv on the shard file called name fail with
    EIO, as a failing disk would."""
    opened, os_open, preadv = {}, os.open, os.preadv

    def recording_open(path, *args, **kwargs):
        fd = os_open(path, *args, **kwargs)
        opened[fd] = Path(path).name
        return fd

    def failing_preadv(fd, buffers, offset):
        if opened.get(fd) == name:
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        return preadv(fd, buffers, offset)

    monkeypatch.setattr(os, "open", recording_open)
    monkeypatch.setattr(os, "preadv", failing_preadv)


EIO_SKIP = "skipped: shard node_002.shard cannot be read: Input/output error"


def test_decode_skips_an_unreadable_shard(runner, tmp_path, monkeypatch):
    # node 2 holds part1[2], which a healthy decode reads
    _, data, out = _encode(runner, tmp_path, n=10, k=6, f=2, size=300_000)
    _eio_on(monkeypatch, shard_filename(2))
    dest = tmp_path / "y.bin"
    res = _decode(runner, out, dest)
    assert res.exit_code == 0, res.output
    assert dest.read_bytes() == data
    assert res.stderr.splitlines() == [EIO_SKIP]


def test_repair_skips_an_unreadable_helper(runner, tmp_path, monkeypatch):
    # node 2 holds part2[3], a look-up helper of node 3's part1[3]
    _, _, out = _encode(runner, tmp_path, n=10, k=6, f=2, size=300_000)
    lost = out / shard_filename(3)
    expected = lost.read_bytes()
    lost.unlink()
    _eio_on(monkeypatch, shard_filename(2))
    res = runner.invoke(main, ["repair", "--manifest", str(out / MANIFEST_NAME),
                               "--shards", str(out), "--node", "3"])
    assert res.exit_code == 0, res.output
    assert "via reconstruction fallback" in res.stdout
    assert lost.read_bytes() == expected
    assert [line for line in res.stderr.splitlines()
            if line.startswith("skipped:")] == [EIO_SKIP]


def test_a_fifo_in_place_of_a_shard_is_skipped(runner, tmp_path):
    # a FIFO named as a shard file must not block the command that opens
    # it: it is skipped as not a regular file.  Each command runs in its
    # own process, with a timeout, so that a hang fails the test.  Node 2
    # holds part1[2], which decode reads, and part1[2], a look-up helper
    # of node 1's part2[2].
    _, data, out = _encode(runner, tmp_path, n=5, k=3, f=2, size=30_000)
    lost = out / shard_filename(1)
    expected = lost.read_bytes()
    fifo = out / shard_filename(2)
    fifo.unlink()
    os.mkfifo(fifo)
    manifest = str(out / MANIFEST_NAME)
    skip = "skipped: shard node_002.shard is not a regular file"
    env = dict(os.environ, PYTHONPATH=str(
        Path(__file__).resolve().parent.parent / "src"))

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "srcodes.cli", *args, "--manifest",
             manifest, "--shards", str(out)], capture_output=True, text=True,
            timeout=60, env=env)

    dest = tmp_path / "y.bin"
    res = run("decode", "--out", str(dest))
    assert res.returncode == 0, res.stderr
    assert dest.read_bytes() == data
    assert res.stderr.splitlines() == [skip]
    lost.unlink()
    res = run("repair", "--node", "1")
    assert res.returncode == 0, res.stderr
    assert "via reconstruction fallback" in res.stdout
    assert lost.read_bytes() == expected
    assert res.stderr.splitlines()[0] == skip


def test_a_fifo_as_the_manifest_is_refused(runner, tmp_path):
    # a FIFO given as --manifest must not block decode or repair, nor one
    # given as simulate's --config: it is refused as not a regular file,
    # a usage error.  Each command runs in its own process, with a
    # timeout, so that a hang fails the test.
    _, _, out = _encode(runner, tmp_path, n=5, k=3, f=2, size=30_000)
    fifo = tmp_path / "manifest.fifo"
    os.mkfifo(fifo)
    env = dict(os.environ, PYTHONPATH=str(
        Path(__file__).resolve().parent.parent / "src"))
    shards = ["--manifest", str(fifo), "--shards", str(out)]
    for args, what in (
            (["decode", *shards, "--out", str(tmp_path / "y.bin")],
             "manifest"),
            (["repair", *shards, "--node", "1"], "manifest"),
            (["simulate", "--scheme", "rs", "--config", str(fifo)], "config")):
        res = subprocess.run(
            [sys.executable, "-m", "srcodes.cli", *args], capture_output=True,
            text=True, timeout=60, env=env)
        assert (res.returncode, res.stdout, res.stderr) == (
            2, "", f"error: {what} {fifo} is not a regular file\n")
    assert not (tmp_path / "y.bin").exists()


def test_an_output_that_is_not_a_regular_file_is_kept(runner, tmp_path):
    # os.replace would swap a FIFO, device or socket given as an output
    # for a regular file: each is refused, a link to one too, before
    # any temporary file is made, and is left as it was
    _, _, out = _encode(runner, tmp_path, n=5, k=3, f=2, size=30_000)
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    (tmp_path / "link").symlink_to(fifo.name)
    before = sorted(tmp_path.iterdir())
    for path in (fifo, tmp_path / "link"):
        for args in (["decode", "--manifest", str(out / MANIFEST_NAME),
                      "--shards", str(out), "--out", str(path)],
                     ["simulate", "--scheme", "src", "--out", str(path)],
                     ["simulate", "--scheme", "src", "--cdf-out", str(path),
                      "--out", str(tmp_path / "r.txt")]):
            res = runner.invoke(main, args)
            assert (res.exit_code, res.stdout, res.stderr) == (
                2, "", f"error: {path} is not a regular file; it is not "
                "replaced\n")
            assert sorted(tmp_path.iterdir()) == before
            assert stat.S_ISFIFO(fifo.lstat().st_mode)


def test_unreadable_shard_among_exactly_k_exit_4(runner, tmp_path,
                                                 monkeypatch):
    _, _, out = _encode(runner, tmp_path, n=10, k=6, f=2, size=300_000)
    for node in (4, 6, 8, 10):   # six nodes, exactly k
        (out / shard_filename(node)).unlink()
    # without node 2, nodes 1, 3, 5, 7 and 9 do not span the data: one of
    # the two five-node sets of (10,6,2) that do not
    _eio_on(monkeypatch, shard_filename(2))
    dest = tmp_path / "y.bin"
    res = _decode(runner, out, dest)
    assert res.exit_code == 4
    assert not dest.exists()
    assert res.stderr.splitlines()[0] == EIO_SKIP
    assert res.stderr.splitlines()[-1].startswith("error: ")
    assert res.stderr.splitlines()[-1].endswith("skipped node_002.shard")


@pytest.mark.parametrize("command", ["decode", "repair"])
@pytest.mark.parametrize("key,value", [("chunk_size", 2 ** 40),
                                       ("file_size", 2 ** 62)])
def test_sizes_no_shard_confirms_exit_4(runner, tmp_path, command, key,
                                        value):
    # a manifest whose sizes the shard files do not have: nothing is
    # allocated from them before a file's length is checked
    _, _, out = _encode(runner, tmp_path)
    manifest = out / MANIFEST_NAME
    doc = json.loads(manifest.read_text())
    p = doc["params"]
    (p if key in p else doc)[key] = value
    doc["stripe_count"] = -(-doc["file_size"]
                            // (p["f"] * p["k"] * p["chunk_size"]))
    manifest.write_text(json.dumps(doc))
    (out / shard_filename(1)).unlink()
    before = sorted(tmp_path.rglob("*"))
    if command == "decode":
        res = _decode(runner, out, tmp_path / "y.bin")
    else:
        res = runner.invoke(main, ["repair", "--manifest", str(manifest),
                                   "--shards", str(out), "--node", "1"])
    assert res.exit_code == 4, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.stderr.splitlines()[-1].startswith("error: ")
    assert sorted(tmp_path.rglob("*")) == before


def test_repair_fallback_when_helper_corrupt(runner, tmp_path):
    _, _, out = _encode(runner, tmp_path, n=10, k=6, f=2, size=60_000,
                        chunk=1024)
    lost = out / shard_filename(3)
    expected = lost.read_bytes()
    lost.unlink()
    # node 1 holds parity[3], a helper of node 3's part1[3]: corrupt it
    # in the last stripe, which look-up repair reads
    p = SrcParams(10, 6, 2, 1024)
    stripes = _stripes(p, 60_000)
    bad = min(_lookup(p, 3)[1])
    assert p.node_chunks(bad)[2].label(2) == "parity[3]"
    _flip_byte(out / shard_filename(bad), slot_at(p, stripes, stripes - 1, 2))
    res = runner.invoke(main, ["repair", "--manifest", str(out / MANIFEST_NAME),
                               "--shards", str(out), "--node", "3"])
    assert res.exit_code == 0, res.output
    assert "reconstruction fallback" in res.stdout
    assert lost.read_bytes() == expected
    # skipped by look-up repair, then left out of the fallback
    skips = [line for line in res.stderr.splitlines()
             if line.startswith("skipped:")]
    assert skips == [f"skipped: shard {shard_filename(bad)}: parity[3] "
                     "fails the CRC-32 check"]


def test_repair_names_only_the_look_ups_a_helper_blocks(runner, tmp_path):
    # node 10 holds part1[10], part2[1] and parity[2].  Node 1's part1[1],
    # a helper of part2[1], fails its CRC in the last stripe.  The
    # fallback plan then derives part 1, part1[10] with it, as that reads
    # fewer chunks; but part1[10]'s helpers, on nodes 8 and 9, are
    # intact, so only part2[1] is named.
    size = 3_300_000
    _, _, out = _encode(runner, tmp_path, n=10, k=6, f=2, size=size,
                        chunk=64 << 10)
    p = SrcParams(10, 6, 2, 64 << 10)
    assert p.node_chunks(10) == [(1, 10), (2, 1), (3, 2)]
    assert {p.chunk_location(h) for h in p.helpers(ChunkId(1, 10))} == {8, 9}
    lost = out / shard_filename(10)
    expected = lost.read_bytes()
    lost.unlink()
    stripes = _stripes(p, size)
    _flip_byte(out / shard_filename(1), slot_at(p, stripes, stripes - 1, 0))
    res = runner.invoke(main, ["repair", "--manifest", str(out / MANIFEST_NAME),
                               "--shards", str(out), "--node", "10"])
    assert res.exit_code == 0, res.output
    assert res.stdout == ("rebuilt node_010.shard via reconstruction "
                          "fallback; digest verified\n")
    assert res.stderr.splitlines() == [
        "skipped: shard node_001.shard: part1[1] fails the CRC-32 check",
        "look-up repair blocked for part2[1]; falling back to reconstruction"]
    assert lost.read_bytes() == expected


def _count_reads(monkeypatch):
    """Record the chunk ids and stripe range of each
    ShardReader.read_chunks call, and the bytes read from disk through
    os.pread and os.preadv."""
    calls, nbytes = [], []
    read_chunks, pread, preadv = ShardReader.read_chunks, os.pread, os.preadv

    def counting(reader, wanted, start, stop):
        calls.append((list(wanted), start, stop))
        return read_chunks(reader, calls[-1][0], start, stop)

    def counting_pread(fd, size, offset):
        data = pread(fd, size, offset)
        nbytes.append(len(data))
        return data

    def counting_preadv(fd, buffers, offset):
        got = preadv(fd, buffers, offset)
        nbytes.append(got)
        return got

    monkeypatch.setattr(ShardReader, "read_chunks", counting)
    monkeypatch.setattr(os, "pread", counting_pread)
    monkeypatch.setattr(os, "preadv", counting_preadv)
    return calls, nbytes


@pytest.mark.parametrize("n,k,f", [(4, 2, 2), (10, 6, 2), (7, 3, 3)])
def test_shard_reads_per_command(runner, tmp_path, monkeypatch, n, k, f):
    _check_shard_reads(runner, tmp_path, monkeypatch, n, k, f, None)


@pytest.mark.parametrize("n,k,f", [(4, 2, 2), (10, 6, 2), (7, 3, 3)])
def test_shard_reads_per_stripe_batch(runner, tmp_path, monkeypatch, n, k, f):
    # the same reads, one part of a stripe per batch: no slot read twice,
    # one header and CRC table per shard file for the whole command
    _check_shard_reads(runner, tmp_path, monkeypatch, n, k, f, 1)


def _check_shard_reads(runner, tmp_path, monkeypatch, n, k, f, batch_bytes):
    p = SrcParams(n, k, f, 512)
    _, _, out = _encode(runner, tmp_path, n=n, k=k, f=f, size=30_000,
                        chunk=512)
    stripes = _stripes(p, 30_000)
    head = HEADER_B + table_bytes(p, stripes)   # header and CRC table
    manifest = str(out / MANIFEST_NAME)
    if batch_bytes is not None:   # one part of a stripe per batch
        monkeypatch.setattr(shards, "_BATCH_BYTES", batch_bytes)
    batches = stripes if batch_bytes else 1
    calls, nbytes = _count_reads(monkeypatch)

    def nodes(ids):
        return {p.chunk_location(c) for c in ids}

    ranges = [(s, min(s + stripes // batches, stripes))
              for s in range(0, stripes, stripes // batches)]

    def read_once(ranges=ranges):
        """Every chunk is read at most once in each stripe, the calls
        cover the stripe ranges in order, and each shard file read adds
        one header and CRC table to the chunks, nothing more."""
        reads = [(c, s) for ids, a, b in calls for c in ids
                 for s in range(a, b)]
        assert len(reads) == len(set(reads))
        assert sorted({(a, b) for _, a, b in calls}) == ranges
        ids = {c for call, _, _ in calls for c in call}
        assert sum(nbytes) == len(nodes(ids)) * head \
            + len(reads) * p.chunk_size
        return ids

    # healthy decode: the f*k data chunks, M bytes, from nodes
    # 1..k and n-f+2..n, with no GF work left to do; the last stripe,
    # read on its own, reads only the data chunks that hold file bytes.
    # With a stripe over the budget, a stripe is read a part at a time,
    # a call per part, and the last stripe's parts end at the file's end.
    assert _decode(runner, out, tmp_path / "y.bin").exit_code == 0
    last = stripes - 1
    cut = sorted({(a, min(b, last)) for a, b in ranges if a < last}
                 | {(last, stripes)})
    assert read_once(cut) == set(data_chunks(p))
    assert nodes(c for ids, a, _ in calls if a == 0 for c in ids) == \
        set(range(1, k + 1)) | set(range(n - f + 2, n + 1))
    tail = 30_000 - last * p.stripe_data_bytes
    reads = data_chunks(p)[:-(-tail // p.chunk_size)]
    if batch_bytes is None:
        assert len(calls) == len(cut)
        assert [ids for ids, a, _ in calls if a == last] == [reads]
    else:
        assert [ids for ids, _, _ in calls] == \
            [data_chunks(p)[i:i + k] for i in range(0, f * k, k)] * last \
            + [reads[i:i + k] for i in range(0, len(reads), k)]

    # look-up repair: f helpers per lost chunk, f(f+1) chunks per stripe
    # from min(2f, n-1) nodes
    node = n
    targets = p.node_chunks(node)
    lookup, helper_nodes = _lookup(p, node)
    assert len(lookup) == f * (f + 1)
    assert len(helper_nodes) == min(2 * f, n - 1)
    rebuilt = (out / shard_filename(node)).read_bytes()
    (out / shard_filename(node)).unlink()
    calls.clear()
    nbytes.clear()
    res = runner.invoke(main, ["repair", "--manifest", manifest,
                               "--shards", str(out), "--node", str(node)])
    assert res.exit_code == 0, res.output
    assert read_once() == lookup and nodes(lookup) == helper_nodes
    if batch_bytes is None:
        assert len(calls) == 1
    else:   # a call per part: the f helpers of that part's target
        assert [ids for ids, _, _ in calls] == \
            [sorted(p.helpers(c)) for c in targets] * stripes

    def part_reads(plan):
        """What each part's call reads when a stripe is made a part at
        a time by plan: one call per part that reads anything."""
        return [list(unit.reads) for unit, _ in
                split_plan(plan, [[c] for c in targets]) if unit.reads]

    # a corrupt helper chunk in the first stripe: the look-up reads come
    # first, of the whole stripe or of the first part, then only what
    # deriving the targets needs and is not yet held; later batches read
    # the new plan
    available = {c for i in range(1, n + 1) if i != node
                 for c in p.node_chunks(i)}
    helper = p.helpers(targets[0])[0]
    at = p.chunk_location(helper)
    (out / shard_filename(node)).unlink()
    _flip_byte(out / shard_filename(at),
               slot_at(p, stripes, 0, p.node_chunks(at).index(helper)))
    calls.clear()
    nbytes.clear()
    res = runner.invoke(main, ["repair", "--manifest", manifest,
                               "--shards", str(out), "--node", str(node)])
    assert res.exit_code == 0, res.output
    assert "reconstruction fallback" in res.stdout
    assert f"skipped: shard {shard_filename(at)}: {helper.label(f)} fails " \
        "the CRC-32 check" in res.stderr
    plan = plan_chunks(p, available - {helper}, targets)
    replanned = set(plan.reads)
    if batch_bytes is None:
        extra = replanned - lookup
        assert set(calls[0][0]) == lookup and len(calls) == 1 + bool(extra)
        assert all(set(ids) == replanned
                   for ids, _, _ in calls[1 + bool(extra):])
        assert read_once() == lookup | extra
    else:
        first = sorted(p.helpers(targets[0]))
        assert [ids for ids, _, _ in calls] == \
            [first] + part_reads(plan) * stripes
        assert read_once() == set(first) | replanned
    assert (out / shard_filename(node)).read_bytes() == rebuilt

    # a missing helper is seen before any file is read: each batch reads
    # the plan that derives around it in one call, or a call per part
    # (flipping the byte back first restores the corrupt helper)
    _flip_byte(out / shard_filename(at),
               slot_at(p, stripes, 0, p.node_chunks(at).index(helper)))
    (out / shard_filename(node)).unlink()
    gone = min(helper_nodes)
    (out / shard_filename(gone)).unlink()
    calls.clear()
    nbytes.clear()
    res = runner.invoke(main, ["repair", "--manifest", manifest,
                               "--shards", str(out), "--node", str(node)])
    assert res.exit_code == 0, res.output
    assert "reconstruction fallback" in res.stdout
    plan = plan_chunks(p, available - set(p.node_chunks(gone)), targets)
    assert read_once() == set(plan.reads)
    assert [ids for ids, _, _ in calls] == ([list(plan.reads)]
                                           if batch_bytes is None
                                           else part_reads(plan) * stripes)
    assert (out / shard_filename(node)).read_bytes() == rebuilt


def test_decode_reads_no_parity_slot(runner, tmp_path, monkeypatch):
    # the last payload byte of every shard is in the parity slot of its
    # last stripe: a healthy decode never reads it, so no shard is skipped
    _, data, out = _encode(runner, tmp_path, n=10, k=6, f=2, size=60_000,
                           chunk=1024)
    p = SrcParams(10, 6, 2, 1024)
    for node in range(1, 11):
        _flip_byte(out / shard_filename(node),
                   table_at(p, _stripes(p, 60_000)) - 1)
    calls, _ = _count_reads(monkeypatch)
    dest = tmp_path / "y.bin"
    res = _decode(runner, out, dest)
    assert res.exit_code == 0, res.output
    assert dest.read_bytes() == data
    assert res.stderr == ""
    assert calls and all(c.part <= 2 for ids, _, _ in calls for c in ids)


@pytest.mark.parametrize("version", [1, 2])
def test_decode_reads_no_padding(runner, tmp_path, version):
    # a data chunk of the last stripe wholly past the end of the file is
    # zero: a decode neither reads it nor checks its CRC, so a flipped
    # byte there is not seen
    if version == 1:   # (5,3,2), 1 KiB chunks, 20 000 bytes
        out = tmp_path / "v1"
        shutil.copytree(Path(__file__).resolve().parent / "fixtures" / "v1",
                        out)
        p, size, data = SrcParams(5, 3, 2, 1024), 20_000, counter_input(20_000)
    else:
        p, size = SrcParams(10, 6, 2, 1024), 52_000
        _, data, out = _encode(runner, tmp_path, n=10, k=6, f=2, size=size,
                               chunk=1024)
    stripes = _stripes(p, size)
    tail = size - (stripes - 1) * p.stripe_data_bytes
    padding = data_chunks(p)[-(-tail // p.chunk_size)]   # the first past it
    node = p.chunk_location(padding)
    assert json.loads((out / MANIFEST_NAME).read_text())["version"] == version
    _flip_byte(out / shard_filename(node),
               slot_at(p, stripes, stripes - 1,
                       p.node_chunks(node).index(padding), version) + 7)
    dest = tmp_path / "y.bin"
    res = _decode(runner, out, dest)
    assert res.exit_code == 0, res.output
    assert dest.read_bytes() == data
    assert not [line for line in res.stderr.splitlines()
                if line.startswith("skipped:")]


@pytest.mark.parametrize("n,k,f,reads", [
    (10, 6, 2, 8), (20, 16, 3, 34), (50, 46, 2, 48)])
def test_fallback_repair_reads_per_stripe(runner, tmp_path, monkeypatch, n, k,
                                          f, reads):
    # node 2 with node 1, which holds part2[2], missing: part 2 is
    # derived from k of its chunks, part1[2] is part2[2] XOR parity[2],
    # and parity[4] stays a look-up
    p = SrcParams(n, k, f, 256)
    size = 2 * p.stripe_data_bytes
    _, _, out = _encode(runner, tmp_path, n=n, k=k, f=f, size=size,
                        chunk=256)
    rebuilt = (out / shard_filename(2)).read_bytes()
    for node in (1, 2):
        (out / shard_filename(node)).unlink()
    calls, nbytes = _count_reads(monkeypatch)
    res = runner.invoke(main, ["repair", "--manifest",
                               str(out / MANIFEST_NAME), "--shards", str(out),
                               "--node", "2"])
    assert res.exit_code == 0, res.output
    assert "via reconstruction fallback" in res.stdout
    assert [(len(ids), a, b) for ids, a, b in calls] == [(reads, 0, 2)]
    ids = calls[0][0]
    assert sum(nbytes) == len({p.chunk_location(c) for c in ids}) * (
        HEADER_B + table_bytes(p, 2)) + 2 * reads * p.chunk_size
    assert (out / shard_filename(2)).read_bytes() == rebuilt


def test_parity_heavy_decode_reads_f_times_k_per_stripe(runner, tmp_path,
                                                        monkeypatch):
    # (10,6,2) with nodes 1, 3, 5 and 6 missing: both parts derived from
    # 6 chunks each, and no helper read for an XOR beside them
    p = SrcParams(10, 6, 2, 256)
    size = 2 * p.stripe_data_bytes
    _, data, out = _encode(runner, tmp_path, n=10, k=6, f=2, size=size,
                           chunk=256)
    for node in (1, 3, 5, 6):
        (out / shard_filename(node)).unlink()
    calls, _ = _count_reads(monkeypatch)
    dest = tmp_path / "y.bin"
    assert _decode(runner, out, dest).exit_code == 0
    assert dest.read_bytes() == data
    assert [(len(ids), a, b) for ids, a, b in calls] == [(12, 0, 2)]


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*")
            if p.is_file()}


def test_failed_write_leaves_old_files(runner, tmp_path, monkeypatch):
    # every write fails at os.replace: no torn or temporary file may
    # appear and every file that existed before keeps its bytes
    src, data, out = _encode(runner, tmp_path)
    dest = tmp_path / "restored.bin"
    dest.write_bytes(b"old contents")
    (out / shard_filename(1)).unlink()
    before = _files(tmp_path)

    def no_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", no_replace)
    results = [runner.invoke(main, ["repair", "--manifest",
                                    str(out / MANIFEST_NAME), "--shards",
                                    str(out), "--node", "1"]),
               _decode(runner, out, dest)]
    src.write_bytes(data[::-1])
    results.append(runner.invoke(main, ["encode", str(src), "--n", "4",
                                        "--k", "2", "--f", "2",
                                        "--chunk-size", "4096",
                                        "--out", str(out)]))
    src.write_bytes(data)
    assert _files(tmp_path) == before
    for res in results:
        assert (res.exit_code, res.stderr) == (2, "error: disk full\n")


def _unwritable_out(tmp_path, command):
    """Arguments writing one command's output where it cannot be
    written: into a missing directory, or under a regular file."""
    if command == "encode":
        src, _ = _write_input(tmp_path, 1000)
        return ["encode", str(src), "--n", "4", "--k", "2", "--f", "2",
                "--out", str(src / "sub")]
    if command == "simulate":
        return ["simulate", "--scheme", "src", "--machines", "20",
                "--data-per-machine", "1000000000",
                "--out", str(tmp_path / "missing" / "r.txt")]
    _, _, out = _encode(CliRunner(), tmp_path, size=1000)
    return ["decode", "--manifest", str(out / MANIFEST_NAME), "--shards",
            str(out), "--out", str(tmp_path / "missing" / "f")]


@pytest.mark.parametrize("command", ["encode", "decode", "simulate"])
def test_unwritable_output_exit_2(runner, tmp_path, command):
    res = runner.invoke(main, _unwritable_out(tmp_path, command))
    assert res.exit_code == 2, res.output
    assert not isinstance(res.exception, OSError)
    line, = res.stderr.splitlines()
    assert line.startswith("error: [Errno ")


def test_unwritable_output_error_names_the_path(runner, tmp_path):
    # the error names the path given, not the temporary file beside it
    _, _, out = _encode(runner, tmp_path, size=1000)
    dest = tmp_path / "missing" / "f"
    res = _decode(runner, out, dest)
    assert (res.exit_code, res.stderr) == (
        2, f"error: [Errno 2] No such file or directory: '{dest}'\n")
    again = tmp_path / "again"
    (again / shard_filename(1)).mkdir(parents=True)
    res = runner.invoke(main, ["encode", str(tmp_path / "input.bin"), "--n",
                               "4", "--k", "2", "--f", "2", "--out",
                               str(again)])
    assert (res.exit_code, res.stderr) == (
        2, f"error: [Errno 21] Is a directory: "
           f"'{again / shard_filename(1)}'\n")
    assert sorted(p.name for p in again.iterdir()) == [shard_filename(1)]


def test_a_directory_as_a_shard_path_is_refused_before_any_work(
        runner, tmp_path, monkeypatch):
    # os.replace would refuse it only after every batch was read and
    # coded: the directory is refused before the batch loop, and no
    # temporary file is left
    _, _, out = _encode(runner, tmp_path, size=30_000)

    def no_work(*args):
        raise AssertionError("coded before refusing the directory")

    monkeypatch.setattr(shards, "_pipeline", no_work)
    again = tmp_path / "again"
    (again / shard_filename(1)).mkdir(parents=True)
    res = runner.invoke(main, ["encode", str(tmp_path / "input.bin"), "--n",
                               "4", "--k", "2", "--f", "2", "--out",
                               str(again)])
    assert (res.exit_code, res.stderr) == (
        2, f"error: [Errno 21] Is a directory: "
           f"'{again / shard_filename(1)}'\n")
    assert sorted(p.name for p in again.iterdir()) == [shard_filename(1)]
    lost = out / shard_filename(2)
    lost.unlink()
    lost.mkdir()
    before = sorted(out.iterdir())
    res = runner.invoke(main, ["repair", "--manifest", str(out / MANIFEST_NAME),
                               "--shards", str(out), "--node", "2"])
    assert (res.exit_code, res.stderr) == (
        2, f"error: [Errno 21] Is a directory: '{lost}'\n")
    assert sorted(out.iterdir()) == before


def test_simulate_unwritable_out_writes_nothing(runner, tmp_path,
                                                monkeypatch):
    # both outputs are opened before the run: an unwritable one fails
    # fast and leaves neither file
    def no_run(*args):
        raise AssertionError("simulated before opening the outputs")

    monkeypatch.setattr(cli.sim_mod, "build_cluster", no_run)
    cdf, report = tmp_path / "cdf.csv", tmp_path / "missing" / "r.txt"
    res = runner.invoke(main, ["simulate", "--scheme", "src", "--cdf-out",
                               str(cdf), "--out", str(report)])
    assert (res.exit_code, res.stderr) == (
        2, f"error: [Errno 2] No such file or directory: '{report}'\n")
    assert list(tmp_path.iterdir()) == []


def test_simulate_out_and_cdf_out_must_differ(runner, tmp_path):
    same = tmp_path / "r.txt"
    (tmp_path / "d").mkdir()
    for spelling in ("r.txt", "d/../r.txt"):   # the same file either way
        res = runner.invoke(main, ["simulate", "--scheme", "src", "--out",
                                   str(same), "--cdf-out",
                                   str(tmp_path / spelling)])
        assert (res.exit_code, res.stderr) == (
            2, "error: --out and --cdf-out name the same file\n")
        assert not same.exists()


def _drop_params(doc):
    del doc["params"]


def _file_size_as_text(doc):
    doc["file_size"] = str(doc["file_size"])


def _drop_shard_entry(doc):
    del doc["shards"]["3"]


def _extra_shard_entry(doc):
    doc["shards"]["11"] = doc["shards"]["1"]


def _negative_file_size(doc):
    doc["file_size"] = -1


def _wrong_stripe_count(doc):
    doc["stripe_count"] += 1


def _chunk_size_beyond_u64(doc):
    # the header's u64 field cannot hold it; stripe_count fitted
    doc["params"]["chunk_size"] = 2 ** 64
    doc["stripe_count"] = 1


def _file_size_beyond_u64(doc):
    doc["file_size"] = 2 ** 64
    p = doc["params"]
    doc["stripe_count"] = -(-2 ** 64 // (p["f"] * p["k"] * p["chunk_size"]))


def _digest_not_text(doc):
    doc["shards"]["2"]["digest"] = 5


def _digest_not_hex(doc):
    doc["shards"]["2"]["digest"] = "xy" * 32


def _file_digest_not_text(doc):
    doc["file_digest"] = 5


def _shard_files_renamed(doc):
    doc["shards"]["1"]["file"] = "../../etc/passwd"
    doc["shards"]["2"]["file"] = 7


def _f_as_boolean(doc):
    # true would read as f=1: with stripe_count fitted to f=1, only the
    # type is wrong
    doc["params"]["f"] = True
    data_bytes = doc["params"]["k"] * doc["params"]["chunk_size"]
    doc["stripe_count"] = -(-doc["file_size"] // data_bytes)


def _sizes_as_boolean(doc):
    # false would read as 0: an empty file of no stripes
    doc["file_size"] = doc["stripe_count"] = False


@pytest.mark.parametrize("edit", [
    None, _drop_params, _file_size_as_text, _drop_shard_entry,
    _extra_shard_entry, _negative_file_size, _wrong_stripe_count,
    _chunk_size_beyond_u64, _file_size_beyond_u64,
    _digest_not_text, _digest_not_hex, _file_digest_not_text,
    _f_as_boolean, _sizes_as_boolean, _shard_files_renamed,
], ids=["not-json", "no-params", "wrong-type", "missing-shard-entry",
        "extra-shard-entry", "negative-file-size", "wrong-stripe-count",
        "chunk-size-beyond-u64", "file-size-beyond-u64",
        "digest-not-text", "digest-not-hex", "file-digest-not-text",
        "f-as-boolean", "sizes-as-boolean", "shard-files-renamed"])
def test_malformed_manifest_exit_4(runner, tmp_path, edit):
    _, _, out = _encode(runner, tmp_path, n=10, k=6, f=2)
    manifest = out / MANIFEST_NAME
    if edit is None:
        manifest.write_text("{not json")
    else:
        doc = json.loads(manifest.read_text())
        edit(doc)
        manifest.write_text(json.dumps(doc))
    (out / shard_filename(5)).unlink()
    for args in (["decode", "--out", str(tmp_path / "y.bin")],
                 ["repair", "--node", "5"]):
        res = runner.invoke(main, args + ["--manifest", str(manifest),
                                          "--shards", str(out)])
        assert res.exit_code == 4, res.output
        assert "malformed manifest" in res.output
    assert not (tmp_path / "y.bin").exists()
    assert not (out / shard_filename(5)).exists()


@pytest.mark.parametrize("version", [0, 3, "2", 2.0, None])
def test_manifest_version_other_than_1_or_2_exit_4(runner, tmp_path,
                                                    version):
    # encode writes version 2; test_v1_fixture reads a version 1 set
    _, _, out = _encode(runner, tmp_path)
    manifest = out / MANIFEST_NAME
    doc = json.loads(manifest.read_text())
    assert doc["version"] == 2
    doc["version"] = version
    manifest.write_text(json.dumps(doc))
    (out / shard_filename(1)).unlink()
    for args in (["decode", "--out", str(tmp_path / "y.bin")],
                 ["repair", "--node", "1"]):
        res = runner.invoke(main, args + ["--manifest", str(manifest),
                                          "--shards", str(out)])
        assert (res.exit_code, res.stderr) == (
            4, f"error: unsupported manifest version {version}\n")
    assert not (tmp_path / "y.bin").exists()
    assert not (out / shard_filename(1)).exists()


def _edited_manifest(runner, tmp_path, key, value):
    """An encoded (4,2,2) set with node 1 deleted and one manifest value
    replaced; the manifest path and shard directory."""
    _, _, out = _encode(runner, tmp_path)
    manifest = out / MANIFEST_NAME
    doc = json.loads(manifest.read_text())
    (doc["params"] if key in doc["params"] else doc)[key] = value
    manifest.write_text(json.dumps(doc))
    (out / shard_filename(1)).unlink()
    return manifest, out


@pytest.mark.parametrize("key,value,problem", [
    ("k", 4, "need 1 <= k < n <= 255, got n=4, k=4"),
    ("f", 0, "need f >= 1, got f=0"),
    ("chunk_size", 0, "chunk_size must be >= 1, got 0"),
    ("digest_algorithm", "md5", None),
], ids=["k-equals-n", "f-zero", "chunk-size-zero", "unknown-digest"])
def test_manifest_values_out_of_range_exit_4(runner, tmp_path, key, value,
                                             problem):
    manifest, out = _edited_manifest(runner, tmp_path, key, value)
    error = ("unknown digest algorithm 'md5'" if problem is None
             else f"malformed manifest: ParameterError: {problem}")
    for args in (["decode", "--out", str(tmp_path / "y.bin")],
                 ["repair", "--node", "1"]):
        res = runner.invoke(main, args + ["--manifest", str(manifest),
                                          "--shards", str(out)])
        assert (res.exit_code, res.stderr) == (4, f"error: {error}\n")
    assert not (tmp_path / "y.bin").exists()
    assert not (out / shard_filename(1)).exists()


def test_decode_wrong_file_digest_exit_4(runner, tmp_path):
    # a well-formed digest that the decoded bytes do not hash to
    manifest, out = _edited_manifest(runner, tmp_path, "file_digest",
                                     "0" * 64)
    res = _decode(runner, out, tmp_path / "y.bin")
    assert (res.exit_code, res.stderr) == (
        4, "error: decoded file does not match the manifest digest\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["input.bin",
                                                          "shards"]


@pytest.mark.parametrize("name", [MANIFEST_NAME, shard_filename(3)])
def test_decode_refuses_an_out_in_its_own_set(runner, tmp_path, monkeypatch,
                                              name):
    # the decoded bytes would replace the manifest or a shard, and the
    # set could no longer be decoded or repaired; the path is refused
    # however it is spelled, before any shard is read
    _, _, out = _encode(runner, tmp_path)
    before = {p: p.read_bytes() for p in sorted(out.iterdir())}

    def no_reader(*args, **kwargs):
        raise AssertionError("a shard was read")

    monkeypatch.setattr(shards, "ShardReader", no_reader)
    res = _decode(runner, out, out / ".." / out.name / name)
    assert (res.exit_code, res.stderr) == (
        2, f"error: --out would replace {name}, a file of the shard set\n")
    assert {p: p.read_bytes() for p in sorted(out.iterdir())} == before


def test_decode_without_systematic_nodes(runner, tmp_path):
    # force the non-pass-through path by deleting the first k shards
    src, data, out = _encode(runner, tmp_path, n=5, k=2, f=2)
    for node in (1, 2, 3):
        (out / shard_filename(node)).unlink()
    dest = tmp_path / "z.bin"
    res = runner.invoke(main, ["decode", "--manifest", str(out / MANIFEST_NAME),
                               "--shards", str(out), "--out", str(dest)])
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(dest.read_bytes()).hexdigest() == \
        hashlib.sha256(data).hexdigest()


def test_metrics_command(runner):
    res = runner.invoke(main, ["metrics", "--n", "50", "--k", "46", "--f", "2"])
    assert res.exit_code == 0
    assert "SRC 0.5435" in res.output
    assert "RS 0.3623" in res.output
    res = runner.invoke(main, ["metrics", "--n", "10", "--k", "6", "--csv"])
    assert res.exit_code == 0
    assert res.output.startswith("scheme,alpha")
    res = runner.invoke(main, ["metrics", "--n", "4", "--k", "4"])
    assert res.exit_code == 2


METRICS_ASYMPTOTIC_TAIL = """\
normalized storage cost vs 3-way replication: SRC 0.8333, RS 0.5556
asymptotics (f = log2 k, fixed rate k/n):
k,f,src_rate,bandwidth_ratio_vs_msr
8,3.0,0.44999999999999996,1.7297297297297298
32,5.0,0.5,2.445859872611465
128,7.0,0.525,3.2150706436420724
512,9.0,0.54,4.004692999608917
2048,11.0,0.5499999999999999,4.80140666210804
8192,13.0,0.5571428571428572,5.600410186292941
32768,15.0,0.5625,6.4001171896458064
131072,17.0,0.5666666666666667,7.20003295913525
524288,19.0,0.57,8.000009155283914
"""


def test_metrics_asymptotic_stdout(runner):
    res = runner.invoke(main, ["metrics", "--n", "10", "--k", "6", "--f", "2",
                               "--asymptotic"])
    assert res.exit_code == 0, res.output
    table = format_table(comparison_table(10, 6, 2))
    assert res.stdout == f"{table}\n{METRICS_ASYMPTOTIC_TAIL}"


def test_metrics_starts_no_thread(runner):
    before = threading.active_count()
    res = runner.invoke(main, ["metrics", "--n", "10", "--k", "6", "--f", "2"])
    assert res.exit_code == 0
    assert threading.active_count() == before


def test_reports_and_decode_start_no_thread_and_import_no_pool(runner,
                                                               tmp_path):
    # the report commands run on the main thread alone.  A decode that
    # derives chunks by GF work does that work on the main thread and
    # writes each batch on one writer thread, joined before the command
    # returns, so no thread is left; no command imports a thread pool.
    # No command loads a module that importing the CLI did not: a
    # benchmark subtracts the reads of a launch that only imports the
    # CLI, so a module imported later counts against the command, and
    # a look-up repair has no slack for it, as its reads are checked
    # against the manifest, the repair bandwidth and the helpers'
    # headers and CRC tables alone
    src_file, data = _write_input(tmp_path, 4 << 20)
    out, decoded = tmp_path / "shards", tmp_path / "decoded.bin"
    script = """
import os, sys, threading
from srcodes.cli import main
from srcodes.shards import MANIFEST_NAME, shard_filename
loaded = set(sys.modules)
data, out, decoded = sys.argv[1:]
shards = ["--manifest", os.path.join(out, MANIFEST_NAME), "--shards", out]
for lost, args in (
        ((), ["metrics", "--n", "10", "--k", "6", "--f", "2"]),
        ((), ["simulate", "--scheme", "src", "--n", "10", "--k", "6",
              "--f", "2", "--machines", "40", "--seed", "1"]),
        ((), ["reliability"]),
        ((), ["encode", data, "--n", "4", "--k", "2", "--f", "1",
              "--chunk-size", "65536", "--out", out]),
        ((), ["decode", *shards, "--out", decoded]),   # healthy
        ((), ["repair", *shards, "--node", "1", "--dry-run"]),
        ((4,), ["repair", *shards, "--node", "4"]),    # look-up
        ((4,), ["repair", *shards, "--node", "1"]),    # fallback
        # parity-heavy: part1[1] is derived from nodes 2 and 3
        ((1,), ["decode", *shards, "--out", decoded])):
    for node in lost:
        os.unlink(os.path.join(out, shard_filename(node)))
    try:
        main(args)
    except SystemExit as e:
        assert not e.code, e.code
    assert set(sys.modules) == loaded, (args[0], sorted(
        set(sys.modules) ^ loaded))
print(threading.active_count(), "concurrent.futures" in sys.modules)
"""
    res = subprocess.run(
        [sys.executable, "-c", script, str(src_file), str(out), str(decoded)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(
            Path(__file__).resolve().parent.parent / "src")))
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert [line.split(" via ")[1] for line in lines if " via " in line] == [
        "look-up repair; digest verified",
        "reconstruction fallback; digest verified"]
    assert lines[-1] == "1 False"
    assert decoded.read_bytes() == data


def test_simulate_deterministic(runner, tmp_path):
    args = ["simulate", "--scheme", "src", "--n", "10", "--k", "6", "--f", "2",
            "--machines", "100", "--seed", "1"]
    a = runner.invoke(main, args)
    b = runner.invoke(main, args)
    assert a.exit_code == 0, a.output
    assert a.output == b.output
    assert "scheme=SRC(10,6,2)" in a.output


SIMULATE_SRC_30 = """\
scheme=SRC(10,6,2) mode=repair seed=3
machines=30 chunks_per_machine=30 failed_machine=4
lost_chunks=30 helper_reads_per_chunk=2
elapsed_s=5.323969877333332
throughput_bytes_per_s=378151260.50420177
bytes_read=4026531840 bytes_transferred=4026531840 bytes_written=2013265920
disk_accesses=60 data_loss=False
chunk_durations_s=1.073741824,1.073741824,1.073741824,1.7895697066666667,\
1.073741824,1.073741824,1.7895697066666667,1.7895697066666667,\
2.594876074666666,2.1474836479999997,2.326440618666666,2.326440618666666,\
2.594876074666666,3.668617898666666,2.9527900159999994,3.668617898666666,\
3.7580963839999995,3.400182442666666,3.400182442666666,3.668617898666666,\
3.668617898666666,4.160749568,4.831838207999999,4.473924266666666,\
4.742359722666666,4.742359722666666,4.742359722666666,4.742359722666666,\
5.189752149333332,5.323969877333332
"""


def test_simulate_src_report(runner):
    # the durations depend on which machines each repair job reads from
    res = runner.invoke(main, ["simulate", "--scheme", "src", "--machines",
                               "30", "--data-per-machine", "2000000000",
                               "--seed", "3", "--failed-machine", "4"])
    assert res.exit_code == 0, res.output
    assert res.stdout == SIMULATE_SRC_30


SIMULATE_RS_DEGRADED_30 = """\
scheme=RS(10,6) mode=degraded-read seed=3
machines=30 chunks_per_machine=30 failed_machine=4
lost_chunks=30 helper_reads_per_chunk=6
elapsed_s=13.498468644571428
throughput_bytes_per_s=149147727.27272728
bytes_read=12079595520 bytes_transferred=12079595520 bytes_written=0
disk_accesses=180 data_loss=False
chunk_durations_s=3.221225472,3.221225472,3.221225472,3.221225472,\
3.221225472,3.221225472,3.221225472,3.221225472,6.442450944,6.442450944,\
6.442450944,6.442450944,6.442450944,6.442450944,6.442450944,6.442450944,\
10.277243172571428,10.277243172571428,9.663676416,10.277243172571428,\
10.277243172571428,10.277243172571428,10.277243172571428,\
10.277243172571428,12.91558022582857,13.498468644571428,\
13.498468644571428,13.498468644571428,13.498468644571428,13.498468644571428
"""


def test_simulate_degraded_report(runner):
    # a degraded read streams k chunks per lost chunk and writes nothing
    res = runner.invoke(main, ["simulate", "--scheme", "rs", "--machines",
                               "30", "--data-per-machine", "2000000000",
                               "--seed", "3", "--failed-machine", "4",
                               "--degraded"])
    assert res.exit_code == 0, res.output
    assert res.stdout == SIMULATE_RS_DEGRADED_30


SIMULATE_REPLICATION_30 = """\
scheme=3-way-replication mode=repair seed=3
machines=30 chunks_per_machine=30 failed_machine=4
lost_chunks=30 helper_reads_per_chunk=1
elapsed_s=2.684354560000001
throughput_bytes_per_s=749999999.9999998
bytes_read=2013265920 bytes_transferred=2013265920 bytes_written=2013265920
disk_accesses=30 data_loss=False
chunk_durations_s=0.536870912,0.536870912,0.536870912,0.536870912,\
1.073741824,1.073741824,0.536870912,0.536870912,1.073741824,1.073741824,\
1.8790481920000004,1.073741824,1.073741824,1.8790481920000004,\
1.6106127360000002,1.6106127360000002,1.6106127360000002,\
2.1474836480000006,1.6106127360000002,1.6106127360000002,\
2.1474836480000006,2.1474836480000006,2.1474836480000006,\
2.1474836480000006,2.1474836480000006,2.4159191040000008,\
2.4159191040000008,2.684354560000001,2.684354560000001,2.684354560000001
"""

SIMULATE_RS_30 = """\
scheme=RS(10,6) mode=repair seed=3
machines=30 chunks_per_machine=30 failed_machine=4
lost_chunks=30 helper_reads_per_chunk=6
elapsed_s=13.498468644571428
throughput_bytes_per_s=149147727.27272728
bytes_read=12079595520 bytes_transferred=12079595520 bytes_written=2013265920
disk_accesses=180 data_loss=False
chunk_durations_s=3.221225472,3.221225472,3.221225472,3.221225472,\
3.221225472,3.221225472,3.221225472,3.221225472,6.442450944,6.442450944,\
6.442450944,6.442450944,6.442450944,6.442450944,6.442450944,6.442450944,\
10.277243172571428,10.277243172571428,9.663676416,10.277243172571428,\
10.277243172571428,10.277243172571428,10.277243172571428,\
10.277243172571428,12.91558022582857,13.498468644571428,\
13.498468644571428,13.498468644571428,13.498468644571428,13.498468644571428
"""


@pytest.mark.parametrize("scheme,report", [
    ("replication", SIMULATE_REPLICATION_30), ("rs", SIMULATE_RS_30)])
def test_simulate_mds_repair_report(runner, scheme, report):
    # which survivors each job reads comes from the seeded job RNG
    res = runner.invoke(main, ["simulate", "--scheme", scheme, "--machines",
                               "30", "--data-per-machine", "2000000000",
                               "--seed", "3", "--failed-machine", "4"])
    assert res.exit_code == 0, res.output
    assert res.stdout == report


def test_simulate_config_file_and_outputs(runner, tmp_path):
    cfg = tmp_path / "cluster.json"
    cfg.write_text(json.dumps({
        "machines": 40, "data_bytes_per_machine": 2_000_000_000,
        "disk_read_bytes_per_s": 150_000_000,   # an int in a float field
        "seed": 4, "scheme": {"kind": "replication"},
    }))
    report = tmp_path / "report.txt"
    cdf = tmp_path / "cdf.csv"
    res = runner.invoke(main, ["simulate", "--scheme", "rs",
                               "--config", str(cfg), "--out", str(report),
                               "--cdf-out", str(cdf)])
    assert res.exit_code == 0, res.output
    assert "scheme=3-way-replication" in report.read_text()
    assert cdf.read_text().startswith("repair_time_s,percentile")


@pytest.mark.parametrize("doc,problem", [
    ([40], "JSON object"),
    ({"machine": 40}, "unknown key(s) machine"),
    ({"scheme": {"kind": "rs", "kk": 4}}, "unknown key(s) scheme.kk"),
    ({"machines": "40"}, "machines must be of type int"),
    ({"machines": 40.5}, "machines must be of type int"),
    ({"seed": True}, "seed must be of type int"),
    ({"dispatch_window": None}, "dispatch_window must be of type int"),
    ({"net_bytes_per_s": "fast"}, "net_bytes_per_s must be of type float"),
    ({"scheme": {"kind": "src", "n": "10"}}, "scheme.n must be of type int"),
    ({"scheme": {"kind": 3}}, "scheme.kind must be of type str"),
    # an unknown kind ran SRC
    ({"scheme": {"kind": "bogus"}}, "error: unknown scheme kind 'bogus'"),
    # a key the kind does not use was dropped, and the run went ahead
    ({"scheme": {"kind": "replication", "n": 5}},
     "error: cluster.json: replication does not use key(s) scheme.n\n"),
    ({"scheme": {"kind": "rs", "f": 4}},
     "error: cluster.json: rs does not use key(s) scheme.f\n"),
    ({"scheme": {"f": 4, "n": 12}},   # the kind from --scheme
     "error: cluster.json: rs does not use key(s) scheme.f\n"),
    # json reads NaN and Infinity; the event loop never ended on them
    ({"net_bytes_per_s": math.nan}, "bandwidths must be positive and finite"),
    ({"net_bytes_per_s": math.inf, "disk_read_bytes_per_s": math.inf,
      "disk_write_bytes_per_s": math.inf},
     "bandwidths must be positive and finite"),
], ids=["list", "typo", "scheme-typo", "int-as-text", "int-as-float",
        "int-as-bool", "int-as-null", "rate-as-text", "scheme-int-as-text",
        "scheme-kind-not-text", "scheme-kind-unknown",
        "replication-scheme-n", "rs-scheme-f", "option-rs-scheme-f",
        "rate-nan", "rates-inf"])
def test_simulate_bad_config_usage_error(runner, tmp_path, doc, problem):
    cfg = tmp_path / "cluster.json"
    cfg.write_text(json.dumps(doc))
    res = runner.invoke(main, ["simulate", "--scheme", "rs",
                               "--config", str(cfg)])
    assert res.exit_code == 2
    assert problem in res.output


def test_simulate_config_not_json_usage_error(runner, tmp_path):
    cfg = tmp_path / "cluster.json"
    cfg.write_text("{not json")
    res = runner.invoke(main, ["simulate", "--scheme", "rs",
                               "--config", str(cfg)])
    assert res.exit_code == 2
    assert res.stderr.startswith("error: cluster.json is not valid JSON: ")
    assert res.stdout == ""


def test_json_nested_too_deep_is_malformed_input(runner, tmp_path):
    # past the recursion limit json.loads raises RecursionError, not
    # ValueError: a manifest is malformed (exit 4), a config not valid
    # JSON (exit 2), each one error line, not a traceback
    _, _, out = _encode(runner, tmp_path, size=30_000)
    manifest = out / MANIFEST_NAME
    manifest.write_text("[" * 100_000)
    for args in (["decode", "--out", str(tmp_path / "y.bin")],
                 ["repair", "--node", "1"]):
        res = runner.invoke(main, args + ["--manifest", str(manifest),
                                          "--shards", str(out)])
        assert res.exit_code == 4, res.output
        assert res.stderr.startswith(
            "error: malformed manifest: RecursionError: ")
        assert res.stderr.count("\n") == 1 and res.stdout == ""
    cfg = tmp_path / "cluster.json"
    cfg.write_text('{"seed": ' + "[" * 100_000)
    res = runner.invoke(main, ["simulate", "--scheme", "rs",
                               "--config", str(cfg)])
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith("error: cluster.json is not valid JSON: ")
    assert res.stderr.count("\n") == 1 and res.stdout == ""


@pytest.mark.parametrize("args,line", [
    (["--data-per-machine", str(10 ** 26)],
     "14901161193847656960 sets of 10 on 100 machines"),
    (["--machines", str(2 ** 60)],
     f"6917529027641081856 sets of 10 on {2 ** 60} machines"),
], ids=["data-per-machine", "machines"])
def test_simulate_cluster_too_large_to_hold_usage_error(runner, args, line):
    # refused before any draw: a draw of 2**31 bits or more overflows
    # getrandbits, and np.empty refuses arrays this large
    res = runner.invoke(main, ["simulate", "--scheme", "rs", *args])
    assert (res.exit_code, res.stdout, res.stderr) == (
        2, "", f"error: {line} are too large to hold\n")


def test_simulate_sweep_series(runner):
    res = runner.invoke(main, ["simulate", "--scheme", "src", "--f", "2",
                               "--sweep", "10,6 20,16 50,46"])
    assert res.exit_code == 0, res.output
    lines = res.output.strip().splitlines()
    assert lines[0] == "scheme,n,k,throughput_bytes_per_s,elapsed_s"
    assert len(lines) == 4
    tputs = [float(line.rsplit(",", 2)[-2]) for line in lines[1:]]
    assert (max(tputs) - min(tputs)) / max(tputs) < 0.15
    res = runner.invoke(main, ["simulate", "--scheme", "rs", "--sweep", "bogus"])
    assert res.exit_code == 2


# sha256 of stdout at the benchmark's scale, 1000 machines x 40 GB in
# 64 MiB chunks, at seeds 1 and 4 with the machines the benchmark fails
# for them: the digests fix the placement, each job's helpers and rebuild
# target, and every float of the event loop
FULL_SIZE = ["--machines", "1000", "--data-per-machine", "40000000000",
             "--chunk-size", str(64 << 20)]
FULL_SIZE_SCHEMES = {
    "src": ["--scheme", "src", "--n", "10", "--k", "6", "--f", "2"],
    "rs": ["--scheme", "rs", "--n", "10", "--k", "6"],
    "replication": ["--scheme", "replication"],
    "rs50-degraded": ["--scheme", "rs", "--n", "50", "--k", "46", "--degraded"],
}
# (scheme, seed, failed machine) -> sha256 of stdout
SIMULATE_FULL_SIZE = {
    ("src", 1, 137): "947349b2d32e9dc665cb64a9c0ee294acbba17c7bd9c860ecafefb2269ed2925",
    ("rs", 1, 137): "2084132c267967beaab46e8468ebdfb35cc737d3be7a9d00cb1e541bde248da2",
    ("replication", 1, 137): "89104b05b43ffbf48b5d2b46efe462683b4fcae09f0b6b4af1803ba4cabc8963",
    ("rs50-degraded", 1, 137): "6eb865ec61588d6fff361f00da4fa1be581ca7bc4a369aca37987d0d8d279d37",
    ("src", 4, 999): "42745b0846aa7f9534cdf8c1ededa3d727b371660dea5b2c2a9b50f8ae2002e4",
    ("rs", 4, 999): "d436e8ef73b756161f631a85b9fccb82e6f55d63b1a3bef08de19ab49b2eb00b",
    ("replication", 4, 999): "4c6842eec98af3ed2ef48e2172b5a6a4f2b44572e8d41bfdbeccd721a811b0db",
    ("rs50-degraded", 4, 999): "2004a1df1f314395765fbe2362455879e7507eda0259bad374f5c1f705834de3",
}
SIMULATE_SWEEP_SHA = "ad3996ecb10fe74aeb6a6018da20f94f7adc657d6b2250f4405689de91c9b440"
SIMULATE_UNBOUNDED_SHA = {
    "report.txt": "f3201e522ba00e21309309fe65cbed055e10625535195196856d0f0f8b165780",
    "cdf.csv": "8a4335a2234eab4e07988e784e4c526d0cd4d1d15291ad8a3e8135244ceaa06a",
}


@pytest.mark.parametrize("scheme,seed,failed", SIMULATE_FULL_SIZE,
                         ids=[f"{scheme}-seed{seed}"
                              for scheme, seed, _ in SIMULATE_FULL_SIZE])
def test_simulate_full_size_reports_pinned(runner, scheme, seed, failed):
    res = runner.invoke(main, ["simulate", *FULL_SIZE_SCHEMES[scheme],
                               *FULL_SIZE, "--seed", str(seed),
                               "--failed-machine", str(failed)])
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == \
        SIMULATE_FULL_SIZE[scheme, seed, failed]


def test_simulate_sweep_and_unbounded_config_pinned(runner, tmp_path,
                                                    monkeypatch):
    # a sweep's series, and a run whose concurrency knobs never bind:
    # every job is dispatched at once and no target reaches its cap.  An
    # RS sweep reads the same at every seed here; an SRC one does not
    res = runner.invoke(main, ["simulate", "--scheme", "src", "--f", "2",
                               "--seed", "4", "--failed-machine", "99",
                               "--sweep", "10,6 20,16 50,46"])
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == SIMULATE_SWEEP_SHA
    monkeypatch.chdir(tmp_path)
    Path("cluster.json").write_text(json.dumps({
        "machines": 30, "data_bytes_per_machine": 2_000_000_000, "seed": 3,
        "max_inbound_repairs": 10**9, "dispatch_window": 10**9,
        "scheme": {"kind": "rs", "n": 10, "k": 6}}))
    res = runner.invoke(main, ["simulate", "--scheme", "rs", "--config",
                               "cluster.json", "--failed-machine", "4",
                               "--out", "report.txt", "--cdf-out", "cdf.csv"])
    assert res.exit_code == 0, res.output
    assert res.stdout == ("report written to report.txt\n"
                          "CDF written to cdf.csv\n")
    assert {name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
            for name in SIMULATE_UNBOUNDED_SHA} == SIMULATE_UNBOUNDED_SHA


def test_simulate_sweep_rejects_cdf_out(runner, tmp_path, monkeypatch):
    # a sweep has no single repair-time CDF: a usage error before any run
    def no_run(*args):
        raise AssertionError("simulated before rejecting the options")

    monkeypatch.setattr(cli.sim_mod, "build_cluster", no_run)
    cdf = tmp_path / "cdf.csv"
    res = runner.invoke(main, ["simulate", "--scheme", "src", "--sweep",
                               "10,6", "--cdf-out", str(cdf)])
    assert res.exit_code == 2, res.output
    assert res.stderr == ("error: --cdf-out needs a single run; it cannot be "
                          "used with --sweep\n")
    assert not cdf.exists()


@pytest.mark.parametrize("how", [
    ["--scheme", "replication"],
    ["--scheme", "rs", "--config", "cluster.json"],
], ids=["option", "config"])
def test_simulate_sweep_rejects_replication(runner, tmp_path, monkeypatch,
                                            how):
    # replication is always (3, 1): a sweep printed the same row under
    # every n and k it was given
    def no_run(*args):
        raise AssertionError("simulated before rejecting the options")

    monkeypatch.setattr(cli.sim_mod, "build_cluster", no_run)
    monkeypatch.chdir(tmp_path)
    Path("cluster.json").write_text('{"scheme": {"kind": "replication"}}')
    res = runner.invoke(main, ["simulate", *how, "--sweep", "10,6 20,16"])
    assert res.exit_code == 2, res.output
    assert res.stderr == ("error: --sweep varies n and k, which replication "
                          "does not use\n")
    assert res.stdout == ""


def test_reliability_command(runner):
    res = runner.invoke(main, ["reliability"])
    assert res.exit_code == 0
    assert "3-way-replication" in res.output
    res = runner.invoke(main, ["reliability", "--csv"])
    assert res.exit_code == 0
    assert res.output.startswith("scheme,n,k")
    res = runner.invoke(main, ["reliability", "--pairs", "junk"])
    assert res.exit_code == 2


def test_reliability_pairs_of_three_usage_error(runner):
    res = runner.invoke(main, ["reliability", "--pairs", "10,6,2"])
    assert (res.exit_code, res.stderr) == (
        2, "error: cannot parse pairs '10,6,2'; expected e.g. '10,6 20,16'\n")


@pytest.mark.parametrize("option,value", [
    ("--disk-mttf-hours", "nan"), ("--system-bytes", "inf"),
    ("--node-bytes", "inf")])
def test_reliability_non_finite_usage_error(runner, option, value):
    # these printed a table of nan, a system MTTF of 0, or a traceback
    res = runner.invoke(main, ["reliability", option, value])
    assert res.exit_code == 2
    assert res.output == ("error: repair_hours must be positive; "
                          "disk_mttf_hours, system_bytes and node_bytes "
                          "positive and finite\n")


RELIABILITY_TEXT = [
    "scheme             repair_h  set MTTF (h)  system MTTF (h)",
    "3-way-replication  0.2500    2.2408e+14    8.9632e+08     ",
    "RS(10,6)           1.3333    1.6875e+18    4.0500e+13     ",
    "RS(20,16)          3.5556    5.4373e+14    3.4799e+10     ",
    "RS(50,46)          10.2222   5.9390e+10    1.0928e+07     ",
    "SRC(10,6,2)        0.4722    1.0722e+20    2.5733e+15     ",
    "SRC(20,16,2)       0.4722    1.7431e+18    1.1156e+14     ",
    "SRC(50,46,2)       0.4861    1.1367e+16    2.0914e+12     ",
]

RELIABILITY_CSV = [
    "scheme,n,k,repair_hours,set_mttf_hours,system_mttf_hours",
    '"3-way-replication",3,1,0.25,224078907920300.03,896315631.6812001',
    '"RS(10,6)",10,6,1.3333333333333333,1.6875061860248238e+18,'
    "40500148464595.77",
    '"RS(20,16)",20,16,3.5555555555555554,543733098481980.0,'
    "34798918302.84672",
    '"RS(50,46)",50,46,10.222222222222223,59389749266.199326,'
    "10927713.864980677",
    '"SRC(10,6,2)",10,6,0.47222222222222204,1.0722054312906041e+20,'
    "2573293035097450.0",
    '"SRC(20,16,2)",20,16,0.47222222222222204,1.7431246422004547e+18,'
    "111559977100829.1",
    '"SRC(50,46,2)",50,46,0.486111111111111,1.1366537560912614e+16,'
    "2091442911207.9211",
]


def test_reliability_text_output_pinned(runner):
    res = runner.invoke(main, ["reliability"])
    assert res.exit_code == 0
    assert res.output == "\n".join(RELIABILITY_TEXT) + "\n"
    res = runner.invoke(main, ["reliability", "--csv"])
    assert res.exit_code == 0
    assert res.output == "\n".join(RELIABILITY_CSV) + "\n"


@pytest.mark.parametrize("pairs,problem", [
    ("100,96", "100 machines cannot host width-100 sets"),
    ("300,200", "100 machines cannot host width-300 sets"),
    ("10,10", "need 1 <= k < n"),
])
def test_reliability_pair_the_simulator_cannot_run_usage_error(runner, pairs,
                                                              problem):
    # as simulate does for the same pair; 300,200 printed a row for an
    # SRC code that SrcParams rejects
    res = runner.invoke(main, ["reliability", "--pairs", pairs])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.startswith(f"error: {problem}")
    assert res.stderr.count("\n") == 1
    sim = runner.invoke(main, ["simulate", "--scheme", "src", "--n",
                               pairs.split(",")[0], "--k", pairs.split(",")[1]])
    assert (sim.exit_code, sim.stderr) == (2, res.stderr)
