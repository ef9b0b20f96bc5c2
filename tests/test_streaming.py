"""encode, decode and repair stream: one plan, a batch of stripes at a
time.

Their memory must not grow with the file: each hands every batch it
makes to one writer thread, which writes it, and for decode hashes it,
while the next batch is made in a second buffer.  A chunk that fails
its CRC-32 in a late batch must be handled as in an early one: dropped,
named once on stderr, planned around, or exit 4 with no output left
behind.  Most cases force one part of a stripe per batch so that a
small file spans many.
"""

import contextlib
import importlib
import io
import itertools
import os
import shutil
import tempfile
import threading
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from srcodes import shards
from srcodes.cli import main
from srcodes.core import SrcParams, data_chunks, plan_chunks
from srcodes.errors import InsufficientDataError, IntegrityError
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
    # an encode batch of 2f part units, n chunks each, in each of two
    # buffers, and the writer's row of n parity chunks
    monkeypatch.setattr(shards, "_BATCH_BYTES",
                        (2 * 2 * P.f + 1) * P.n * P.chunk_size)


def _on_write(monkeypatch, hook):
    """Call hook(node, batch) in each ShardWriter.write, on the writer's
    thread, before it writes; batch counts the batches written from 1."""
    pipeline, write, batches = shards._pipeline, shards.ShardWriter.write, [0]

    def counted(rows, step, width, chunk_size, make, write_batch):
        def counting(out):
            batches[0] += 1
            write_batch(out)

        pipeline(rows, step, width, chunk_size, make, counting)

    def hooked(self, chunk):
        hook(self.node, batches[0])
        write(self, chunk)

    monkeypatch.setattr(shards, "_pipeline", counted)
    monkeypatch.setattr(shards.ShardWriter, "write", hooked)


def _fails_cleanly(tmp_path, run, stderr):
    """run() exits 2 with one error line, leaves no new file or
    directory under tmp_path, a temporary one included, and stops its
    threads."""
    before = sorted(tmp_path.rglob("*"))
    threads = threading.active_count()
    res = run()
    assert (res.exit_code, res.stderr) == (2, stderr)
    assert sorted(tmp_path.rglob("*")) == before
    assert threading.active_count() == threads


def _encode_fails_cleanly(tmp_path, src, stderr):
    """An encode into a new directory two levels deep fails cleanly."""
    _fails_cleanly(tmp_path, lambda: _run_encode(src, tmp_path / "new" /
                                                 "shards"), stderr)


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
    encoder = shards.encoder

    def shrinking(fill, size, params):
        make, made = encoder(fill, size, params), []

        def batch(out, start):
            made.append(start)
            if len(made) < 3:
                return make(out, start)
            started.append(writing.wait(timeout=30))
            os.truncate(src, 5 * P.stripe_data_bytes)
            try:
                return make(out, start)
            finally:
                failed.set()

        return batch

    def second_waits(node, batch):
        if batch == 2:
            writing.set()
            failed.wait(timeout=30)

    monkeypatch.setattr(shards, "encoder", shrinking)
    _on_write(monkeypatch, second_waits)
    _encode_fails_cleanly(tmp_path, src,
                          f"error: {src} changed size while read\n")
    assert started == [True]


@pytest.fixture
def one_part_batches(monkeypatch):
    monkeypatch.setattr(shards, "_BATCH_BYTES", 1)


def test_writer_thread_calls_no_public_function(tmp_path, monkeypatch,
                                                one_part_batches):
    # a span tracer wraps every public module-level function, under
    # every name a module binds it to, and keeps one stack per process:
    # encode, a parity-heavy decode and a fallback repair, many batches
    # each, call every such function on the caller's thread
    threads = []

    def on_thread(fn):
        def recorded(*args, **kwargs):
            threads.append(threading.get_ident())
            return fn(*args, **kwargs)
        return recorded

    modules = [importlib.import_module(f"srcodes.{name}") for name in (
        "gf256", "mds", "core", "repair", "shards", "sim", "reliability",
        "metrics", "cli")]
    public = {fn for mod in modules for name, fn in vars(mod).items()
              if isinstance(fn, types.FunctionType)
              and not name.startswith("_") and fn.__module__ == mod.__name__}
    for mod in modules:
        for name, fn in list(vars(mod).items()):
            if isinstance(fn, types.FunctionType) and fn in public:
                monkeypatch.setattr(mod, name, on_thread(fn))
    data, out = _encode(tmp_path, FOUR_BATCHES)
    lost = out / shard_filename(4)
    expected = lost.read_bytes()
    for node in (1, 2, 3, 4):
        (out / shard_filename(node)).unlink()
    assert _decode(out, tmp_path / "y.bin").exit_code == 0
    assert (tmp_path / "y.bin").read_bytes() == data
    res = _repair(out, 4)
    assert "via reconstruction fallback" in res.stdout
    assert lost.read_bytes() == expected
    assert threads and set(threads) == {threading.get_ident()}


def _second_decode_write_fails(monkeypatch):
    """The decoded file's second write, on the writer thread, raises
    OSError("disk full")."""
    atomic_writer = shards.atomic_writer

    class SecondWriteFails:
        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def write(self, data):
            self.writes += 1
            if self.writes == 2:
                raise OSError("disk full")
            return self.fh.write(data)

    @contextlib.contextmanager
    def failing(path):
        with atomic_writer(path) as fh:
            yield SecondWriteFails(fh)

    monkeypatch.setattr(shards, "atomic_writer", failing)


def test_decode_write_error_in_second_batch(tmp_path, monkeypatch,
                                            one_part_batches):
    _, out = _encode(tmp_path, FOUR_BATCHES)
    _second_decode_write_fails(monkeypatch)
    _fails_cleanly(tmp_path, lambda: _decode(out, tmp_path / "y.bin"),
                   "error: disk full\n")


def _second_repair_write_fails(node, batch):
    if batch == 2:
        raise OSError("disk full")


def test_repair_writer_error_in_second_batch(tmp_path, monkeypatch,
                                            one_part_batches):
    _, out = _encode(tmp_path, FOUR_BATCHES)
    (out / shard_filename(3)).unlink()
    _on_write(monkeypatch, _second_repair_write_fails)
    _fails_cleanly(tmp_path, lambda: _repair(out, 3), "error: disk full\n")


@pytest.fixture
def open_shards(monkeypatch):
    """The shard files opened through os.open, in order, and the
    descriptors of those not closed through os.close yet."""
    opened, fds, os_open, os_close = [], set(), os.open, os.close

    def opening(path, *args, **kwargs):
        fd = os_open(path, *args, **kwargs)
        if str(path).endswith(".shard"):
            opened.append(Path(path).name)
            fds.add(fd)
        return fd

    def closing(fd):
        fds.discard(fd)
        os_close(fd)

    monkeypatch.setattr(os, "open", opening)
    monkeypatch.setattr(os, "close", closing)
    return opened, fds


def test_a_failed_decode_closes_its_shard_files(tmp_path, monkeypatch,
                                                one_part_batches,
                                                open_shards):
    # the caller holds the error, and so its traceback, with no shard
    # file left open
    _, out = _encode(tmp_path, FOUR_BATCHES)
    manifest = shards.load_manifest(out / MANIFEST_NAME)
    _second_decode_write_fails(monkeypatch)
    with pytest.raises(OSError, match="disk full") as failure:
        shards.decode_file(manifest, out, tmp_path / "y.bin")
    opened, fds = open_shards
    assert failure.tb is not None and opened and fds == set()


def test_a_failed_repair_closes_its_shard_files(tmp_path, monkeypatch,
                                                one_part_batches,
                                                open_shards):
    _, out = _encode(tmp_path, FOUR_BATCHES)
    manifest = shards.load_manifest(out / MANIFEST_NAME)
    (out / shard_filename(3)).unlink()
    _on_write(monkeypatch, _second_repair_write_fails)
    with pytest.raises(OSError, match="disk full") as failure:
        shards.repair_shard(manifest, out, 3)
    opened, fds = open_shards
    assert failure.tb is not None and opened and fds == set()


def test_decode_crc_failure_in_last_batch(tmp_path, one_part_batches):
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
                                                     one_part_batches):
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


def test_mid_stream_failure_leaves_no_output(tmp_path, one_part_batches):
    # nodes 5..9 span the data, but not without part1[5]: its failing
    # in the last stripe leaves the data undetermined once stripes are
    # already written
    size = 300_000
    _, out = _encode(tmp_path, size)
    stripes = _stripes(size)
    for node in (1, 2, 3, 4, 10):
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



def test_a_plan_made_again_mid_batch_keeps_the_reads_it_xors_in_place(
        tmp_path):
    # a (6,4,2) set of three stripes, repaired in one batch.  A look-up
    # repair reads the first helper of each lost chunk into the chunk's
    # slot of the batch.  A chunk that fails its CRC in stripe 0 plans
    # the batch again once every read is in: a read the new plan does
    # not XOR in that slot, as a derive's source, must be copied out
    # before it is overwritten.  Every lost node, every other node
    # removed, and every slot of every third node flipped: 360 repairs.
    p = SrcParams(6, 4, 2, 4096)
    size = 2 * p.stripe_data_bytes + 999
    stripes = p.stripes(size)
    payload = np.random.default_rng(11).integers(0, 256, size,
                                                 dtype=np.uint8).tobytes()
    pristine = tmp_path / "pristine"
    shards.write_shard_set(pristine, p, io.BytesIO(payload), size)
    manifest = shards.load_manifest(pristine / MANIFEST_NAME)
    out = tmp_path / "set"
    wrong = []
    for lost, gone in itertools.permutations(range(1, p.n + 1), 2):
        for bad in sorted(set(range(1, p.n + 1)) - {lost, gone}):
            for slot in range(p.f + 1):
                shutil.rmtree(out, ignore_errors=True)
                shutil.copytree(pristine, out)
                (out / shard_filename(lost)).unlink()
                (out / shard_filename(gone)).unlink()
                path = out / shard_filename(bad)
                blob = bytearray(path.read_bytes())
                blob[slot_at(p, stripes, 0, slot)] ^= 0xFF
                path.write_bytes(bytes(blob))
                with contextlib.suppress(IntegrityError):
                    shards.repair_shard(manifest, out, lost)
                rebuilt = out / shard_filename(lost)
                if not (rebuilt.exists() and rebuilt.read_bytes() == (
                        pristine / shard_filename(lost)).read_bytes()):
                    wrong.append((lost, gone, bad, slot))
    assert not wrong, (len(wrong), wrong[:5])


def _check_budget(mp):
    """Check every batch: an encode's two buffers of part units and,
    with f > 1, the writer's row of parity chunks, n chunks each, fit
    _BATCH_BYTES, or the batch is one part unit, one part of one stripe.
    In every run_plan call of a ShardReader, the chunks its batch read
    or was handed that are held outside its output (a chunk read into
    its own slot, or into that of the target it is XORed into, is not),
    the chunks it derives that are not targets, and both output
    buffers, the one written behind included, fit _BATCH_BYTES, or the
    batch is one part of one stripe, a decode's or a repair's alike.
    Returns the rows of each batch: part units for an encode, stripes
    for a reader."""
    run_plan, encoder, seen = shards.run_plan, shards.encoder, []

    def encoding(fill, size, params):
        make = encoder(fill, size, params)

        def checked(out, start):
            units, width, chunk = out.shape
            assert (width, chunk) == (params.n, params.chunk_size)
            row = width * chunk if params.f > 1 else 0
            assert units == 1 or \
                2 * units * width * chunk + row <= shards._BATCH_BYTES, units
            seen.append(units)
            make(out, start)

        return checked

    def checked(plan, present, out, *made):
        stripes, outputs, chunk = out.shape
        derived = {c for s in plan.steps if s.coeffs is not None
                   for c in s.outs}
        outside = [c for c, row in present.items()
                   if not np.may_share_memory(row, out)]
        held = len(outside) + len(derived - set(plan.targets))
        one = len({c.part for c in plan.targets}) == 1
        assert stripes == 1 and one or \
            (held + 2 * outputs) * stripes * chunk <= shards._BATCH_BYTES, \
            (stripes, held, outputs)
        seen.append(stripes)
        return run_plan(plan, present, out, *made)

    mp.setattr(shards, "encoder", encoding)
    mp.setattr(shards, "run_plan", checked)
    return seen


@pytest.mark.parametrize("command,node,missing,flip", [
    ("encode", None, (), None),
    ("decode", None, (), None),
    ("decode", None, (1, 2, 3, 4), None),   # parity-heavy
    ("repair", 3, (), None),                # look-up
    ("repair", 4, (5,), None),              # fallback: a helper missing
    # node 2 holds part2[3], a look-up helper of node 3's part1[3]: it
    # fails in the last stripe, in a batch planned for the look-up
    ("repair", 3, (), (2, 1)),
], ids=["encode", "healthy-decode", "parity-heavy-decode", "look-up-repair",
        "fallback-repair", "crc-failure-in-last-stripe"])
def test_every_batch_fits_the_budget(tmp_path, monkeypatch, command, node,
                                     missing, flip):
    size = FOUR_BATCHES
    stripes = _stripes(size)
    data, out = _encode(tmp_path, size)
    for gone in missing:
        (out / shard_filename(gone)).unlink()
    if flip is not None:
        _flip(out / shard_filename(flip[0]), stripes, stripes - 1, flip[1])
    # a budget that holds a look-up repair's reads and output for the
    # whole file in one batch
    monkeypatch.setattr(shards, "_BATCH_BYTES",
                        stripes * (P.f + 1) ** 2 * P.chunk_size)
    seen = _check_budget(monkeypatch)
    if command == "encode":
        # part units that cross stripes, each batch, and the same files
        _, again = _encode(tmp_path, size, "again")
        assert sum(seen) == stripes * P.f and max(seen) > 1
        for name in [MANIFEST_NAME, *map(shard_filename, range(1, P.n + 1))]:
            assert (again / name).read_bytes() == (out / name).read_bytes()
        return
    if command == "decode":
        res = _decode(out, tmp_path / "y.bin")
        assert (tmp_path / "y.bin").read_bytes() == data
    else:
        res = _repair(out, node)
    assert res.exit_code == 0, res.output
    assert sum(seen) == stripes


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_every_batch_fits_the_budget_on_random_codes(data):
    # random codes, an encode, erasures, one chunk failing its CRC in the
    # last stripe, and budgets from under a part to many stripes
    n = data.draw(st.integers(2, 10))
    k = data.draw(st.integers(1, n - 1))
    f = data.draw(st.integers(1, n - 1))
    p = SrcParams(n, k, f, data.draw(st.integers(1, 64)))
    size = data.draw(st.integers(1, 12 * p.stripe_data_bytes))
    erased = data.draw(st.sets(st.integers(1, n), max_size=n - k))
    node = data.draw(st.none() | st.integers(1, n))   # None: decode
    flip = data.draw(st.none() | st.tuples(st.integers(1, n),
                                           st.integers(0, f)))
    budget = data.draw(st.integers(1, 300)) * p.chunk_size
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() \
            as mp:
        out = Path(tmp)
        payload = np.random.default_rng(size).integers(
            0, 256, size, dtype=np.uint8).tobytes()
        mp.setattr(shards, "_BATCH_BYTES", budget)
        _check_budget(mp)
        shards.write_shard_set(out, p, io.BytesIO(payload), size)
        manifest = shards.load_manifest(out / MANIFEST_NAME)
        for gone in erased:
            (out / shard_filename(gone)).unlink()
        if flip is not None and (out / shard_filename(flip[0])).exists():
            stripes = p.stripes(size)
            blob = bytearray((out / shard_filename(flip[0])).read_bytes())
            blob[slot_at(p, stripes, stripes - 1, flip[1])] ^= 0xFF
            (out / shard_filename(flip[0])).write_bytes(bytes(blob))
        with contextlib.suppress(InsufficientDataError, IntegrityError):
            if node is None:
                shards.decode_file(manifest, out, out / "y.bin")
            else:
                shards.repair_shard(manifest, out, node)


def test_crc_failure_mid_batch_peaks_like_a_fallback_from_the_start(
        tmp_path, monkeypatch):
    # a (50,46,2) repair of node 3, scaled down 16 times from 64 MiB at
    # 64 KiB chunks: 12 stripes, which a budget sized for the look-up
    # plan would read in one batch.  Node 2's part2[3], a look-up
    # helper, fails its CRC in the last stripe: the fallback then runs
    # in the budget, like one planned from the start with node 2 missing.
    p = SrcParams(50, 46, 2, 4096)
    monkeypatch.setattr(shards, "_BATCH_BYTES", 512 << 10)
    size = 4 << 20
    stripes = p.stripes(size)
    payload = np.random.default_rng(7).integers(0, 256, size,
                                                dtype=np.uint8).tobytes()
    peaks = {}
    for case in ("crc", "missing"):
        out = tmp_path / case
        shards.write_shard_set(out, p, io.BytesIO(payload), size)
        lost = out / shard_filename(3)
        expected = lost.read_bytes()
        lost.unlink()
        helper = out / shard_filename(2)
        if case == "crc":
            blob = bytearray(helper.read_bytes())
            blob[slot_at(p, stripes, stripes - 1, 1)] ^= 0xFF
            helper.write_bytes(bytes(blob))
        else:
            helper.unlink()
        args = ["repair", "--manifest", str(out / MANIFEST_NAME),
                "--shards", str(out), "--node", "3"]
        # a first run checks the path taken and warms what a process
        # makes once; the second is measured
        assert "via reconstruction fallback" in \
            CliRunner().invoke(main, args).stdout
        peaks[case] = _peak(lambda: CliRunner().invoke(main, args))
        assert lost.read_bytes() == expected
    assert peaks["crc"] < peaks["missing"] + (128 << 10), peaks


def test_a_fallback_repair_of_a_wide_stripe_peaks_within_the_budget(
        tmp_path):
    # a (255,250,8) stripe at 16 KiB chunks is over the default budget.
    # With node 2 missing, node 1's repair falls back to reconstruction,
    # which derives whole parts of k chunks: made one part at a time,
    # one chunk of node 1 a batch, it holds one part's reads, not every
    # part's.  The slack holds what does not grow with the chunks, such
    # as the GF(256) look-up tables.
    p = SrcParams(255, 250, 8, 16 << 10)
    size = 1 << 20   # one stripe
    payload = np.random.default_rng(9).integers(0, 256, size,
                                                dtype=np.uint8).tobytes()
    out = tmp_path / "shards"
    shards.write_shard_set(out, p, io.BytesIO(payload), size)
    lost = out / shard_filename(1)
    expected = lost.read_bytes()
    (out / shard_filename(2)).unlink()
    # a first run checks the path taken and warms what a process makes
    # once; the second is measured
    lost.unlink()
    assert "via reconstruction fallback" in _repair(out, 1).stdout
    lost.unlink()
    peak = _peak(lambda: _repair(out, 1))
    assert lost.read_bytes() == expected
    assert peak < shards._BATCH_BYTES + (768 << 10), peak


@st.composite
def _part_runs(draw):
    """A code with n <= 10, a file of up to four stripes, erased nodes, a
    node to repair (None: a decode), maybe a slot to flip in the last
    stripe, (node, slot), and a budget below one stripe of the run."""
    n = draw(st.integers(2, 10))
    k = draw(st.integers(1, n - 1))
    p = SrcParams(n, k, draw(st.integers(1, n - 1)), draw(st.integers(1, 16)))
    node = draw(st.none() | st.integers(1, n))
    outputs = p.f * p.k if node is None else p.f + 1
    stripe = (p.n * (p.f + 1) + outputs) * p.chunk_size
    return (p, draw(st.integers(1, 4 * p.stripe_data_bytes)),
            draw(st.sets(st.integers(1, n), max_size=n - k)), node,
            draw(st.none() | st.tuples(st.integers(1, n),
                                       st.integers(0, p.f))),
            draw(st.integers(1, stripe - 1)))


def _run_file(manifest, out, node):
    """What decode_file writes, or with a node what repair_shard
    rebuilds, or the error either raises, and what it printed."""
    err = io.StringIO()
    dest = out / "y.bin" if node is None else out / shard_filename(node)
    with contextlib.redirect_stderr(err):
        try:
            if node is None:
                shards.decode_file(manifest, out, dest)
            else:
                shards.repair_shard(manifest, out, node)
            got = dest.read_bytes()
        except (InsufficientDataError, IntegrityError) as exc:
            got = (type(exc), str(exc))
    return got, err.getvalue()


# every lost data chunk of (50,46,2) is the XOR of a chunk of the other
# part and a parity chunk; in the last stripe, node 5's part1[5] fails
# its CRC as part 1 is read, and node 30's part2[31], which only part 2
# reads, after part 1 is made.  Node 1's repair with node 2 gone XORs
# part1[1] from node 50's part2[1], which it hands to part 2, derived for
# part2[2], and parity[3] from node 3's part1[3] and part2[3]: in the
# last stripe, part2[1] fails its CRC as part 1 reads it, and part1[3]
# as the parity chunk's part does.
@settings(max_examples=60, deadline=None, derandomize=True)
@example((SrcParams(50, 46, 2, 8), 3 * 92 * 8 - 5, {3, 10, 20, 40}, None,
          None, 1))
@example((SrcParams(50, 46, 2, 8), 3 * 92 * 8 - 5, {3, 10, 20, 40}, None,
          (5, 0), 1))
@example((SrcParams(50, 46, 2, 8), 3 * 92 * 8 - 5, {3, 10, 20, 40}, None,
          (30, 1), 1))
@example((SrcParams(50, 46, 2, 8), 3 * 92 * 8 - 5, {2}, 1, None, 1))
@example((SrcParams(50, 46, 2, 8), 3 * 92 * 8 - 5, {2}, 1, (50, 1), 1))
@example((SrcParams(50, 46, 2, 8), 3 * 92 * 8 - 5, {2}, 1, (3, 0), 1))
@given(_part_runs())
def test_a_decode_made_a_part_at_a_time_reads_what_its_plans_read(case):
    # each stripe of a decode, or of a repair, reads exactly the chunks
    # its whole-stripe plan reads, each once, though its parts are made
    # one at a time; the decoded or rebuilt bytes, or the error, and
    # stderr are those at the default budget.  In the last stripe, where
    # a chunk may fail its CRC, a plan made again reads a chunk an
    # earlier part read only when the chunks held and those the stripe
    # has not read cannot cover the parts left.
    p, size, erased, node, flip, budget = case
    stripes = p.stripes(size)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() \
            as mp:
        out = Path(tmp)
        payload = np.random.default_rng(size).integers(
            0, 256, size, dtype=np.uint8).tobytes()
        shards.write_shard_set(out, p, io.BytesIO(payload), size)
        manifest = shards.load_manifest(out / MANIFEST_NAME)
        for gone in erased:
            (out / shard_filename(gone)).unlink()
        if flip is not None and (out / shard_filename(flip[0])).exists():
            blob = bytearray((out / shard_filename(flip[0])).read_bytes())
            blob[slot_at(p, stripes, stripes - 1, flip[1])] ^= 0xFF
            (out / shard_filename(flip[0])).write_bytes(bytes(blob))
        whole = _run_file(manifest, out, node)
        if node is None:
            last = -(-(size - (stripes - 1) * p.stripe_data_bytes)
                     // p.chunk_size)
            args = data_chunks(p), 0, last
        else:
            args = p.node_chunks(node), node
        try:
            first = shards.ShardReader(manifest, out, *args)
        except InsufficientDataError:
            first = None

        reads, again, read_chunks = [], [], shards.ShardReader.read_chunks
        rest = shards.ShardReader._rest

        def counting(reader, wanted, start, stop):
            reads.extend((start, c) for c in wanted)
            return read_chunks(reader, wanted, start, stop)

        def checked(reader, at, tail, have):
            before = set(reader._read)
            rest(reader, at, tail, have)
            now = {c for plan, _ in reader._split[at:]
                   for c in plan.reads} & before - have
            again.extend(now)
            if now:
                with pytest.raises(InsufficientDataError):
                    plan_chunks(p, reader.available - before | have,
                                [c for plan, _ in reader._split[at:]
                                 for c in plan.targets])

        mp.setattr(shards.ShardReader, "read_chunks", counting)
        mp.setattr(shards.ShardReader, "_rest", checked)
        mp.setattr(shards, "_BATCH_BYTES", budget)
        assert _run_file(manifest, out, node) == whole
    if first is None:
        return
    for stripe in range(stripes):
        got = sorted(c for s, c in reads if s == stripe)
        plan = first.plan if stripe < stripes - 1 or first.tail is None \
            else first.tail
        if stripe < stripes - 1 or "skipped:" not in whole[1]:
            assert got == sorted(plan.reads), stripe   # nothing failed
        else:
            assert again or len(got) == len(set(got))


def _held_outside(reader, units):
    """The most chunks a stripe's units hold outside the two unit
    buffers at once: those handed to a unit that an earlier unit did
    not read into its slots, the chunks it reads that are not chunks of
    its slots or targets of the next unit, which it reads into that
    unit's buffer, those it makes that are not its targets, and the
    copies of its targets it hands on."""
    most, handed, ahead = 0, frozenset(), set()
    for u, (plan, keep) in enumerate(units):
        slots = set(reader.units[u][0].targets)
        later = set(units[u + 1][0].targets) if u + 1 < len(units) else set()
        made = {c for step in plan.steps for c in step.outs}
        own = set(plan.reads) - slots - later | made - set(plan.targets)
        most = max(most, len(handed - ahead) + len(own)
                   + len(keep & set(plan.targets)))
        handed, ahead = keep, set(plan.reads) & later
    return most


@pytest.mark.parametrize("missing,tail", [
    ((), 92), ((1, 2, 3, 4), 92),
    # the last stripe's own plan derives part 1 for part1[7], and so
    # reads data chunks that are no target of it
    ((5, 7), 12),
    # every lost data chunk is the XOR of a chunk of the other part and
    # a parity chunk: part 1 reads part2[3] into part 2's buffer, and
    # hands over part1[4], which part 2 XORs
    ((3, 10, 20, 40), 92),
    # the same, in a last stripe whose part 2 is cut at the end of the file
    ((3, 10, 20, 40), 50),
    # parity[12] is lost with part2[12], so the plan derives part 2, and
    # part1[11] is the XOR of the derived part2[11] and parity[11]: part 1
    # reads part 2's chunks, its data chunks into part 2's buffer
    ((10, 11, 20, 40), 92)],
    ids=["healthy", "parity-heavy", "derived-last-stripe", "xor-heavy",
         "cut-last-part", "derive-ahead"])
def test_decode_peaks_below_two_batches_and_the_reads_outside_them(
        tmp_path, monkeypatch, missing, tail):
    # a (50,46,2) decode at half the benchmark's chunk size, its stripes
    # over the budget, so made one part of k data chunks at a time: a
    # data chunk is read into its slot of its part, even when the part
    # before reads it, the part written behind is the only other one
    # held, and no read outlives its part unless a later part of the
    # stripe needs it.  The slack holds what does not grow with the
    # chunks, such as a derive's GF(256) look-up tables.
    p = SrcParams(50, 46, 2, 32 << 10)
    monkeypatch.setattr(shards, "_BATCH_BYTES", 1)
    size = 2 * p.stripe_data_bytes + tail * p.chunk_size - 1000
    payload = np.random.default_rng(3).integers(0, 256, size, dtype=np.uint8)
    out = tmp_path / "shards"
    shards.write_shard_set(out, p, io.BytesIO(payload.tobytes()), size)
    for gone in missing:
        (out / shard_filename(gone)).unlink()
    manifest = shards.load_manifest(out / MANIFEST_NAME)
    reader = shards.ShardReader(manifest, out, data_chunks(p), last=tail)
    unit = p.k * p.chunk_size
    outside = max(_held_outside(reader, units) for units in (
        reader.units, reader.tail_units)) * p.chunk_size
    # a first run warms what a process makes once; the second is measured
    assert _decode(out, tmp_path / "y.bin").exit_code == 0
    peak = _peak(lambda: _decode(out, tmp_path / "y.bin"))
    assert (tmp_path / "y.bin").read_bytes() == payload.tobytes()
    assert peak < 2 * unit + outside + (768 << 10), (peak, unit, outside)


def test_look_up_repair_peaks_below_two_batches_and_a_helper_a_chunk(
        tmp_path):
    # a (10,6,2) look-up repair at the benchmark's chunk size, in batches
    # of three stripes of the lost node's three chunks.  Each lost chunk
    # is the XOR of its f helpers, the first read straight into the
    # chunk's slot, so the f-1 others are all a batch holds outside its
    # two output buffers.  The slack holds what does not grow with the
    # chunks.
    p = SrcParams(10, 6, 2, 64 << 10)
    stripes = shards._batch_stripes(p, p.f + 1)
    size = 4 * stripes * p.stripe_data_bytes - 1000
    payload = np.random.default_rng(13).integers(0, 256, size,
                                                 dtype=np.uint8)
    out = tmp_path / "shards"
    shards.write_shard_set(out, p, io.BytesIO(payload.tobytes()), size)
    lost = out / shard_filename(1)
    expected = lost.read_bytes()
    # a first run checks the path taken and warms what a process makes
    # once; the second is measured
    lost.unlink()
    assert "via look-up repair" in _repair(out, 1).stdout
    lost.unlink()
    peak = _peak(lambda: _repair(out, 1))
    assert lost.read_bytes() == expected
    rows = stripes * (p.f + 1) * (2 + p.f - 1)
    assert peak < rows * p.chunk_size + (64 << 10), (peak, stripes)


def test_encode_peaks_below_two_batches_of_part_chunks(tmp_path,
                                                       monkeypatch):
    # encodes at half the benchmark's chunk size.  At (50,46,2) a stripe
    # is over any budget, so a batch is one part unit, one part's n
    # chunks: the two unit buffers and the writer's row of n parity
    # chunks, 3n chunks, are all that grows with the chunks.  A
    # (10,6,2) file of many stripes, at the default budget, holds batches
    # of many units, and stays within the budget.  The slack holds what
    # does not grow with the chunks, such as the GF(256) look-up tables.
    cases = [(SrcParams(50, 46, 2, 32 << 10), 3, 1),
             (SrcParams(10, 6, 2, 32 << 10), 40, shards._BATCH_BYTES)]
    for p, stripes, budget in cases:
        monkeypatch.setattr(shards, "_BATCH_BYTES", budget)
        size = stripes * p.stripe_data_bytes - 1000
        payload = np.random.default_rng(5).integers(0, 256, size,
                                                    dtype=np.uint8)
        src = tmp_path / f"{p.n}.bin"
        src.write_bytes(payload.tobytes())

        def encode(out):
            return CliRunner().invoke(main, [
                "encode", str(src), "--n", str(p.n), "--k", str(p.k),
                "--f", str(p.f), "--chunk-size", str(p.chunk_size),
                "--out", str(tmp_path / out)])

        # a first run warms what a process makes once; the second is
        # measured
        assert encode(f"warm{p.n}").exit_code == 0
        peak = _peak(lambda: encode(f"shards{p.n}"))
        bound = max(3 * p.n * p.chunk_size, budget) + (768 << 10)
        assert peak < bound, (p, peak, bound)
        for node in range(1, p.n + 1):
            name = shard_filename(node)
            assert (tmp_path / f"shards{p.n}" / name).read_bytes() \
                == (tmp_path / f"warm{p.n}" / name).read_bytes()
