import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from srcodes import cli
from srcodes.cli import main
from srcodes.core import SrcParams, data_chunks, layout, plan_chunks
from srcodes.repair import node_repair_plan
from srcodes.shards import MANIFEST_NAME, shard_filename

HEADER_B = 44
RESERVED_AT = 18   # the header's reserved u16 (docs/FORMATS.md)


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


def _slot_at(p, stripes, stripe, slot):
    """Offset of the first byte of one chunk slot in a shard file."""
    crc_end = HEADER_B + 4 * stripes * (p.f + 1)
    return crc_end + (stripe * (p.f + 1) + slot) * p.chunk_size


def _stripes(p, size):
    return -(-size // p.stripe_data_bytes)


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


def test_encode_empty_file(runner, tmp_path):
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


def test_encode_invalid_params_usage_error(runner, tmp_path):
    src, _ = _write_input(tmp_path, 100)
    res = runner.invoke(main, ["encode", str(src), "--n", "4", "--k", "4",
                               "--f", "2", "--out", str(tmp_path / "x")])
    assert res.exit_code == 2
    assert "k < n" in res.output or "k < n" in (res.stderr or "")


def test_repair_dry_run_writes_nothing(runner, tmp_path):
    _, _, out = _encode(runner, tmp_path, n=10, k=6, f=2, size=300_000)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    res = runner.invoke(main, ["repair", "--manifest", str(out / MANIFEST_NAME),
                               "--shards", str(out), "--node", "3", "--dry-run"])
    assert res.exit_code == 0, res.output
    assert "distinct helper disks: 4" in res.output
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    assert before == after


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
    plan = node_repair_plan(SrcParams(n, k, f, 1024), node)
    (out / shard_filename(max(plan.disk_access_set))).unlink()

    def no_encode(*args):
        raise AssertionError("repair must not re-encode the file")

    monkeypatch.setattr(cli, "encode", no_encode)
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
    bad = min(node_repair_plan(p, 3).disk_access_set)
    assert layout(p).node_chunks(bad)[2].label(2) == "parity[3]"
    _flip_byte(out / shard_filename(bad), _slot_at(p, stripes, stripes - 1, 2))
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


def _count_reads(monkeypatch):
    """Record the chunk ids of each read_chunks call, and the bytes read
    from disk through os.pread and os.preadv."""
    calls, nbytes = [], []
    read_chunks, pread, preadv = cli.read_chunks, os.pread, os.preadv

    def counting(m, directory, wanted):
        calls.append(list(wanted))
        return read_chunks(m, directory, calls[-1])

    def counting_pread(fd, size, offset):
        data = pread(fd, size, offset)
        nbytes.append(len(data))
        return data

    def counting_preadv(fd, buffers, offset):
        got = preadv(fd, buffers, offset)
        nbytes.append(got)
        return got

    monkeypatch.setattr(cli, "read_chunks", counting)
    monkeypatch.setattr(os, "pread", counting_pread)
    monkeypatch.setattr(os, "preadv", counting_preadv)
    return calls, nbytes


@pytest.mark.parametrize("n,k,f", [(4, 2, 2), (10, 6, 2), (7, 3, 3)])
def test_shard_reads_per_command(runner, tmp_path, monkeypatch, n, k, f):
    p = SrcParams(n, k, f, 512)
    _, _, out = _encode(runner, tmp_path, n=n, k=k, f=f, size=30_000,
                        chunk=512)
    stripes = _stripes(p, 30_000)
    head = HEADER_B + 4 * stripes * (f + 1)   # header and CRC table
    lay = layout(p)
    manifest = str(out / MANIFEST_NAME)
    calls, nbytes = _count_reads(monkeypatch)

    def nodes(ids):
        return {lay.chunk_location(c) for c in ids}

    def read_once():
        """Every chunk is read at most once, and each read_chunks call
        reads one header and CRC table per shard plus its chunks."""
        ids = [c for call in calls for c in call]
        assert len(ids) == len(set(ids))
        assert sum(nbytes) == sum(len(nodes(call)) * head
                                  + len(call) * stripes * p.chunk_size
                                  for call in calls)
        return set(ids)

    # healthy decode: the f*k data chunks, M bytes, from nodes
    # 1..k and n-f+2..n, with no GF work left to do
    assert _decode(runner, out, tmp_path / "y.bin").exit_code == 0
    assert read_once() == set(data_chunks(p))
    assert nodes(calls[0]) == set(range(1, k + 1)) | set(range(n - f + 2, n + 1))
    assert len(calls) == 1

    # look-up repair: f helpers per lost chunk, f(f+1) chunks per stripe
    # from min(2f, n-1) nodes
    node = n
    targets = lay.node_chunks(node)
    plan = node_repair_plan(p, node)
    lookup = {c for chunk_plan in plan.chunk_plans for _, c in chunk_plan.reads}
    assert len(lookup) == f * (f + 1)
    assert len(plan.disk_access_set) == min(2 * f, n - 1)
    rebuilt = (out / shard_filename(node)).read_bytes()
    (out / shard_filename(node)).unlink()
    calls.clear()
    nbytes.clear()
    res = runner.invoke(main, ["repair", "--manifest", manifest,
                               "--shards", str(out), "--node", str(node)])
    assert res.exit_code == 0, res.output
    assert read_once() == lookup and len(calls) == 1
    assert nodes(lookup) == plan.disk_access_set

    # a corrupt helper chunk: the look-up reads come first, then only
    # what deriving its target needs and is not yet held
    available = {c for i in range(1, n + 1) if i != node
                 for c in lay.node_chunks(i)}
    helper = plan.chunk_plans[0].reads[0][1]
    at = lay.chunk_location(helper)
    (out / shard_filename(node)).unlink()
    _flip_byte(out / shard_filename(at),
               _slot_at(p, stripes, 0, lay.node_chunks(at).index(helper)))
    calls.clear()
    nbytes.clear()
    res = runner.invoke(main, ["repair", "--manifest", manifest,
                               "--shards", str(out), "--node", str(node)])
    assert res.exit_code == 0, res.output
    assert "reconstruction fallback" in res.stdout
    assert f"skipped: shard {shard_filename(at)}: {helper.label(f)} fails " \
        "the CRC-32 check" in res.stderr
    extra = set(plan_chunks(p, available - {helper}, targets).reads) - lookup
    assert set(calls[0]) == lookup and len(calls) == 1 + bool(extra)
    assert read_once() == lookup | extra
    assert (out / shard_filename(node)).read_bytes() == rebuilt

    # a missing helper is seen before any file is read: one call reads
    # the plan that derives around it (flipping the byte back first
    # restores the corrupt helper)
    _flip_byte(out / shard_filename(at),
               _slot_at(p, stripes, 0, lay.node_chunks(at).index(helper)))
    (out / shard_filename(node)).unlink()
    gone = min(plan.disk_access_set)
    (out / shard_filename(gone)).unlink()
    calls.clear()
    nbytes.clear()
    res = runner.invoke(main, ["repair", "--manifest", manifest,
                               "--shards", str(out), "--node", str(node)])
    assert res.exit_code == 0, res.output
    assert "reconstruction fallback" in res.stdout
    assert len(calls) == 1
    assert read_once() == set(plan_chunks(
        p, available - set(lay.node_chunks(gone)), targets).reads)
    assert (out / shard_filename(node)).read_bytes() == rebuilt


def test_decode_reads_no_parity_slot(runner, tmp_path, monkeypatch):
    # the last byte of every shard is the parity slot of its last stripe:
    # a healthy decode never reads it, so no shard is skipped
    _, data, out = _encode(runner, tmp_path, n=10, k=6, f=2, size=60_000,
                           chunk=1024)
    for node in range(1, 11):
        _flip_byte(out / shard_filename(node), -1)
    calls, _ = _count_reads(monkeypatch)
    dest = tmp_path / "y.bin"
    res = _decode(runner, out, dest)
    assert res.exit_code == 0, res.output
    assert dest.read_bytes() == data
    assert res.stderr == ""
    assert calls and all(c.part <= 2 for call in calls for c in call)


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
    res = runner.invoke(main, ["repair", "--manifest", str(out / MANIFEST_NAME),
                               "--shards", str(out), "--node", "1"])
    assert isinstance(res.exception, OSError)
    res = _decode(runner, out, dest)
    assert isinstance(res.exception, OSError)
    src.write_bytes(data[::-1])
    res = runner.invoke(main, ["encode", str(src), "--n", "4", "--k", "2",
                               "--f", "2", "--chunk-size", "4096",
                               "--out", str(out)])
    assert isinstance(res.exception, OSError)
    src.write_bytes(data)
    assert _files(tmp_path) == before


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


def _digest_not_text(doc):
    doc["shards"]["2"]["digest"] = 5


def _digest_not_hex(doc):
    doc["shards"]["2"]["digest"] = "xy" * 32


def _file_digest_not_text(doc):
    doc["file_digest"] = 5


@pytest.mark.parametrize("edit", [
    None, _drop_params, _file_size_as_text, _drop_shard_entry,
    _extra_shard_entry, _negative_file_size, _wrong_stripe_count,
    _digest_not_text, _digest_not_hex, _file_digest_not_text,
], ids=["not-json", "no-params", "wrong-type", "missing-shard-entry",
        "extra-shard-entry", "negative-file-size", "wrong-stripe-count",
        "digest-not-text", "digest-not-hex", "file-digest-not-text"])
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


def test_metrics_starts_no_thread(runner):
    before = threading.active_count()
    res = runner.invoke(main, ["metrics", "--n", "10", "--k", "6", "--f", "2"])
    assert res.exit_code == 0
    assert threading.active_count() == before


def test_reports_start_no_thread_and_import_no_pool():
    # the GF kernel's worker pool, and its concurrent.futures import, come
    # with the first split multiply-add; the report commands do none
    script = """
import sys, threading
from srcodes.cli import main
for args in (["metrics", "--n", "10", "--k", "6", "--f", "2"],
             ["simulate", "--scheme", "src", "--n", "10", "--k", "6",
              "--f", "2", "--machines", "40", "--seed", "1"],
             ["reliability"]):
    try:
        main(args)
    except SystemExit as e:
        assert not e.code, e.code
print(threading.active_count(), "concurrent.futures" in sys.modules)
"""
    src = Path(__file__).resolve().parent.parent / "src"
    res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=str(src)))
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "1 False"


def test_simulate_deterministic(runner, tmp_path):
    args = ["simulate", "--scheme", "src", "--n", "10", "--k", "6", "--f", "2",
            "--machines", "100", "--seed", "1"]
    a = runner.invoke(main, args)
    b = runner.invoke(main, args)
    assert a.exit_code == 0, a.output
    assert a.output == b.output
    assert "scheme=SRC(10,6,2)" in a.output


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
], ids=["list", "typo", "scheme-typo", "int-as-text", "int-as-float",
        "int-as-bool", "int-as-null", "rate-as-text", "scheme-int-as-text",
        "scheme-kind-not-text"])
def test_simulate_bad_config_usage_error(runner, tmp_path, doc, problem):
    cfg = tmp_path / "cluster.json"
    cfg.write_text(json.dumps(doc))
    res = runner.invoke(main, ["simulate", "--scheme", "rs",
                               "--config", str(cfg)])
    assert res.exit_code == 2
    assert problem in res.output


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


def test_reliability_command(runner):
    res = runner.invoke(main, ["reliability"])
    assert res.exit_code == 0
    assert "3-way-replication" in res.output
    res = runner.invoke(main, ["reliability", "--csv"])
    assert res.exit_code == 0
    assert res.output.startswith("scheme,n,k")
    res = runner.invoke(main, ["reliability", "--pairs", "junk"])
    assert res.exit_code == 2


RELIABILITY_TEXT = [
    "scheme             repair_h  set MTTF (h)  system MTTF (h)",
    "3-way-replication  0.2500    2.2408e+14    8.9632e+08     ",
    "RS(10,6)           0.5000    8.5308e+19    2.0474e+15     ",
    "RS(20,16)          1.3333    2.7445e+16    1.7565e+12     ",
    "RS(50,46)          3.8333    2.9611e+12    5.4485e+08     ",
    "SRC(10,6,2)        0.5000    8.5308e+19    2.0474e+15     ",
    "SRC(20,16,2)       0.5000    1.3869e+18    8.8761e+13     ",
    "SRC(50,46,2)       0.5000    1.0156e+16    1.8686e+12     ",
]


def test_reliability_text_output_pinned(runner):
    res = runner.invoke(main, ["reliability"])
    assert res.exit_code == 0
    assert res.output == "\n".join(RELIABILITY_TEXT) + "\n"
