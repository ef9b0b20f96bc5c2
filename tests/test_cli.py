import hashlib
import json

import numpy as np
import pytest
from click.testing import CliRunner

from srcodes import cli
from srcodes.cli import main
from srcodes.core import SrcParams
from srcodes.repair import node_repair_plan
from srcodes.shards import MANIFEST_NAME, shard_filename


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
    return src, data, out


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


def test_corrupted_shard_exit_4(runner, tmp_path):
    _, _, out = _encode(runner, tmp_path)
    shard = out / shard_filename(1)
    blob = bytearray(shard.read_bytes())
    blob[-1] ^= 0xFF
    shard.write_bytes(bytes(blob))
    res = runner.invoke(main, ["decode", "--manifest", str(out / MANIFEST_NAME),
                               "--shards", str(out), "--out",
                               str(tmp_path / "y.bin")])
    assert res.exit_code == 4


def _drop_params(doc):
    del doc["params"]


def _file_size_as_text(doc):
    doc["file_size"] = str(doc["file_size"])


@pytest.mark.parametrize("edit", [None, _drop_params, _file_size_as_text],
                         ids=["not-json", "no-params", "wrong-type"])
def test_malformed_manifest_exit_4(runner, tmp_path, edit):
    _, _, out = _encode(runner, tmp_path)
    manifest = out / MANIFEST_NAME
    if edit is None:
        manifest.write_text("{not json")
    else:
        doc = json.loads(manifest.read_text())
        edit(doc)
        manifest.write_text(json.dumps(doc))
    res = runner.invoke(main, ["decode", "--manifest", str(manifest),
                               "--shards", str(out), "--out",
                               str(tmp_path / "y.bin")])
    assert res.exit_code == 4
    assert "malformed manifest" in res.output


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
], ids=["list", "typo", "scheme-typo"])
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
