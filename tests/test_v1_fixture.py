"""A v1 shard set stays readable and repairable byte for byte.

tests/fixtures/v1 was written by `srcodes encode` when v1 was the only
shard format: (5,3,2), 1 KiB chunks, four stripes of the 20 000-byte
counter-mode input.  It is never rewritten; a change that breaks
reading or repairing it fails here.  The v1 digests `srcodes encode`
wrote for the inputs of test_cli.GOLDEN_ENCODE are pinned here too:
each v2 shard it writes now, with its parts moved back as
docs/FORMATS.md says, must hash to them.
"""

import hashlib
import shutil
from dataclasses import replace
from pathlib import Path

import pytest
from click.testing import CliRunner

from srcodes.cli import main
from srcodes.core import SrcParams
from srcodes.shards import MANIFEST_NAME, load_manifest, shard_filename

from shard_files import (HEADER_B, VERSION_AT, counter_input, payload_at,
                         payload_bytes, table_at, table_bytes)

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "v1"
SIZE = 20_000


@pytest.fixture
def v1(tmp_path):
    shutil.copytree(FIXTURE, tmp_path / "v1")
    return tmp_path / "v1"


def _run(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def _repair(shards, node):
    return _run("repair", "--manifest", shards / MANIFEST_NAME, "--shards",
                shards, "--node", node)


def test_v1_fixture_decodes(v1, tmp_path):
    dest = tmp_path / "y.bin"
    res = _run("decode", "--manifest", v1 / MANIFEST_NAME, "--shards", v1,
               "--out", dest)
    assert (res.exit_code, res.stderr) == (0, ""), res.output
    assert dest.read_bytes() == counter_input(SIZE)


@pytest.mark.parametrize("node", range(1, 6))
def test_v1_lookup_repair_is_byte_identical(v1, node):
    lost = v1 / shard_filename(node)
    lost.unlink()
    res = _repair(v1, node)
    assert res.exit_code == 0, res.output
    assert "via look-up repair" in res.stdout
    assert lost.read_bytes() == (FIXTURE / shard_filename(node)).read_bytes()
    assert sorted(p.name for p in v1.iterdir()) == \
        sorted(p.name for p in FIXTURE.iterdir())


def test_v1_fallback_repair_is_byte_identical(v1):
    # node 2 holds part2[3], a look-up helper of node 3's part1[3]
    (v1 / shard_filename(3)).unlink()
    (v1 / shard_filename(2)).unlink()
    res = _repair(v1, 3)
    assert res.exit_code == 0, res.output
    assert "via reconstruction fallback" in res.stdout
    assert (v1 / shard_filename(3)).read_bytes() == \
        (FIXTURE / shard_filename(3)).read_bytes()


def test_v1_manifest_skips_a_v2_shard(v1, tmp_path):
    # the same file encoded today is v2, of the same length: the header's
    # version tells the shard apart, and decode plans around it
    src = tmp_path / "in.bin"
    src.write_bytes(counter_input(SIZE))
    res = _run("encode", src, "--n", 5, "--k", 3, "--f", 2, "--chunk-size",
               1024, "--out", tmp_path / "v2")
    assert res.exit_code == 0, res.output
    shutil.copy(tmp_path / "v2" / shard_filename(2), v1 / shard_filename(2))
    dest = tmp_path / "y.bin"
    res = _run("decode", "--manifest", v1 / MANIFEST_NAME, "--shards", v1,
               "--out", dest)
    assert res.exit_code == 0, res.output
    assert res.stderr == ("skipped: shard node_002.shard header disagrees "
                          "with manifest\n")
    assert dest.read_bytes() == counter_input(SIZE)


# the SHA-256 of every file `srcodes encode` wrote in format v1, manifest
# last, for the inputs of test_cli.GOLDEN_ENCODE
GOLDEN_V1 = {
    (4, 2, 2, 4096, 50_000): [
        "4bb8a66085d0d558bbed36c8f376116a3c185bb5b981e8955454e1e133a82d40",
        "3c4e4568455ed1ba0256efc0e5934f5ff8c850f65369eb0a318b08940ee73145",
        "3086e93e090c909e5cd255fb9e3a5c394cb1d894877ad13bf08603200d9fdbbe",
        "e9833bc7492a6e4f57cea0cdd2da17cbf6034a9a9c2e8847b1b6f0823f00bdb6",
        "977bcd7596d3ce86195127144ae513f92f03b49793b86f85e1d187db3ff88c32",
    ],
    # odd chunks (the 8-bit kernel path) and a partial last stripe
    (5, 3, 3, 1023, 30_000): [
        "f8e8247cea064dd3b32f8a8ba9b8a49b9c5b94f36a5e69882f5d9b513bd53a4b",
        "a56666df8647f88a4d5d48ba5c5179f6cac5217454d5bde399610168308598e6",
        "cf285d644525ca048202f1b99e9798a8887fafc89ff61067519220d568f1764e",
        "3c351afa6993bea563ae03ae0de18d601c6651e23967033b9c414dfd1cb03f23",
        "f7231844594723db9c1bedbe20af1837e7b5514d0d04ed1de7fc09249a2bf0f8",
        "34822c4e52dbf91fa56f74ff9c3c3d25fc0c8322521ad434258d673b7eb1f688",
    ],
    (10, 6, 2, 4096, 100_000): [
        "e13100a8f4cb06962cf24453d944d95570e74de9ef7ff4375f7e2fb974214dbf",
        "495c05f476d7cd4119e9ef8e02ee927b8284061926a32c875142557af98cb36b",
        "d65dc82b136128b2d31a06843b386b920c589eef01c4da740fef31ed4ae0b26f",
        "a4bbfc08e0e5eca1c700cd8bfb893b3e6a5ddd06af7d57d34187ba5618c6dd96",
        "1b6da662ea1b9a73c6ee9754dd1c689e54937766c48a521987d1e41cbc7615df",
        "85fd090b039eb39cc200a2167c5fa8a9a4c318f9afd2d63f5292eff834c2f9d7",
        "e73f86875ec0a3850aa9e31f0b597e4abca9656e89d2208b2b2de789fe0b3c4c",
        "80ef8c7b2284454b3c4b7cd5bfdf1f676b3d1474cda417c476b25ad27513c1e8",
        "d21e29092c2772e7d2b1d907fb2c811cacff420f3a8b8cae2571b708aa6dece5",
        "d8ac86aa40111f913f64670b5ee4718971e810f7dd8aeff6aedc649f2c6afc98",
        "0b4917e54801fa55e04288c36d1eebb9bbdc905ab28d022e52fb37e36d227512",
    ],
    (4, 2, 2, 4096, 0): [
        "dc6595b6d9b32d911da19f798f628c1f674c9972eaf7c41369885ceb0289095e",
        "aa11d1ff73ef4d6b8900c209d8da583f2757cebb9a14f0cfd3a8773fe4508e8c",
        "1da26cfd3a1036689f0be4ca8176156c9c87a1fc985f6de6e703b8213e35da13",
        "6ec29ef2a75d28f9cf890b4e62c08ea3ef97cd0f5233bf11efa0147d4d489b12",
        "5ed4082a431ec07238195a93729c7a7e16ed89f6bd93f6f428503b82e75d0884",
    ],
}


def _as_v1(blob, p, stripes):
    """A v2 shard file rearranged into v1: version 1, table, payload."""
    table = blob[table_at(p, stripes):][:table_bytes(p, stripes)]
    payload = blob[payload_at(p, stripes):][:payload_bytes(p, stripes)]
    head = bytearray(blob[:HEADER_B])
    head[VERSION_AT:VERSION_AT + 2] = (1).to_bytes(2, "little")
    return bytes(head) + table + payload


@pytest.mark.parametrize("n,k,f,chunk,size", GOLDEN_V1)
def test_v1_golden_digests_and_v2_layout(tmp_path, n, k, f, chunk, size):
    # each v2 shard `srcodes encode` writes, rearranged into v1, is the
    # v1 shard it wrote before; the v1 manifest differs only in its
    # version and shard digests
    p = SrcParams(n, k, f, chunk)
    src = tmp_path / "in.bin"
    src.write_bytes(counter_input(size))
    res = _run("encode", src, "--n", n, "--k", k, "--f", f, "--chunk-size",
               chunk, "--out", tmp_path / "v2")
    assert res.exit_code == 0, res.output
    manifest = load_manifest(tmp_path / "v2" / MANIFEST_NAME)
    v1_shards = {node: hashlib.sha256(_as_v1(
        (tmp_path / "v2" / shard_filename(node)).read_bytes(), p,
        manifest.stripe_count)).hexdigest() for node in range(1, n + 1)}
    v1_manifest = replace(manifest, version=1, shard_digests=v1_shards)
    assert [*v1_shards.values(),
            hashlib.sha256(v1_manifest.to_json().encode()).hexdigest()] \
        == GOLDEN_V1[n, k, f, chunk, size]
