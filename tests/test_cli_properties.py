"""Property test of the CLI contract on random codes, erasures and
flipped bytes: decode writes exactly the input or exits 3 or 4 with no
output file and no traceback, and always the input while the chunks of
the intact shards span the data, by the rank oracle, as any k shards'
do; otherwise it may still succeed from the chunks of damaged shards
that it reads intact.  Repair gives a node's original bytes or such an
exit code, and always the bytes while the intact shards span the
data."""

import tempfile
from pathlib import Path

from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from srcodes.cli import main
from srcodes.shards import MANIFEST_NAME, shard_filename

from gf_reference import chunk_row, gf_rank


@st.composite
def damage(draw):
    n = draw(st.integers(2, 8))
    k = draw(st.integers(1, n - 1))
    f = draw(st.integers(1, n - 1))
    chunk = draw(st.integers(1, 64))
    data = draw(st.binary(max_size=3 * f * k * chunk))
    erased = draw(st.sets(st.integers(1, n), max_size=n - k))
    flips = draw(st.lists(st.tuples(st.integers(1, n), st.integers(0, 1 << 20),
                                    st.integers(1, 255)), max_size=3))
    return n, k, f, chunk, data, erased, flips, draw(st.integers(1, n))


def _run(args):
    res = CliRunner().invoke(main, args)
    assert not isinstance(res.exception, Exception), res.output   # traceback
    return res.exit_code


@settings(max_examples=100, deadline=None, derandomize=True)
@given(damage())
def test_decode_and_repair_keep_the_exit_code_contract(case):
    n, k, f, chunk, data, erased, flips, node = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "in.bin").write_bytes(data)
        out = tmp / "shards"
        assert _run(["encode", str(tmp / "in.bin"), "--n", str(n), "--k", str(k),
                     "--f", str(f), "--chunk-size", str(chunk),
                     "--out", str(out)]) == 0
        paths = {i: out / shard_filename(i) for i in range(1, n + 1)}
        original = {i: path.read_bytes() for i, path in paths.items()}
        for i in erased:
            paths[i].unlink()
        for i, at, mask in flips:
            if i not in erased:
                blob = bytearray(paths[i].read_bytes())
                blob[at % len(blob)] ^= mask
                paths[i].write_bytes(bytes(blob))
        intact = [i for i in paths if paths[i].exists()   # a byte flipped
                  and paths[i].read_bytes() == original[i]]   # twice is intact
        # node i holds part l at subscript i + l - 1, wrapping on 1..n
        spans = gf_rank([chunk_row(n, k, f, l, (i + l - 2) % n + 1)
                         for i in intact for l in range(1, f + 2)]) == f * k
        where = ["--manifest", str(out / MANIFEST_NAME), "--shards", str(out)]

        code = _run(["decode", *where, "--out", str(tmp / "out.bin")])
        if spans:
            assert code == 0 and (tmp / "out.bin").read_bytes() == data
        elif code == 0:   # the flipped bytes lie outside the planned reads
            assert (tmp / "out.bin").read_bytes() == data
        else:
            assert code in (3, 4) and not (tmp / "out.bin").exists()
        for i in sorted(erased)[:1]:   # look-up repair may need fewer than k
            code = _run(["repair", *where, "--node", str(i)])
            assert code in ((0,) if spans else (0, 3, 4))
            assert paths[i].read_bytes() == original[i] if code == 0 \
                else not paths[i].exists()

        for i, blob in original.items():
            paths[i].write_bytes(blob)
        paths[node].unlink()
        assert _run(["repair", *where, "--node", str(node)]) == 0
        assert paths[node].read_bytes() == original[node]
