import os
import sys
import threading
import time

import numpy as np
import pytest

from srcodes import gf256

from gf_reference import gf_matmul


def test_add_is_xor_and_self_inverse():
    assert gf256.gf_add(0x53, 0xCA) == 0x53 ^ 0xCA
    for a in range(256):
        assert gf256.gf_add(a, a) == 0
        assert gf256.gf_add(a, 0) == a


def test_every_nonzero_element_has_inverse():
    for a in range(1, 256):
        assert gf256.gf_mul(a, gf256.gf_inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        gf256.gf_inv(0)


def test_mul_axioms_sampled():
    rng = np.random.default_rng(7)
    for _ in range(500):
        a, b, c = (int(x) for x in rng.integers(0, 256, 3))
        assert gf256.gf_mul(a, b) == gf256.gf_mul(b, a)
        assert gf256.gf_mul(a, gf256.gf_mul(b, c)) == \
            gf256.gf_mul(gf256.gf_mul(a, b), c)
        assert gf256.gf_mul(a, b ^ c) == \
            gf256.gf_mul(a, b) ^ gf256.gf_mul(a, c)
        assert gf256.gf_mul(a, 1) == a
        assert gf256.gf_mul(a, 0) == 0


def test_mul_table_matches_scalar():
    rng = np.random.default_rng(8)
    for _ in range(200):
        a, b = (int(x) for x in rng.integers(0, 256, 2))
        assert int(gf256.MUL[a, b]) == gf256.gf_mul(a, b)


def test_addmul_buf_matches_scalar():
    rng = np.random.default_rng(9)
    buf = rng.integers(0, 256, 64, dtype=np.uint8)
    for coeff in (0, 1, 2, 0x1D, 255):
        expect = np.array([gf256.gf_mul(coeff, int(v)) for v in buf],
                          dtype=np.uint8)
        acc = rng.integers(0, 256, 64, dtype=np.uint8)
        expect2 = acc ^ expect
        gf256.addmul_buf(acc, coeff, buf)
        assert np.array_equal(acc, expect2)


@pytest.mark.parametrize("r,c", [(1, 3), (3, 4), (4, 2)])
def test_addmul_rows_matches_reference(r, c):
    rng = np.random.default_rng(11 + r * c)
    coeffs = rng.integers(2, 256, (r, c)).astype(np.uint8)
    coeffs.flat[::5] = 0
    coeffs.flat[1::5] = 1
    rows = rng.integers(0, 256, (c, 3, 7), dtype=np.uint8)
    # out is a strided view: row i lives at base[:, i]
    base = rng.integers(0, 256, (3, r, 7), dtype=np.uint8)
    expect = np.moveaxis(base, 1, 0) ^ gf_matmul(coeffs, rows)
    gf256.addmul_rows(np.moveaxis(base, 1, 0), coeffs, list(rows))
    assert np.array_equal(np.moveaxis(base, 1, 0), expect)


COEFFS = (0, 1, 2, 0x53, 255)


def _expect(acc, coeff, buf):
    """acc ^ coeff * buf by the scalar reference."""
    return acc ^ gf_matmul([[coeff]], buf[None])[0]


def _check(acc, buf):
    """addmul_buf matches the reference for every coefficient in COEFFS."""
    for coeff in COEFFS:
        expect = _expect(acc.copy(), coeff, buf)
        gf256.addmul_buf(acc, coeff, buf)
        assert np.array_equal(acc, expect), coeff


@pytest.mark.parametrize("shape", [(1,), (7,), (63,), (2,), (3000,),
                                   (3, 1), (5, 7), (4, 33), (4, 32)])
def test_addmul_buf_by_shape(shape):
    # 1-D and 2-D; an odd last axis takes the 8-bit table, an even one the
    # pair table
    rng = np.random.default_rng(sum(shape))
    _check(rng.integers(0, 256, shape, dtype=np.uint8),
           rng.integers(0, 256, shape, dtype=np.uint8))


def test_addmul_buf_non_contiguous_last_axis():
    # every other byte: a last-axis stride of 2 takes the 8-bit table,
    # for buf, for acc, and for both
    rng = np.random.default_rng(12)
    base = rng.integers(0, 256, (4, 3, 32), dtype=np.uint8)
    acc = rng.integers(0, 256, (4, 3, 32), dtype=np.uint8)
    _check(acc[:, 0, :16], base[:, 1, ::2])
    _check(acc[:, 1, ::2], base[:, 2, :16])
    _check(acc[:, 2, ::2], base[:, 0, 1::2])


@pytest.mark.parametrize("chunk", [64, 65])
def test_addmul_buf_strided_2d_out(chunk):
    # out rows a whole stripe apart, as the executor writes them
    rng = np.random.default_rng(chunk)
    base = rng.integers(0, 256, (6, 3, chunk), dtype=np.uint8)
    buf = rng.integers(0, 256, (6, chunk), dtype=np.uint8)
    _check(base[:, 1], buf)
    untouched = base[:, [0, 2]].copy()
    gf256.addmul_buf(base[:, 1], 0x53, buf)
    assert np.array_equal(base[:, [0, 2]], untouched)


@pytest.mark.parametrize("shape", [(0,), (0, 64), (0, 7), (5, 0)])
def test_addmul_buf_empty(monkeypatch, shape):
    # no stripes: nothing to split, whatever the threshold
    monkeypatch.setattr(gf256, "_SPLIT_BYTES", 0)
    acc = np.zeros(shape, dtype=np.uint8)
    for coeff in COEFFS:
        gf256.addmul_buf(acc, coeff, np.zeros(shape, dtype=np.uint8))
    assert acc.shape == shape


def _spy_parts(monkeypatch):
    """Record (thread id, stripes) of every _lookup_xor call."""
    calls = []
    lookup = gf256._lookup_xor

    def spy(acc, table, buf):
        calls.append((threading.get_ident(), len(acc)))
        lookup(acc, table, buf)

    monkeypatch.setattr(gf256, "_lookup_xor", spy)
    return calls


@pytest.mark.parametrize("chunk", [64, 65])
def test_addmul_buf_split_matches_reference(monkeypatch, chunk):
    # a split forced on a small buffer of 11 stripes, an uneven count
    monkeypatch.setattr(gf256, "_SPLIT_BYTES", 1)
    calls = _spy_parts(monkeypatch)
    rng = np.random.default_rng(chunk)
    base = rng.integers(0, 256, (11, 2, chunk), dtype=np.uint8)
    buf = rng.integers(0, 256, (11, chunk), dtype=np.uint8)
    expect = _expect(base[:, 0].copy(), 0x53, buf)
    gf256.addmul_buf(base[:, 0], 0x53, buf)
    assert np.array_equal(base[:, 0], expect)
    parts = min(gf256._THREADS, 11)
    assert sorted(n for _, n in calls) == \
        sorted(np.diff([11 * p // parts for p in range(parts + 1)]))
    # the caller works the first part itself, the pool the rest
    assert (threading.get_ident(), 11 // parts) in calls
    assert (len({t for t, _ in calls}) > 1) == (parts > 1)


def _check_sampled(after, before, coeff, buf, samples=2000):
    """after == before ^ coeff * buf at random positions, by gf_mul."""
    at = np.random.default_rng(samples).integers(0, buf.size, samples)
    idx = np.unravel_index(at, buf.shape)
    assert [int(v) for v in after[idx]] == \
        [int(a) ^ gf256.gf_mul(coeff, int(b))
         for a, b in zip(before[idx], buf[idx])]


@pytest.mark.parametrize("chunk", [96 << 10, (96 << 10) + 1])
def test_addmul_buf_split_and_unsplit_identical(monkeypatch, chunk):
    # 11 stripes of 96 KiB (or one more byte) pass 1 MiB and are split
    rng = np.random.default_rng(chunk)
    buf = rng.integers(0, 256, (11, chunk), dtype=np.uint8)
    start = rng.integers(0, 256, (11, 3, chunk), dtype=np.uint8)
    assert buf.nbytes >= gf256._SPLIT_BYTES
    split = start.copy()
    gf256.addmul_buf(split[:, 2], 0xA7, buf)
    monkeypatch.setattr(gf256, "_SPLIT_BYTES", buf.nbytes + 1)
    whole = start.copy()
    gf256.addmul_buf(whole[:, 2], 0xA7, buf)
    assert np.array_equal(split, whole)
    assert np.array_equal(split[:, :2], start[:, :2])
    _check_sampled(split[:, 2], start[:, 2], 0xA7, buf)


@pytest.mark.parametrize("shape", [(2, 300_000), (3, 300_001), (600_000,)])
def test_addmul_buf_rows_larger_than_block(shape):
    # a row past the 256 KiB scratch block is looked up in pieces
    rng = np.random.default_rng(shape[-1])
    buf = rng.integers(0, 256, shape, dtype=np.uint8)
    start = rng.integers(0, 256, shape, dtype=np.uint8)
    acc = start.copy()
    gf256.addmul_buf(acc, 0x8E, buf)
    assert np.array_equal(acc, start ^ gf256.MUL[0x8E][buf])
    _check_sampled(acc, start, 0x8E, buf)


def test_addmul_rows_calls_kernel_on_callers_thread(monkeypatch):
    # Span tracers keep one stack per process: every addmul_buf call must
    # enter and return on the caller's thread, once per (i, j), however
    # the kernel splits its work inside.
    calls = []
    addmul_buf = gf256.addmul_buf

    def recording(acc, coeff, buf):
        calls.append((threading.get_ident(), coeff))
        addmul_buf(acc, coeff, buf)

    monkeypatch.setattr(gf256, "addmul_buf", recording)
    rng = np.random.default_rng(3)
    coeffs = np.array([[0, 1, 0x53], [2, 255, 0x1D]], dtype=np.uint8)
    rows = rng.integers(0, 256, (3, 12, 96 << 10), dtype=np.uint8)
    out = np.zeros((12, 2, 96 << 10), dtype=np.uint8)
    gf256.addmul_rows(np.moveaxis(out, 1, 0), coeffs, list(rows))
    assert calls == [(threading.get_ident(), int(c)) for c in coeffs.flat]
    for i in range(2):
        expect = np.zeros_like(rows[0])
        for j in range(3):
            expect ^= gf256.MUL[coeffs[i, j]][rows[j]]
        assert np.array_equal(out[:, i], expect)


def test_concurrent_callers_keep_their_results(monkeypatch):
    # callers on more threads than cores share the pool; each thread's
    # scratch block is its own, so no look-up lands in another caller's
    # buffer
    monkeypatch.setattr(gf256, "_SPLIT_BYTES", 1)
    rng = np.random.default_rng(4)
    bufs = rng.integers(0, 256, (8, 11, 4000), dtype=np.uint8)
    expect = [gf256.MUL[0x53][b] ^ gf256.MUL[0x1D][b] for b in bufs]
    wrong = []

    def caller(i):
        acc = np.empty_like(bufs[i])
        for _ in range(100):
            acc[:] = 0
            gf256.addmul_buf(acc, 0x53, bufs[i])
            gf256.addmul_buf(acc, 0x1D, bufs[i])
            if not np.array_equal(acc, expect[i]):
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(i,))
                   for i in range(len(bufs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_split_kernel_works_in_forked_child():
    # the child of a fork has none of the pool's threads; a kernel that
    # queued work for them would never return
    acc = np.zeros((11, 96 << 10), dtype=np.uint8)
    buf = np.full_like(acc, 3)
    gf256.addmul_buf(acc, 2, buf)   # the pool exists from here on
    pid = os.fork()
    if pid == 0:
        gf256.addmul_buf(acc, 2, buf)
        os._exit(0 if not acc.any() else 1)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            assert os.waitstatus_to_exitcode(status) == 0
            return
        time.sleep(0.05)
    os.kill(pid, 9)
    os.waitpid(pid, 0)
    pytest.fail("the kernel hung in a forked child")


def test_mat_inv_round_trip():
    rng = np.random.default_rng(10)
    for k in (1, 2, 3, 5):
        for _ in range(20):
            m = rng.integers(0, 256, (k, k)).astype(np.uint8)
            try:
                inv = gf256.mat_inv(m)
            except ZeroDivisionError:
                continue
            assert np.array_equal(gf_matmul(m, inv), np.eye(k, dtype=np.uint8))


def test_mat_inv_singular_raises():
    m = np.array([[1, 2], [1, 2]], dtype=np.uint8)
    with pytest.raises(ZeroDivisionError):
        gf256.mat_inv(m)
