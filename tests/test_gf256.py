import sys
import threading

import numpy as np
import pytest

from srcodes import gf256

from gf_reference import gf_matmul, gf_mul, gf_rank


def test_every_nonzero_element_has_inverse():
    for a in range(1, 256):
        assert gf_mul(a, gf256.gf_inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        gf256.gf_inv(0)


def test_mul_axioms_sampled():
    rng = np.random.default_rng(7)
    for _ in range(500):
        a, b, c = (int(x) for x in rng.integers(0, 256, 3))
        assert gf_mul(a, b) == gf_mul(b, a)
        assert gf_mul(a, gf_mul(b, c)) == \
            gf_mul(gf_mul(a, b), c)
        assert gf_mul(a, b ^ c) == \
            gf_mul(a, b) ^ gf_mul(a, c)
        assert gf_mul(a, 1) == a
        assert gf_mul(a, 0) == 0


def test_mul_table_matches_scalar():
    # all 65 536 entries, against the shift-and-XOR oracle
    oracle = [[gf_mul(a, b) for b in range(256)] for a in range(256)]
    assert gf256.MUL.shape == (256, 256)
    assert gf256.MUL.tolist() == oracle


def test_addmul_buf_matches_scalar():
    rng = np.random.default_rng(9)
    buf = rng.integers(0, 256, 64, dtype=np.uint8)
    for coeff in (0, 1, 2, 0x1D, 255):
        expect = np.array([gf_mul(coeff, int(v)) for v in buf],
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


def _grouped_case(r, c, shape, seed):
    """Coefficients holding 0s and 1s, c source rows that are slots of a
    batch as in encode's batch[:, slot], and r out rows a stripe apart
    as run_plan writes them, in the slots after the sources."""
    rng = np.random.default_rng(seed)
    coeffs = rng.integers(2, 256, (r, c)).astype(np.uint8)
    coeffs.flat[::5] = 0
    coeffs.flat[1::5] = 1
    batch = rng.integers(0, 256, (shape[0], c + r, *shape[1:]),
                         dtype=np.uint8)
    rows = [batch[:, j] for j in range(c)]
    out = [batch[:, c + i] for i in range(r)]
    return coeffs, batch, rows, out


def _check_rows(coeffs, rows, out, samples=None):
    """addmul_rows matches gf_matmul, at every position or at a sample
    of them, and leaves the sources as they were."""
    before = np.stack(out).reshape(len(out), -1)
    sources = np.stack(rows).reshape(len(rows), -1)
    gf256.addmul_rows(out, coeffs, rows)
    at = slice(None) if samples is None else \
        np.random.default_rng(samples).integers(0, before.shape[1], samples)
    assert np.array_equal(np.stack(out).reshape(len(out), -1)[:, at],
                          before[:, at] ^ gf_matmul(coeffs, sources[:, at]))
    assert np.array_equal(np.stack(rows).reshape(len(rows), -1), sources)


@pytest.mark.parametrize("r", [3, 4, 5, 8, 9, 17])
@pytest.mark.parametrize("chunk", [64, 65])
def test_grouped_rows_match_reference(r, chunk):
    # three or more outputs take the grouped tables, in groups of up to 8
    coeffs, _, rows, out = _grouped_case(r, 4, (3, chunk), r * chunk)
    _check_rows(coeffs, rows, out)


def test_grouped_rows_skip_a_source_no_output_scales():
    coeffs, batch, rows, out = _grouped_case(4, 3, (2, 33), 1)
    coeffs[:, 1] = 0
    _check_rows(coeffs, rows, out)
    coeffs[:] = 0
    before = batch.copy()
    gf256.addmul_rows(out, coeffs, rows)
    assert np.array_equal(batch, before)


def test_grouped_rows_strided_last_axis():
    # every other byte of the sources and of the outputs
    coeffs, _, rows, out = _grouped_case(5, 3, (4, 64), 2)
    _check_rows(coeffs, [b[:, ::2] for b in rows], [o[:, 1::2] for o in out])


@pytest.mark.parametrize("shape", [(12, 7001), (2, 70_000), (3, 40_001),
                                   (70_001,)])
def test_grouped_rows_larger_than_block(shape):
    # 32 Ki entries per look-up: whole rows per block where they fit,
    # else a row in pieces
    coeffs, _, rows, out = _grouped_case(4, 3, shape, shape[-1])
    _check_rows(coeffs, rows, out, samples=4000)


@pytest.mark.parametrize("shape", [(0,), (0, 64), (0, 7), (5, 0)])
def test_grouped_rows_empty(shape):
    coeffs, _, rows, out = _grouped_case(4, 3, shape, 3)
    gf256.addmul_rows(out, coeffs, rows)
    assert all(o.shape == shape for o in out)


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
def test_addmul_buf_empty(shape):
    acc = np.zeros(shape, dtype=np.uint8)
    for coeff in COEFFS:
        gf256.addmul_buf(acc, coeff, np.zeros(shape, dtype=np.uint8))
    assert acc.shape == shape


def _check_sampled(after, before, coeff, buf, samples=2000):
    """after == before ^ coeff * buf at random positions, by gf_mul."""
    at = np.random.default_rng(samples).integers(0, buf.size, samples)
    idx = np.unravel_index(at, buf.shape)
    assert [int(v) for v in after[idx]] == \
        [int(a) ^ gf_mul(coeff, int(b))
         for a, b in zip(before[idx], buf[idx])]


@pytest.mark.parametrize("shape", [(2, 300_000), (3, 300_001), (600_000,)])
def test_addmul_buf_rows_larger_than_block(shape):
    # a row past the look-up block (128 Ki entries) is looked up in pieces
    rng = np.random.default_rng(shape[-1])
    buf = rng.integers(0, 256, shape, dtype=np.uint8)
    start = rng.integers(0, 256, shape, dtype=np.uint8)
    acc = start.copy()
    gf256.addmul_buf(acc, 0x8E, buf)
    assert np.array_equal(acc, start ^ gf256.MUL[0x8E][buf])
    _check_sampled(acc, start, 0x8E, buf)


def test_addmul_rows_calls_kernel_on_callers_thread(monkeypatch):
    # Span tracers keep one stack per process: every addmul_buf call must
    # enter and return on the caller's thread, once per (i, j).
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


def test_concurrent_callers_keep_their_results():
    # callers on more threads than cores: each thread's scratch block is
    # its own, so no look-up lands in another caller's buffer
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


def test_concurrent_grouped_callers_keep_their_results():
    # the grouped kernel's scratch block is per thread as well
    cases = [_grouped_case(4 + i % 5, 3, (6, 301), i) for i in range(8)]
    expect = [gf_matmul(coeffs, np.stack(rows))
              for coeffs, _, rows, _ in cases]
    wrong = []

    def caller(i):
        coeffs, _, rows, out = cases[i]
        for _ in range(100):
            for o in out:
                o[:] = 0
            gf256.addmul_rows(out, coeffs, rows)
            if not np.array_equal(np.stack(out), expect[i]):
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(i,))
                   for i in range(len(cases))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_solve_square_invertible_gives_the_inverse():
    rng = np.random.default_rng(10)
    for k in (1, 2, 3, 5):
        for _ in range(20):
            m = rng.integers(0, 256, (k, k)).astype(np.uint8)
            if gf_rank(m.tolist()) < k:
                continue
            x, spanned = gf256.solve(m, np.eye(k, dtype=np.uint8))
            assert spanned.all()
            assert np.array_equal(gf_matmul(x, m), np.eye(k, dtype=np.uint8))
            assert np.array_equal(gf_matmul(m, x), np.eye(k, dtype=np.uint8))


def test_solve_singular_leaves_a_row_outside_its_span():
    a = np.array([[1, 2], [3, 6]], dtype=np.uint8)   # row 1 is 3 * row 0
    assert gf_rank(a.tolist()) == 1
    b = np.array([[2, 4], [0, 1], [0, 0]], dtype=np.uint8)
    x, spanned = gf256.solve(a, b)
    assert spanned.tolist() == [True, False, True]
    assert np.array_equal(gf_matmul(x[[0, 2]], a), b[[0, 2]])
    assert not x[1].any()


def test_solve_uses_only_the_earliest_independent_rows():
    # row 2 is row 0 + row 1 and row 3 is row 0 again: earlier rows span
    # both, so they get coefficient 0 whatever b is
    rng = np.random.default_rng(11)
    r0, r1, r4 = rng.integers(1, 256, (3, 4)).astype(np.uint8)
    a = np.stack([r0, r1, r0 ^ r1, r0, r4])
    b = rng.integers(0, 256, (6, 4)).astype(np.uint8)
    assert gf_rank(a.tolist()) == 3
    x, spanned = gf256.solve(a, b)
    assert not x[:, [2, 3]].any()
    for row, ok in zip(b, spanned):
        assert ok == (gf_rank(a.tolist() + [row.tolist()]) == 3)
    assert np.array_equal(gf_matmul(x[spanned], a), b[spanned])


def test_solve_with_no_rows():
    a = np.zeros((0, 3), dtype=np.uint8)
    b = np.array([[0, 0, 0], [0, 5, 0]], dtype=np.uint8)
    x, spanned = gf256.solve(a, b)
    assert x.shape == (2, 0)
    assert spanned.tolist() == [True, False]
