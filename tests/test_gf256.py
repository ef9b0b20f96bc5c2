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


def test_mul_buf_and_addmul_buf():
    rng = np.random.default_rng(9)
    buf = rng.integers(0, 256, 64, dtype=np.uint8)
    for coeff in (0, 1, 2, 0x1D, 255):
        expect = np.array([gf256.gf_mul(coeff, int(v)) for v in buf],
                          dtype=np.uint8)
        assert np.array_equal(gf256.mul_buf(coeff, buf), expect)
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
