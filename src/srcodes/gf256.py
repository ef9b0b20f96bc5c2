"""GF(2^8) arithmetic with log/antilog tables.

Elements are bytes; addition is XOR, multiplication works through
log/antilog tables built from the primitive polynomial x^8+x^4+x^3+x^2+1
(0x11d) with generator 2.  A full 256x256 product table is also built so
whole buffers can be scaled with a single numpy fancy-index.

All tables are module-level constants computed at import time; every
function here is pure and safe to call from any thread.
"""

from __future__ import annotations

import numpy as np

PRIMITIVE_POLY = 0x11D
FIELD_SIZE = 256

EXP = np.zeros(512, dtype=np.uint8)   # EXP[i] = 2**i, doubled to skip mod 255
LOG = np.zeros(256, dtype=np.int32)   # LOG[0] unused


def _build_tables() -> None:
    x = 1
    for i in range(255):
        EXP[i] = x
        LOG[x] = i
        x <<= 1
        if x & 0x100:
            x ^= PRIMITIVE_POLY
    EXP[255:510] = EXP[:255]


_build_tables()

# MUL[a, b] = a*b in the field; 64 KiB, built once.
_la = LOG[np.arange(256)].reshape(256, 1)
_lb = LOG[np.arange(256)].reshape(1, 256)
MUL = EXP[(_la + _lb) % 255].copy()
MUL[0, :] = 0
MUL[:, 0] = 0
del _la, _lb

INV = np.zeros(256, dtype=np.uint8)
INV[1:] = EXP[255 - LOG[np.arange(1, 256)]]


def gf_add(a: int, b: int) -> int:
    """Field addition (XOR); also subtraction, characteristic 2."""
    return a ^ b


def gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return int(EXP[LOG[a] + LOG[b]])


def gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(256)")
    return int(INV[a])


def addmul_buf(acc: np.ndarray, coeff: int, buf: np.ndarray) -> None:
    """acc ^= coeff * buf, elementwise, in place."""
    if coeff == 0:
        return
    if coeff == 1:
        np.bitwise_xor(acc, buf, out=acc)
    else:
        np.bitwise_xor(acc, MUL[coeff][buf], out=acc)


def addmul_rows(out: np.ndarray, coeffs: np.ndarray, rows) -> None:
    """out[i] ^= sum_j coeffs[i, j] * rows[j], in place.

    The matrix form of addmul_buf: coeffs is r x c, out holds r buffers
    along its first axis and rows holds c, all of one shape.  out may be
    a strided view, so callers write straight into their final arrays.
    """
    for i in range(coeffs.shape[0]):
        for j in range(coeffs.shape[1]):
            addmul_buf(out[i], int(coeffs[i, j]), rows[j])


def mat_inv(m: np.ndarray) -> np.ndarray:
    """Invert a square matrix over GF(256) by Gauss-Jordan elimination.

    Raises ZeroDivisionError if the matrix is singular.
    """
    k = m.shape[0]
    if m.shape != (k, k):
        raise ValueError(f"matrix must be square, got {m.shape}")
    a = m.astype(np.uint8).copy()
    inv = np.eye(k, dtype=np.uint8)
    for col in range(k):
        pivot = -1
        for row in range(col, k):
            if a[row, col] != 0:
                pivot = row
                break
        if pivot < 0:
            raise ZeroDivisionError("singular matrix over GF(256)")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            inv[[col, pivot]] = inv[[pivot, col]]
        p = gf_inv(int(a[col, col]))
        a[col] = MUL[p][a[col]]
        inv[col] = MUL[p][inv[col]]
        for row in range(k):
            if row != col and a[row, col] != 0:
                c = int(a[row, col])
                a[row] ^= MUL[c][a[col]]
                inv[row] ^= MUL[c][inv[col]]
    return inv
