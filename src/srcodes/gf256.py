"""GF(2^8) arithmetic with log/antilog tables, and the buffer kernels.

Elements are bytes; addition is XOR, multiplication works through
log/antilog tables built from the primitive polynomial x^8+x^4+x^3+x^2+1
(0x11d) with generator 2.  A full 256x256 product table MUL is built at
import time; gf_inv and solve are pure.

Every buffer multiply-add goes through addmul_rows, out[i] ^= sum_j
coeffs[i, j] * rows[j], which scales by table look-up on the caller's
thread, in blocks each thread makes once and reuses.  The number r of
output rows picks the kernel (the look-up tables of Plank, Greenan &
Miller, FAST 2013):

- r >= 3: the outputs go in groups of up to 8, and each source row is
  looked up once per group in a 256-entry table whose entry x packs
  coeffs[i, j] * x for every output i of the group, one byte each
  (uint32 for up to 4 outputs, uint64 for up to 8); the products are
  XORed into one packed accumulator, 32 Ki entries at a time, whose
  byte planes then go to their outputs;
- r <= 2: addmul_buf per (i, j), 128 Ki entries at a time.  A buffer
  whose last axis is contiguous and of even length is read as uint16
  and looked up in a 65 536-entry pair table, two products per look-up,
  the table built per call in microseconds; any other buffer is looked
  up byte by byte in MUL[coeff]; coefficient 0 is a no-op and
  coefficient 1 a plain XOR.

The kernels start no thread; callers on several threads each get their
own blocks.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Iterator

import numpy as np

PRIMITIVE_POLY = 0x11D

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


def gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(256)")
    return int(INV[a])


_BLOCK = 1 << 17   # entries looked up at a time; blocks are per thread

_local = threading.local()


def _pair_table(coeff: int) -> np.ndarray:
    """T[x] multiplies both bytes of the uint16 x by coeff: 65 536 entries."""
    lo = MUL[coeff].astype(np.uint16)
    return (lo[:, None] << 8 | lo[None, :]).ravel()


def _blocks(shape: tuple[int, ...], size: int) -> Iterator[tuple]:
    """Indices that cut an array of this shape into pieces of at most
    size entries, whole rows where a row fits."""
    if math.prod(shape) <= size:
        yield (...,)
        return
    inner = math.prod(shape[1:])
    if inner <= size:
        step = size // inner
        for s in range(0, shape[0], step):
            yield (slice(s, s + step),)
        return
    for s in range(shape[0]):   # one row is larger than the block
        for rest in _blocks(shape[1:], size):
            yield (s, *rest)


def _lookup_xor(acc: np.ndarray, table: np.ndarray, buf: np.ndarray) -> None:
    """acc ^= table[buf], one block at a time, in this thread's blocks
    for the values and for the indices as intp, which np.take needs.
    buf is uint8 into a 256-entry table or uint16 into a 65 536-entry
    one, so no index leaves the table: np.take's mode="wrap" then looks
    up the same bytes as "clip", and faster."""
    scratch = getattr(_local, "scratch", None)
    if scratch is None:
        scratch = _local.scratch = (np.empty(_BLOCK, dtype=np.uint16),
                                    np.empty(_BLOCK, dtype=np.intp))
    values, index = scratch
    for at in _blocks(acc.shape, _BLOCK):
        a = acc[at]
        looked_up = values.view(table.dtype)[:a.size]
        np.copyto(index[:a.size].reshape(a.shape), buf[at])
        np.take(table, index[:a.size], out=looked_up, mode="wrap")
        np.bitwise_xor(a, looked_up.reshape(a.shape), out=a)


def addmul_buf(acc: np.ndarray, coeff: int, buf: np.ndarray) -> None:
    """acc ^= coeff * buf, elementwise, in place.

    acc and buf are uint8 arrays of one shape; acc may be a strided view.
    """
    if coeff == 0:
        return
    if coeff == 1:
        np.bitwise_xor(acc, buf, out=acc)
        return
    if acc.ndim and acc.shape[-1] % 2 == 0 and acc.strides[-1] == 1 \
            and buf.strides[-1] == 1:
        table = _pair_table(coeff)
        acc, buf = acc.view(np.uint16), buf.view(np.uint16)
    else:
        table = MUL[coeff]
    _lookup_xor(acc, table, buf)


def addmul_rows(out: np.ndarray, coeffs: np.ndarray, rows) -> None:
    """out[i] ^= sum_j coeffs[i, j] * rows[j], in place.

    The matrix form of addmul_buf: coeffs is r x c, out holds r buffers
    along its first axis and rows holds c, all of one shape.  out and
    rows may be strided views, so callers read from and write straight
    into their final arrays.
    """
    r = coeffs.shape[0]
    if r <= 2:   # a group this small looks up no faster than pair tables
        for i in range(r):
            for j in range(coeffs.shape[1]):
                addmul_buf(out[i], int(coeffs[i, j]), rows[j])
        return
    for group in np.array_split(np.arange(r), -(-r // 8)):
        _addmul_group([out[i] for i in group], coeffs[group], rows)


_GROUP_BLOCK = 1 << 15   # entries per grouped look-up; blocks are per thread


def _addmul_group(out: list, coeffs: np.ndarray, rows) -> None:
    """addmul_rows for up to 8 outputs: each source byte is looked up
    once, in a table packing its products for every output, bits 8i to
    8i+7 for out[i].  A source byte indexes a 256-entry table, so, as in
    _lookup_xor, np.take's mode="wrap" never wraps."""
    keep = coeffs.any(axis=0)   # a source no output scales is not read
    rows = [b for b, k in zip(rows, keep) if k]
    if not rows:
        return
    dtype = np.uint32 if len(out) <= 4 else np.uint64
    tables = np.zeros((len(rows), 256), dtype)
    one = np.empty_like(tables)   # one output's products, then shifted
    for i, row in enumerate(coeffs[:, keep]):
        np.copyto(one, MUL[row])
        np.left_shift(one, 8 * i, out=one)
        np.bitwise_or(tables, one, out=tables)
    scratch = getattr(_local, "grouped", None)
    if scratch is None:
        scratch = _local.grouped = (np.empty(_GROUP_BLOCK, np.intp),
                                    np.empty((2, _GROUP_BLOCK), np.uint64))
    index, packed = scratch
    for at in _blocks(out[0].shape, _GROUP_BLOCK):
        shape = rows[0][at].shape
        m = math.prod(shape)
        acc, looked = (p.view(dtype)[:m] for p in packed)
        for j, (table, row) in enumerate(zip(tables, rows)):
            np.copyto(index[:m].reshape(shape), row[at])
            np.take(table, index[:m], out=looked if j else acc, mode="wrap")
            if j:
                np.bitwise_xor(acc, looked, out=acc)
        plane = looked.view(np.uint8)[:m].reshape(shape)
        for i, o in enumerate(out):
            np.right_shift(acc.reshape(shape), 8 * i, out=plane,
                           casting="unsafe")   # bits 8i to 8i+7
            np.bitwise_xor(o[at], plane, out=o[at])


def solve(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x with x @ a == b over GF(256), for each row of b that the rows of
    a span: a is m x c, b is t x c, x is t x m, and spanned holds t
    booleans; a row of b outside the span gets False and a zero row.

    Only the earliest independent rows of a are used: row i gets a
    nonzero coefficient only if rows 0..i-1 do not span it, so x is
    unique.  One Gauss-Jordan elimination on [a.T | b.T], whose pivot
    columns are the rows of a taken; each row reduction is one MUL
    look-up over the rows it changes.
    """
    m = a.shape[0]
    aug = np.concatenate([a.T, b.T], axis=1).astype(np.uint8)
    taken = []
    for j in range(m):
        r = len(taken)
        below = np.flatnonzero(aug[r:, j])
        if not below.size:   # rows 0..j-1 span row j
            continue
        p = r + below[0]
        aug[[r, p]] = aug[[p, r]]
        aug[r] = MUL[gf_inv(int(aug[r, j])), aug[r]]
        rows = np.flatnonzero(aug[:, j])
        rows = rows[rows != r]
        # row r is zero left of column j, so those columns stay as they are
        aug[rows, j:] ^= MUL[aug[rows, j, None], aug[r, j:]]
        taken.append(j)
    spanned = ~aug[len(taken):, m:].any(axis=0)
    x = np.zeros((b.shape[0], m), dtype=np.uint8)
    x[:, taken] = aug[:len(taken), m:].T
    x[~spanned] = 0
    return x, spanned
