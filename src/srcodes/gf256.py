"""GF(2^8) arithmetic with log/antilog tables, and the buffer kernel.

Elements are bytes; addition is XOR, multiplication works through
log/antilog tables built from the primitive polynomial x^8+x^4+x^3+x^2+1
(0x11d) with generator 2.  A full 256x256 product table MUL is built at
import time; the scalar functions and mat_inv are pure.

addmul_buf, which every buffer multiply-add reaches through addmul_rows,
scales by table look-up, one 256 KiB scratch block at a time:

- a buffer whose last axis is contiguous and of even length is read as
  uint16 and looked up in a 65 536-entry pair table, two products per
  look-up (the split-table idea of Plank, Greenan & Miller, FAST 2013);
  the table is built per call, in microseconds;
- any other buffer is looked up byte by byte in MUL[coeff];
- coefficient 0 is a no-op and coefficient 1 a plain XOR.

A buffer of 1 MiB or more is split along its first (stripe) axis into
disjoint parts, one per thread, at most min(usable CPUs, 4), and the
caller works on the first part itself.  numpy's take and bitwise_xor
release the GIL.  The worker pool is made on the first such call, so
code that does no GF work starts no thread.  Each call returns only when
every part is done, and the output does not depend on the split.
"""

from __future__ import annotations

import os
import threading

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


_SCRATCH_BYTES = 1 << 18   # the look-up block, one per thread
_SPLIT_BYTES = 1 << 20     # buffers this large are split across threads
_THREADS = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1, 4)

_local = threading.local()
_pool = None
_pool_lock = threading.Lock()


def _pair_table(coeff: int) -> np.ndarray:
    """T[x] multiplies both bytes of the uint16 x by coeff: 65 536 entries."""
    lo = MUL[coeff].astype(np.uint16)
    return (lo[:, None] << 8 | lo[None, :]).ravel()


def _lookup_xor(acc: np.ndarray, table: np.ndarray, buf: np.ndarray) -> None:
    """acc ^= table[buf], one scratch block at a time."""
    scratch = getattr(_local, "scratch", None)
    if scratch is None:
        scratch = _local.scratch = np.empty(_SCRATCH_BYTES, dtype=np.uint8)
    block = scratch.view(table.dtype)
    if acc.size <= block.size:
        looked_up = block[:acc.size].reshape(acc.shape)
        np.take(table, buf, out=looked_up, mode="clip")
        np.bitwise_xor(acc, looked_up, out=acc)
        return
    rows = block.size * len(acc) // acc.size
    if rows == 0:   # one row is larger than the block
        for a, b in zip(acc, buf):
            _lookup_xor(a, table, b)
        return
    for s in range(0, len(acc), rows):
        _lookup_xor(acc[s:s + rows], table, buf[s:s + rows])


def _workers():
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(_THREADS - 1, thread_name_prefix="gf256")
        return _pool


def _drop_pool() -> None:
    """A forked child has none of its parent's threads: start afresh."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


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
    parts = min(_THREADS, len(acc)) if acc.nbytes >= _SPLIT_BYTES else 1
    if parts <= 1:
        _lookup_xor(acc, table, buf)
        return
    cut = [len(acc) * p // parts for p in range(parts + 1)]
    pending = [_workers().submit(_lookup_xor, acc[a:b], table, buf[a:b])
               for a, b in zip(cut[1:-1], cut[2:])]
    try:
        _lookup_xor(acc[:cut[1]], table, buf[:cut[1]])
    finally:
        for done in pending:   # every part ends before the call returns
            done.result()


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
