"""Systematic (n, k) MDS code over GF(256), used as the outer pre-code.

The generator is ``[I | C]`` where C is the k x (n-k) Cauchy matrix
``C[i][j] = 1/(x_i + y_j)`` with ``x_i = i`` and ``y_j = k + j``.  Every
square submatrix of a Cauchy matrix is nonsingular, so any k of the n
coded chunks recover the data.  Construction is a pure function of
(k, n); decoders rebuild it from the ``construction_id`` recorded in a
manifest instead of shipping matrix entries.

Buffers are numpy uint8 arrays.  Everything here is stateless and
thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf256
from .errors import ParameterError, ShapeError

CONSTRUCTION_ID = "gf256-cauchy-systematic-v1"

MAX_N = 255


@dataclass(frozen=True)
class GeneratorMatrix:
    """k x n systematic MDS generator; entries[i, j] scales data row i
    into coded column j."""

    k: int
    n: int
    entries: np.ndarray
    construction_id: str = CONSTRUCTION_ID


def make_generator(k: int, n: int) -> GeneratorMatrix:
    """Build the systematic Cauchy generator for an (n, k) MDS code.

    Deterministic for fixed (k, n).  Requires 1 <= k <= n <= 255 so that
    the k + (n-k) Cauchy points fit in GF(256).
    """
    if not 1 <= k <= n:
        raise ParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    if n > MAX_N:
        raise ParameterError(f"n={n} exceeds GF(256) construction limit {MAX_N}")
    g = np.zeros((k, n), dtype=np.uint8)
    g[:, :k] = np.eye(k, dtype=np.uint8)
    for i in range(k):
        for j in range(n - k):
            g[i, k + j] = gf256.gf_inv(i ^ (k + j))
    return GeneratorMatrix(k=k, n=n, entries=g)


def _as_matrix(buffers: list[np.ndarray] | np.ndarray, count: int) -> np.ndarray:
    arrs = [np.asarray(b, dtype=np.uint8) for b in buffers]
    if len(arrs) != count:
        raise ShapeError(f"expected {count} buffers, got {len(arrs)}")
    length = arrs[0].shape[-1] if arrs[0].ndim else 0
    for a in arrs:
        if a.ndim != 1 or a.shape[0] != length:
            raise ShapeError("buffers must be 1-D and of equal length")
    return np.stack(arrs) if length or arrs else np.zeros((count, 0), np.uint8)


def mds_encode(data: list[np.ndarray], g: GeneratorMatrix) -> list[np.ndarray]:
    """Encode k equal-length buffers into n; the first k come back
    byte-identical (systematic).  Linear over the field per byte."""
    d = _as_matrix(data, g.k)
    out = np.zeros((g.n, d.shape[1]), dtype=np.uint8)
    gf256.addmul_rows(out, g.entries.T, d)
    return list(out)


def decode_matrix(columns: list[int], g: GeneratorMatrix) -> np.ndarray:
    """Inverse of the k x k submatrix formed by the given 0-based columns.

    Row c of the result holds the coefficients applied to share c; a
    singular submatrix violates the MDS invariant and trips an assertion.
    """
    if len(columns) != g.k:
        raise ParameterError(f"need exactly {g.k} columns, got {len(columns)}")
    if len(set(columns)) != len(columns):
        raise ParameterError(f"duplicate column indices: {sorted(columns)}")
    for c in columns:
        if not 0 <= c < g.n:
            raise ParameterError(f"column {c} outside [0, {g.n})")
    sub = g.entries[:, columns]
    try:
        return gf256.mat_inv(sub)
    except ZeroDivisionError as exc:  # impossible for a Cauchy-built G
        raise AssertionError(f"MDS submatrix {columns} singular") from exc


def mds_decode(shares: list[tuple[int, np.ndarray]], g: GeneratorMatrix) -> list[np.ndarray]:
    """Recover the k data buffers from any k (column index, buffer) pairs.

    Column indices are 0-based positions in the codeword.
    """
    columns = [c for c, _ in shares]
    inv = decode_matrix(columns, g)
    s = _as_matrix([b for _, b in shares], g.k)
    out = np.zeros_like(s)
    gf256.addmul_rows(out, inv.T, s)
    return list(out)
