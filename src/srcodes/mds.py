"""Systematic (n, k) MDS code over GF(256), used as the outer pre-code.

The generator is ``[I | C]`` where C is the k x (n-k) Cauchy matrix
``C[i][j] = 1/(x_i + y_j)`` with ``x_i = i`` and ``y_j = k + j``.  Every
square submatrix of a Cauchy matrix is nonsingular, so any k of the n
coded chunks recover the data.  Construction is a pure function of
(k, n); decoders rebuild it from the ``CONSTRUCTION_ID`` recorded in a
manifest instead of shipping matrix entries.  The generator is a plain
k x n uint8 array, built afresh by each plan that derives chunks
(core.plan_chunks).

Everything here is stateless and thread-safe.
"""

from __future__ import annotations

import numpy as np

from . import gf256
from .errors import ParameterError

CONSTRUCTION_ID = "gf256-cauchy-systematic-v1"

MAX_N = 255


def make_generator(k: int, n: int) -> np.ndarray:
    """Build the k x n systematic Cauchy generator of an (n, k) MDS code;
    entry [i, j] scales data row i into coded column j.

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
    return g


def decode_matrix(columns: list[int], g: np.ndarray) -> np.ndarray:
    """Inverse of the k x k submatrix of generator g formed by the given
    0-based columns.

    Row c of the result holds the coefficients applied to share c; a
    singular submatrix violates the MDS invariant and trips an assertion.
    """
    k, n = g.shape
    if len(columns) != k:
        raise ParameterError(f"need exactly {k} columns, got {len(columns)}")
    if len(set(columns)) != len(columns):
        raise ParameterError(f"duplicate column indices: {sorted(columns)}")
    for c in columns:
        if not 0 <= c < n:
            raise ParameterError(f"column {c} outside [0, {n})")
    try:
        return gf256.mat_inv(g[:, columns])
    except ZeroDivisionError as exc:  # impossible for a Cauchy-built G
        raise AssertionError(f"MDS submatrix {columns} singular") from exc
