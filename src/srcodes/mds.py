"""Systematic (n, k) MDS code over GF(256), used as the outer pre-code.

The generator is ``[I | C]`` where C is the k x (n-k) Cauchy matrix
``C[i][j] = 1/(x_i + y_j)`` with ``x_i = i`` and ``y_j = k + j``.  Every
square submatrix of a Cauchy matrix is nonsingular, so any k of the n
coded chunks recover the data.  Construction is a pure function of
(k, n); decoders rebuild it from the ``CONSTRUCTION_ID`` recorded in a
manifest instead of shipping matrix entries.  The generator is a plain
k x n uint8 array, built afresh by each plan that derives chunks
(core.plan_chunks), which finds its coefficients with gf256.solve.

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
    # x_i + y_j = i ^ (k + j) is never 0, as i < k
    g[:, k:] = gf256.INV[np.arange(k)[:, None] ^ np.arange(k, n)]
    return g

