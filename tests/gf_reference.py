"""Scalar GF(256) reference for the tests.

Built only on gf256.gf_mul, one call per byte product, so it shares no
code with the buffer kernels (addmul_buf, addmul_rows) it is used to
check.  Sized for small test inputs.
"""

import numpy as np

from srcodes.gf256 import gf_mul


def gf_matmul(a, b):
    """Product of a (r x c) and b (c x ...) over GF(256); b's trailing
    axes are carried through."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    flat = b.reshape(b.shape[0], -1)
    out = np.zeros((a.shape[0], flat.shape[1]), dtype=np.uint8)
    for i in range(a.shape[0]):
        for x in range(flat.shape[1]):
            acc = 0
            for j in range(a.shape[1]):
                acc ^= gf_mul(int(a[i, j]), int(flat[j, x]))
            out[i, x] = acc
    return out.reshape((a.shape[0],) + b.shape[1:])
