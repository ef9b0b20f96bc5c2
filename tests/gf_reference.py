"""Scalar GF(256) reference for the tests.

Built only on its own shift-and-XOR multiply modulo x^8+x^4+x^3+x^2+1
(0x11d), one table look-up per byte product, so it shares neither code
nor tables with srcodes.gf256, whose log/antilog tables and kernels it
is used to check.  The reference encoder builds its own generator and
placement, so it shares no code with srcodes.core or srcodes.mds
either.  Sized for small test inputs.
"""

import numpy as np


def _shift_xor_mul(a, b):
    """a*b by schoolbook multiplication, reducing modulo 0x11d as the
    product of a and x^i passes degree 8."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11D
        b >>= 1
    return out


# every product, made once so the property tests stay fast
_MUL = [[_shift_xor_mul(a, b) for b in range(256)] for a in range(256)]


def gf_mul(a, b):
    """a*b in GF(256)."""
    return _MUL[a][b]


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


def gf_inverse(a):
    """The x with a*x == 1, found by search."""
    return next(x for x in range(1, 256) if gf_mul(a, x) == 1)


def gf_rank(rows):
    """Rank over GF(256) of equal-length rows of ints, by Gaussian
    elimination."""
    rows = [list(row) for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = gf_inverse(rows[rank][col])
        rows[rank] = [gf_mul(inv, x) for x in rows[rank]]
        for i in range(rank + 1, len(rows)):
            scale = rows[i][col]
            rows[i] = [x ^ gf_mul(scale, y)
                       for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def cauchy_generator(k, n):
    """The systematic generator [I | C], C[i, j] = 1 / (i + (k + j)),
    built from its definition."""
    g = np.zeros((k, n), dtype=np.uint8)
    for i in range(k):
        g[i, i] = 1
        for j in range(n - k):
            g[i, k + j] = gf_inverse(i ^ (k + j))
    return g


def chunk_row(n, k, f, part, subscript):
    """The coefficients of chunk part[subscript] over the f*k data
    symbols of a stripe, part by part: part l <= f holds generator column
    subscript in its own k places, the parity part f+1 in every part's."""
    column = [int(x) for x in cauchy_generator(k, n)[:, subscript - 1]]
    return [x if part in (l, f + 1) else 0
            for l in range(1, f + 1) for x in column]


def reference_encode(file_bytes, n, k, f, chunk_size):
    """The (n, k, f) code from the paper's definition.

    Returns (chunks, shards): chunks[stripe, part - 1, subscript - 1] for
    parts 1..f+1 (f+1 is the parity part), and shards[node] of shape
    (stripes, f+1, chunk_size), node i holding part l at subscript
    i + l - 1 and the parity at subscript i + f, wrapping on 1..n.
    """
    stripe = f * k * chunk_size
    stripes = -(-len(file_bytes) // stripe)
    data = np.zeros(stripes * stripe, dtype=np.uint8)
    data[:len(file_bytes)] = np.frombuffer(file_bytes, dtype=np.uint8)
    data = data.reshape(stripes, f, k, chunk_size)
    g = cauchy_generator(k, n)
    chunks = np.zeros((stripes, f + 1, n, chunk_size), dtype=np.uint8)
    for s in range(stripes):
        for part in range(f):
            chunks[s, part] = gf_matmul(g.T, data[s, part])
            chunks[s, f] ^= chunks[s, part]

    def wrap(i):
        return (i - 1) % n + 1

    shards = {node: np.stack([chunks[:, part, wrap(node + part) - 1]
                              for part in range(f + 1)], axis=1)
              for node in range(1, n + 1)}
    return chunks, shards
