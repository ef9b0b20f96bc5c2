"""The (n, k, f) simple-regenerating-code construction.

A stripe holds f*k data chunks.  The stripe is cut into f parts of k
chunks; each part is encoded with the same (n, k) MDS generator into n
coded chunks, and a parity chunk per subscript is the XOR of the f coded
chunks sharing that subscript.  The (f+1)*n chunks of a stripe are placed
circularly so that node i stores

    [ part 1, subscript i ]
    [ part 2, subscript i(+)1 ]
    ...
    [ part f, subscript i(+)(f-1) ]
    [ parity, subscript i(+)f ]

where (+) is 1-based wrap-around addition on {1..n}.  No two chunks on a
node share a subscript (this needs f+1 <= n), which is what makes every
chunk repairable by XORing the f other chunks with its subscript.

Multi-stripe files lay every stripe out identically; a node's shard is
its f+1 chunk slots concatenated stripe by stripe.  Encoding and
reconstruction are pure per stripe, so callers may process stripes
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import gf256
from .errors import InsufficientDataError, ParameterError, ShapeError
from .mds import GeneratorMatrix, decode_matrix, make_generator


def ring_add(i: int, delta: int, n: int) -> int:
    """1-based wrap-around addition on {1..n}; ring_add(n, 1, n) == 1."""
    return (i - 1 + delta) % n + 1


def ring_sub(i: int, delta: int, n: int) -> int:
    """1-based wrap-around subtraction; ring_sub(1, 1, n) == n."""
    return (i - 1 - delta) % n + 1


@dataclass(frozen=True, order=True)
class ChunkId:
    """Coordinate of one chunk in a stripe: part in on 1..f+1 (f+1 is the
    parity part) and subscript in 1..n."""

    part: int
    subscript: int

    def label(self, f: int) -> str:
        if self.part == f + 1:
            return f"parity[{self.subscript}]"
        return f"part{self.part}[{self.subscript}]"


@dataclass(frozen=True)
class SrcParams:
    """Code triple (n, k, f) plus the chunk size in bytes.

    f+1 <= n is required (slightly stronger than f <= n): the f
    same-subscript helpers of any chunk must all live off the chunk's own
    node, which fails when f+1 > n.
    """

    n: int
    k: int
    f: int
    chunk_size: int

    def __post_init__(self) -> None:
        if not 1 <= self.k < self.n <= 255:
            raise ParameterError(
                f"need 1 <= k < n <= 255, got n={self.n}, k={self.k}")
        if self.f < 1:
            raise ParameterError(f"need f >= 1, got f={self.f}")
        if self.f + 1 > self.n:
            raise ParameterError(
                f"need f+1 <= n for repairable placement, got f={self.f}, n={self.n}")
        if self.chunk_size < 1:
            raise ParameterError(f"chunk_size must be >= 1, got {self.chunk_size}")

    @property
    def parity_part(self) -> int:
        return self.f + 1

    @property
    def chunks_per_node(self) -> int:
        return self.f + 1

    @property
    def stripe_data_bytes(self) -> int:
        """Payload bytes carried by one stripe."""
        return self.f * self.k * self.chunk_size

    @property
    def stripe_stored_bytes(self) -> int:
        return (self.f + 1) * self.n * self.chunk_size

    def generator(self) -> GeneratorMatrix:
        return _generator(self.k, self.n)


@lru_cache(maxsize=64)
def _generator(k: int, n: int) -> GeneratorMatrix:
    return make_generator(k, n)


class StripeLayout:
    """Bijection between the (f+1)*n chunk ids of a stripe and the
    (f+1)*n node slots."""

    def __init__(self, params: SrcParams):
        self.params = params

    def node_chunks(self, node: int) -> list[ChunkId]:
        """Chunk ids stored on a node, in slot order (parts 1..f, parity)."""
        p = self.params
        if not 1 <= node <= p.n:
            raise ParameterError(f"node {node} outside [1, {p.n}]")
        ids = [ChunkId(l, ring_add(node, l - 1, p.n)) for l in range(1, p.f + 1)]
        ids.append(ChunkId(p.parity_part, ring_add(node, p.f, p.n)))
        return ids

    def chunk_location(self, chunk: ChunkId) -> int:
        """Node index storing a chunk (inverse of node_chunks)."""
        p = self.params
        if not 1 <= chunk.part <= p.parity_part:
            raise ParameterError(f"part {chunk.part} outside [1, {p.parity_part}]")
        if not 1 <= chunk.subscript <= p.n:
            raise ParameterError(f"subscript {chunk.subscript} outside [1, {p.n}]")
        if chunk.part == p.parity_part:
            return ring_sub(chunk.subscript, p.f, p.n)
        return ring_sub(chunk.subscript, chunk.part - 1, p.n)

    def slot_of(self, chunk: ChunkId) -> int:
        """0-based slot index of a chunk within its node's shard."""
        return chunk.part - 1


def layout(params: SrcParams) -> StripeLayout:
    return StripeLayout(params)


@dataclass(frozen=True)
class CodedArray:
    """Encoded form of a file: one shard per node.

    ``shards[i]`` is a uint8 array of shape (stripe_count, f+1,
    chunk_size) whose slot axis follows StripeLayout.node_chunks(i).
    Immutable once built.
    """

    params: SrcParams
    stripe_count: int
    file_size: int
    shards: dict[int, np.ndarray]

    def node_shard(self, node: int) -> np.ndarray:
        return self.shards[node]

    def chunk(self, stripe: int, chunk: ChunkId) -> np.ndarray:
        lay = layout(self.params)
        return self.shards[lay.chunk_location(chunk)][stripe, lay.slot_of(chunk)]

    def total_stored_bytes(self) -> int:
        return sum(s.nbytes for s in self.shards.values())


def _pad_to_stripes(file_bytes: bytes, params: SrcParams) -> tuple[np.ndarray, int]:
    size = len(file_bytes)
    stripe_bytes = params.stripe_data_bytes
    stripes = (size + stripe_bytes - 1) // stripe_bytes
    buf = np.zeros(stripes * stripe_bytes, dtype=np.uint8)
    buf[:size] = np.frombuffer(file_bytes, dtype=np.uint8)
    return buf.reshape(stripes, params.f, params.k, params.chunk_size), stripes


def encode(file_bytes: bytes, params: SrcParams) -> CodedArray:
    """Encode a byte string into the n-node coded array.

    The file is zero-padded to whole stripes; the true length is kept so
    reconstruct() can strip the padding.  An empty file yields zero
    stripes and empty shards.
    """
    data, stripes = _pad_to_stripes(file_bytes, params)
    n, k, f, cs = params.n, params.k, params.f, params.chunk_size
    g = params.generator()

    # coded[s, l, m] = chunk of part l+1, subscript m+1, stripe s
    coded = np.zeros((stripes, f, n, cs), dtype=np.uint8)
    coded[:, :, :k] = data
    gf256.addmul_rows(np.moveaxis(coded[:, :, k:], 2, 0), g.entries[:, k:].T,
                      np.moveaxis(data, 2, 0))
    parity = np.bitwise_xor.reduce(coded, axis=1)  # parity[s, m]

    shards: dict[int, np.ndarray] = {}
    for node in range(1, n + 1):
        shard = np.empty((stripes, f + 1, cs), dtype=np.uint8)
        for l in range(1, f + 1):
            shard[:, l - 1] = coded[:, l - 1, ring_add(node, l - 1, n) - 1]
        shard[:, f] = parity[:, ring_add(node, f, n) - 1]
        shards[node] = shard
    return CodedArray(params=params, stripe_count=stripes,
                      file_size=len(file_bytes), shards=shards)


def _check_shards(shards: dict[int, np.ndarray], params: SrcParams) -> int:
    stripes = None
    for node, arr in shards.items():
        if not 1 <= node <= params.n:
            raise ParameterError(f"node {node} outside [1, {params.n}]")
        if arr.ndim != 3 or arr.shape[1:] != (params.f + 1, params.chunk_size):
            raise ShapeError(
                f"shard of node {node} has shape {arr.shape}, expected "
                f"(stripes, {params.f + 1}, {params.chunk_size})")
        if stripes is None:
            stripes = arr.shape[0]
        elif arr.shape[0] != stripes:
            raise ShapeError("shards disagree on stripe count")
    return 0 if stripes is None else stripes


def reconstruct(shards: dict[int, np.ndarray], params: SrcParams,
                file_size: int) -> bytes:
    """Rebuild the original file from the shards of any k distinct nodes.

    Parity chunks are never read; each of the f parts is decoded from the
    k coded chunks the chosen nodes hold for it.
    """
    if len(shards) < params.k:
        raise InsufficientDataError(
            f"need shards from {params.k} nodes, got {len(shards)}")
    stripes = _check_shards(shards, params)
    nodes = sorted(shards)[:params.k]
    n, k, f, cs = params.n, params.k, params.f, params.chunk_size
    g = params.generator()

    if stripes * params.stripe_data_bytes < file_size:
        raise ShapeError(
            f"{stripes} stripes cannot hold file_size={file_size}")

    data = np.zeros((stripes, f, k, cs), dtype=np.uint8)
    for l in range(1, f + 1):
        # node i holds part l at subscript i (+) (l-1); columns are 0-based
        columns = [ring_add(i, l - 1, n) - 1 for i in nodes]
        inv = decode_matrix(columns, g)
        gf256.addmul_rows(np.moveaxis(data[:, l - 1], 1, 0), inv.T,
                          [shards[node][:, l - 1] for node in nodes])
    return data.reshape(-1).tobytes()[:file_size]
