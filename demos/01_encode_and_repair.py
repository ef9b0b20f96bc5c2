#!/usr/bin/env python3
"""Walk through the (4,2,2) code: encode a small file, look at the node
layout, lose a node, repair it by XOR, then rebuild the file from just
two survivors."""

import numpy as np

from srcodes import (ChunkId, SrcParams, chunks_from_shards, encode,
                     reconstruct)
from srcodes.repair import describe

params = SrcParams(n=4, k=2, f=2, chunk_size=8)
rng = np.random.default_rng(0)
file_bytes = rng.integers(0, 256, params.stripe_data_bytes, dtype=np.uint8).tobytes()

print("== encoding one stripe over 4 nodes ==")
array = encode(file_bytes, params)
for node in range(1, 5):
    ids = ", ".join(c.label(params.f) for c in params.node_chunks(node))
    print(f"  node {node}: {ids}")
print("each node holds one chunk of each part plus one parity chunk,")
print("and no two chunks on a node share a subscript.\n")

print("== losing node 1 ==")
for line in describe(params, 1, array.stripe_count):
    print(" ", line)

survivors = {node: array.shards[node] for node in (2, 3, 4)}
restored = chunks_from_shards(params, survivors, params.node_chunks(1))
same = np.array_equal(restored, array.shards[1])
print(f"\nrestored shard identical to the lost one: {same}")

print("\n== rebuilding the file from nodes 2 and 3 only ==")
two = {2: array.shards[2], 3: array.shards[3]}
out = reconstruct(two, params, array.file_size)
print(f"round trip exact: {out == file_bytes}")

print("\n== a single chunk read while its node is down ==")
print("(XORed from its helpers on nodes 4 and 3; with node 4 down too, it is")
print(" derived from the k = 2 nodes left; nothing is written back)")
for down in ({1}, {1, 4}):
    live = {i: s for i, s in array.shards.items() if i not in down}
    chunk = chunks_from_shards(params, live, [ChunkId(1, 1)])[:, 0]
    print(f"  nodes {sorted(down)} down, part1[1] correct: "
          f"{np.array_equal(chunk, array.shards[1][:, 0])}")
