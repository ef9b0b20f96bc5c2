#!/usr/bin/env python3
"""Shard a file to disk with manifest and checksums, delete a shard,
repair it by reading only its look-up helpers' planned chunks a batch
of stripes at a time, corrupt another shard, and decode the file back
from the intact chunks - the same workflow the `srcodes` CLI drives,
through the same three calls: shards.write_shard_set, repair_shard and
decode_file.  The last two return the shards.ShardReader they read
through, which plans, reads, checks and plans again."""

import io
import tempfile
from pathlib import Path

import numpy as np

from srcodes import SrcParams
from srcodes.shards import (decode_file, load_manifest, repair_shard,
                            shard_filename, write_shard_set)

workdir = Path(tempfile.mkdtemp(prefix="srcodes-demo-"))
params = SrcParams(n=10, k=6, f=2, chunk_size=64 * 1024)
data = np.random.default_rng(7).integers(0, 256, 3_000_000,
                                         dtype=np.uint8).tobytes()

print(f"sharding {len(data):,} bytes into {params.n} shard files "
      f"under {workdir}")
# encode a batch of stripe parts at a time; each node's chunks go to its
# shard file as they come, and the manifest follows once every file is
# sealed
manifest_path = write_shard_set(workdir, params, io.BytesIO(data),
                                len(data))
manifest = load_manifest(manifest_path)
stripes = manifest.stripe_count
shard_path = workdir / shard_filename(3)
print(f"stripe_count={stripes}, shard file size "
      f"{shard_path.stat().st_size:,} bytes "
      f"(header + {stripes} x {params.f + 1} chunks + CRCs)")

print("\ndeleting node 3's shard, then repairing it from its helpers")
shard_path.unlink()
# one plan for every stripe, made on the shard files that exist; the
# rebuilt shard is kept only if its digest is the manifest's
reads = repair_shard(manifest, workdir, 3).plan.reads
print(f"  read {len(reads)} chunks per stripe from nodes "
      f"{sorted({params.chunk_location(c) for c in reads})}, "
      f"{len(reads) * stripes * params.chunk_size:,} bytes")
print("rebuilt shard digest matches manifest: True")

print("\ncorrupting node 1's first data chunk, then decoding")
blob = bytearray((workdir / shard_filename(1)).read_bytes())
blob[44] ^= 0xFF   # the first payload byte follows the 44-byte header
(workdir / shard_filename(1)).write_bytes(bytes(blob))
# the reader names the shard it skips on stderr and plans again; the
# decoded file takes its name only if its digest is the manifest's
decoded = workdir / "decoded.bin"
reader = decode_file(manifest, workdir, decoded)
print(f"  skipped {', '.join(reader.skipped)}; part1[1] is XORed from its "
      f"helpers: {len(reader.plan.reads)} chunks read per stripe")
print(f"decoded file matches the input: {decoded.read_bytes() == data}")
print(f"\n(the CLI equivalent: srcodes encode/repair/decode; shards left "
      f"in {workdir})")
