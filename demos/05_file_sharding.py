#!/usr/bin/env python3
"""Shard a file to disk with manifest and checksums, delete a shard,
repair it from its look-up helpers, corrupt another shard, and decode the
file back from the intact ones - the same workflow the `srcodes` CLI
drives, shown through the library API."""

import hashlib
import tempfile
from pathlib import Path

import numpy as np

from srcodes import (SrcParams, chunks_from_shards, encode, layout,
                     node_repair_plan, reconstruct)
from srcodes.shards import (load_manifest, load_shards, shard_filename,
                            write_coded_array, write_shard)


def say_skipped(node, exc):
    print(f"  skipped: {exc}")


workdir = Path(tempfile.mkdtemp(prefix="srcodes-demo-"))
params = SrcParams(n=10, k=6, f=2, chunk_size=64 * 1024)
data = np.random.default_rng(7).integers(0, 256, 3_000_000,
                                         dtype=np.uint8).tobytes()

print(f"sharding {len(data):,} bytes into {params.n} shard files "
      f"under {workdir}")
array = encode(data, params)
manifest_path = write_coded_array(array, workdir,
                                  hashlib.sha256(data).hexdigest())
manifest = load_manifest(manifest_path)
shard_path = workdir / shard_filename(3)
print(f"stripe_count={manifest.stripe_count}, shard file size "
      f"{shard_path.stat().st_size:,} bytes "
      f"(header + CRCs + {manifest.stripe_count} x {params.f + 1} chunks)")

print("\ndeleting node 3's shard, then repairing it from 4 helper disks")
shard_path.unlink()
plan = node_repair_plan(params, 3)
helpers = sorted(plan.disk_access_set)
rebuilt = chunks_from_shards(
    params, load_shards(manifest, workdir, helpers, len(helpers), say_skipped),
    layout(params).node_chunks(3))
# write_shard refuses bytes whose digest differs from the manifest's
write_shard(workdir, manifest, 3, rebuilt, manifest.shard_digests[3])
print("rebuilt shard digest matches manifest: True")

print("\ncorrupting node 1's shard, then decoding from the first 6 intact "
      "shards")
blob = bytearray((workdir / shard_filename(1)).read_bytes())
blob[-1] ^= 0xFF
(workdir / shard_filename(1)).write_bytes(bytes(blob))
shards = load_shards(manifest, workdir, sorted(manifest.shard_digests),
                     params.k, say_skipped)
print(f"  read nodes {sorted(shards)}")
out = reconstruct(shards, params, manifest.file_size)
print(f"file digest matches: "
      f"{hashlib.sha256(out).hexdigest() == manifest.file_digest}")
print(f"\n(the CLI equivalent: srcodes encode/repair/decode; shards left "
      f"in {workdir})")
