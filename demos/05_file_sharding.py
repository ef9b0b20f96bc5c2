#!/usr/bin/env python3
"""Shard a file to disk with manifest and checksums, delete a shard,
repair it by reading only its look-up helpers' planned chunks a batch
of stripes at a time, corrupt another shard, and decode the file back
from the intact chunks - the same workflow the `srcodes` CLI drives,
shown through the library API."""

import hashlib
import io
import tempfile
from pathlib import Path

import numpy as np

from srcodes import SrcParams, data_chunks, layout, plan_chunks, run_plan
from srcodes.core import encode_from
from srcodes.shards import (ShardReader, ShardWriter, load_manifest,
                            shard_filename, write_shard_set)

workdir = Path(tempfile.mkdtemp(prefix="srcodes-demo-"))
params = SrcParams(n=10, k=6, f=2, chunk_size=64 * 1024)
lay = layout(params)
data = np.random.default_rng(7).integers(0, 256, 3_000_000,
                                         dtype=np.uint8).tobytes()

print(f"sharding {len(data):,} bytes into {params.n} shard files "
      f"under {workdir}")
# encode two stripes at a time; each node's rows go to its shard file as
# they come, and the manifest follows once every file is sealed
batches = encode_from(io.BytesIO(data).readinto, len(data), params, 2)
manifest_path = write_shard_set(workdir, params, len(data), batches,
                                lambda: hashlib.sha256(data).hexdigest())
manifest = load_manifest(manifest_path)
stripes = manifest.stripe_count
shard_path = workdir / shard_filename(3)
print(f"stripe_count={stripes}, shard file size "
      f"{shard_path.stat().st_size:,} bytes "
      f"(header + {stripes} x {params.f + 1} chunks + CRCs)")

print("\ndeleting node 3's shard, then repairing it from its helpers")
shard_path.unlink()
everything = {c for node in range(1, params.n + 1) if node != 3
              for c in lay.node_chunks(node)}
targets = lay.node_chunks(3)
plan = plan_chunks(params, everything, targets)   # one plan, every stripe
batch = np.empty((2, params.f + 1, params.chunk_size), dtype=np.uint8)
read = 0
# ShardWriter adds the header and CRC table as the batches come, and
# refuses a shard whose digest differs from the manifest's
with ShardReader(manifest, workdir) as reader, \
        ShardWriter(workdir, params, 3, manifest.file_size) as writer:
    for start in range(0, stripes, 2):   # two stripes per batch
        stop = min(start + 2, stripes)
        chunks, failed = reader.read_chunks(plan.reads, start, stop)
        read += sum(a.nbytes for a in chunks.values())
        writer.write(run_plan(plan, chunks, batch[:stop - start]))
    writer.seal(manifest.shard_digests[3])
print(f"  read {len(plan.reads)} chunks per stripe from nodes "
      f"{sorted({lay.chunk_location(c) for c in plan.reads})}, "
      f"{read:,} bytes, in batches of 2 stripes")
print("rebuilt shard digest matches manifest: True")

print("\ncorrupting node 1's first data chunk, then decoding")
blob = bytearray((workdir / shard_filename(1)).read_bytes())
blob[44] ^= 0xFF   # the first payload byte follows the 44-byte header
(workdir / shard_filename(1)).write_bytes(bytes(blob))
available = {c for node in range(1, params.n + 1)
             for c in lay.node_chunks(node)}
targets = data_chunks(params)
plan = plan_chunks(params, available, targets)
with ShardReader(manifest, workdir) as reader:
    chunks, failed = reader.read_chunks(plan.reads)   # every stripe at once
    for exc in set(failed.values()):
        print(f"  skipped: {exc}")
    # plan again without the failed chunk; read only what is not yet held
    plan = plan_chunks(params, available - set(failed), targets)
    more, _ = reader.read_chunks([c for c in plan.reads if c not in chunks])
chunks.update(more)
print(f"  part1[1] is XORed from its helpers: {len(more)} more chunk read")
out = run_plan(plan, chunks, np.empty((stripes, len(targets),
                                       params.chunk_size), dtype=np.uint8))
out = out.reshape(-1)[:len(data)]
print(f"file digest matches: "
      f"{hashlib.sha256(out).hexdigest() == manifest.file_digest}")
print(f"\n(the CLI equivalent: srcodes encode/repair/decode; shards left "
      f"in {workdir})")
