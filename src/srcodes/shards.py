"""On-disk shard and manifest formats.

One shard file per node (see docs/FORMATS.md for the bit-exact layout):

    magic "SRCSHRD1" | u16 version | u16 node | u16 n | u16 k | u16 f |
    u16 reserved | u64 chunk_size | u64 stripe_count | u64 file_size |
    crc32 per chunk (u32, stripe-major slot-minor) | raw chunks in the
    same order

All integers little-endian.  Writing is deterministic: re-encoding the
same file yields bit-identical shards, so a rebuilt shard can be checked
against the manifest digest.  This module is the only one that reads or
writes shard files.  write_shard is the one shard writer, from a
node's payload array; every file goes through atomic_writer, so a crash
never leaves a torn file under its real name.  ShardReader reads chunk
slots out of shard files, only the ones asked for, a range of stripes
at a time.

The manifest is JSON with sorted keys: code parameters, the generator
construction id (decoders rebuild the matrix from it), original file
size and digest, and a digest per shard file.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import struct
import zlib
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from operator import index
from pathlib import Path

import numpy as np

from .core import ChunkId, CodedArray, SrcParams, layout
from .errors import IntegrityError, ParameterError, ShapeError
from .mds import CONSTRUCTION_ID

MAGIC = b"SRCSHRD1"
FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
DIGEST_ALGORITHM = "sha256"
_HEADER = struct.Struct("<8s6H3Q")
_IOV_MAX = os.sysconf("SC_IOV_MAX")


def shard_filename(node: int) -> str:
    return f"node_{node:03d}.shard"


def _header(params: SrcParams, node: int, stripe_count: int,
            file_size: int) -> bytes:
    return _HEADER.pack(MAGIC, FORMAT_VERSION, node, params.n, params.k,
                        params.f, 0, params.chunk_size, stripe_count,
                        file_size)


@dataclass(frozen=True)
class Manifest:
    params: SrcParams
    generator: str
    file_size: int
    stripe_count: int
    file_digest: str
    shard_digests: dict[int, str]   # node -> sha256 of the shard file

    def shard_path(self, directory: Path, node: int) -> Path:
        return Path(directory) / shard_filename(node)

    def to_json(self) -> str:
        doc = {
            "format": "src-manifest",
            "version": FORMAT_VERSION,
            "params": {"n": self.params.n, "k": self.params.k,
                       "f": self.params.f,
                       "chunk_size": self.params.chunk_size},
            "generator": self.generator,
            "file_size": self.file_size,
            "stripe_count": self.stripe_count,
            "digest_algorithm": DIGEST_ALGORITHM,
            "file_digest": self.file_digest,
            "shards": {str(node): {"file": shard_filename(node), "digest": d}
                       for node, d in sorted(self.shard_digests.items())},
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str | bytes) -> "Manifest":
        """Parse a manifest.  Malformed JSON, a missing key, a value of
        the wrong type, shards not keyed exactly 1..n, a digest that is
        not 64 lowercase hex characters, a negative file_size or a
        stripe_count that does not fit file_size raises IntegrityError."""
        try:
            doc = json.loads(text)
            if doc.get("format") != "src-manifest":
                raise IntegrityError("not a shard manifest")
            if doc.get("version") != FORMAT_VERSION:
                raise IntegrityError(
                    f"unsupported manifest version {doc.get('version')}")
            if doc.get("generator") != CONSTRUCTION_ID:
                raise IntegrityError(
                    f"unknown generator construction {doc.get('generator')!r}")
            if doc.get("digest_algorithm") != DIGEST_ALGORITHM:
                raise IntegrityError(
                    f"unknown digest algorithm {doc.get('digest_algorithm')!r}")
            p = doc["params"]
            params = SrcParams(n=index(p["n"]), k=index(p["k"]),
                               f=index(p["f"]),
                               chunk_size=index(p["chunk_size"]))
            file_size = index(doc["file_size"])
            stripe_count = index(doc["stripe_count"])
            if set(doc["shards"]) != {str(i) for i in range(1, params.n + 1)}:
                raise IntegrityError(
                    f"malformed manifest: shards must be keyed 1..{params.n}")
            digests = {int(node): entry["digest"]
                       for node, entry in doc["shards"].items()}
            if not all(re.fullmatch("[0-9a-f]{64}", d)   # TypeError if not text
                       for d in [doc["file_digest"], *digests.values()]):
                raise IntegrityError("malformed manifest: a digest is not "
                                     "64 lowercase hex characters")
            if file_size < 0:
                raise IntegrityError(
                    f"malformed manifest: negative file_size {file_size}")
            if stripe_count != -(-file_size // params.stripe_data_bytes):
                raise IntegrityError(
                    f"malformed manifest: stripe_count {stripe_count} does "
                    f"not fit file_size {file_size}")
            return cls(
                params=params,
                generator=doc["generator"],
                file_size=file_size,
                stripe_count=stripe_count,
                file_digest=doc["file_digest"],
                shard_digests=digests,
            )
        except ParameterError:   # a ValueError, but a usage error (exit 2)
            raise
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise IntegrityError(
                f"malformed manifest: {type(exc).__name__}: {exc}") from exc


@contextmanager
def atomic_writer(path: Path) -> Iterator:
    """Open a temporary sibling of path for writing and, when the block
    ends normally, os.replace it into place, so the path holds either its
    old bytes or all of the new ones; on error the temporary file is
    removed.  An OSError about the temporary file names path instead."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(tmp):
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def write_shard(directory: Path, params: SrcParams, node: int,
                file_size: int, payload: np.ndarray,
                digest: str | None = None) -> str:
    """Write one node's shard file from its payload, (stripes, f+1,
    chunk_size), which may be a strided view, and return the file's
    sha256.  The parts are hashed as they are written, never assembled
    in memory.  A rebuilt shard passes the manifest's digest; if the
    file does not match it, IntegrityError is raised and no file is
    left."""
    stripes = -(-file_size // params.stripe_data_bytes)
    if payload.shape != (stripes, params.f + 1, params.chunk_size):
        raise ShapeError(f"shard shape {payload.shape} does not match params")
    table = np.fromiter((zlib.crc32(chunk) for rows in payload
                         for chunk in rows), dtype="<u4")
    sha = hashlib.sha256()
    with atomic_writer(Path(directory) / shard_filename(node)) as fh:
        for part in chain([_header(params, node, stripes, file_size), table],
                          map(np.ascontiguousarray, payload)):
            sha.update(part)
            fh.write(part)
        if digest is not None and sha.hexdigest() != digest:
            raise IntegrityError(f"rebuilt shard for node {node} does not "
                                 "match the manifest digest")
    return sha.hexdigest()


def write_coded_array(array: CodedArray, directory: Path,
                      file_digest: str) -> Path:
    """Write one shard file per node plus the manifest; returns the
    manifest path.  file_digest is the sha256 of the original file."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    digests = {node: write_shard(directory, array.params, node,
                                 array.file_size, shard)
               for node, shard in sorted(array.shards.items())}
    manifest = Manifest(
        params=array.params,
        generator=CONSTRUCTION_ID,
        file_size=array.file_size,
        stripe_count=array.stripe_count,
        file_digest=file_digest,
        shard_digests=digests,
    )
    manifest_path = directory / MANIFEST_NAME
    with atomic_writer(manifest_path) as fh:
        fh.write(manifest.to_json().encode())
    return manifest_path


def load_manifest(path: Path) -> Manifest:
    return Manifest.from_json(Path(path).read_bytes())


class ShardReader:
    """Reads chunk slots out of the shard files of one manifest, a range
    of stripes at a time.

    A shard file is opened on the first read of one of its chunks, and
    checked then, once: its length and its 44-byte header must equal,
    byte for byte, what the manifest implies, and its CRC table is read.
    Each read_chunks call then reads only the wanted slots of the asked
    stripes, with os.preadv straight into preallocated arrays,
    neighbouring slots in one call (also across a stripe boundary), and
    checks each chunk read against its CRC-32.  Nothing else of the file
    is read, so the whole-shard digest is not checked here.  The files
    close when the reader's with block ends.
    """

    def __init__(self, manifest: Manifest, directory: Path):
        self.manifest = manifest
        self.directory = Path(directory)
        self._open: dict[int, tuple[int, np.ndarray]] = {}  # node -> fd, CRCs

    def __enter__(self) -> "ShardReader":
        return self

    def __exit__(self, *exc) -> None:
        for fd, _ in self._open.values():
            os.close(fd)
        self._open.clear()

    def read_chunks(self, wanted: Iterable[ChunkId], start: int = 0,
                    stop: int | None = None
                    ) -> tuple[dict[ChunkId, np.ndarray],
                               dict[ChunkId, IntegrityError]]:
        """The wanted chunks of stripes start to stop (every stripe by
        default), each (stop - start, chunk_size), that pass their
        checks; and the chunks found unusable, each with the error
        naming its shard file: every chunk of a shard whose length or
        header is wrong, or a wanted chunk that fails its CRC in any of
        these stripes.  A shard file must exist."""
        m = self.manifest
        stop = m.stripe_count if stop is None else stop
        lay = layout(m.params)
        by_node: dict[int, list[ChunkId]] = {}
        for c in sorted(set(wanted)):
            by_node.setdefault(lay.chunk_location(c), []).append(c)
        chunks: dict[ChunkId, np.ndarray] = {}
        failed: dict[ChunkId, IntegrityError] = {}
        for node, ids in sorted(by_node.items()):
            slots = lay.node_chunks(node)
            try:
                got, crcs = self._read_slots(node, ids, start, stop)
            except IntegrityError as exc:   # the whole shard is unusable
                failed.update((c, exc) for c in slots)
                continue
            bad = [c for c in ids if any(
                zlib.crc32(row) != crc
                for row, crc in zip(got[c], crcs[:, slots.index(c)]))]
            if bad:
                exc = IntegrityError(
                    f"shard {shard_filename(node)}: "
                    f"{', '.join(c.label(m.params.f) for c in bad)} "
                    f"fail{'s' if len(bad) == 1 else ''} the CRC-32 check")
                failed.update((c, exc) for c in bad)
            chunks.update((c, got[c]) for c in ids if c not in bad)
        return chunks, failed

    def _shard(self, node: int) -> tuple[int, np.ndarray]:
        """The open file of a shard and its CRC table, (stripe_count,
        f+1); IntegrityError if its length or header is not the
        manifest's."""
        if node in self._open:
            return self._open[node]
        p, stripes = self.manifest.params, self.manifest.stripe_count
        name = shard_filename(node)
        crc_end = _HEADER.size + 4 * stripes * (p.f + 1)
        expected = crc_end + stripes * (p.f + 1) * p.chunk_size
        fd = os.open(self.manifest.shard_path(self.directory, node),
                     os.O_RDONLY)
        try:
            size = os.fstat(fd).st_size
            if size != expected:
                raise IntegrityError(
                    f"shard {name} is {size} bytes, expected {expected}")
            head = os.pread(fd, crc_end, 0)
            if len(head) != crc_end:
                raise IntegrityError(f"shard {name} shrank while read")
            if head[:_HEADER.size] != _header(p, node, stripes,
                                               self.manifest.file_size):
                raise IntegrityError(
                    f"shard {name} header disagrees with manifest")
        except BaseException:
            os.close(fd)
            raise
        table = np.frombuffer(head, dtype="<u4", offset=_HEADER.size)
        self._open[node] = fd, table.reshape(stripes, p.f + 1)
        return self._open[node]

    def _read_slots(self, node: int, ids: list[ChunkId], start: int,
                    stop: int
                    ) -> tuple[dict[ChunkId, np.ndarray], np.ndarray]:
        """One shard file's wanted chunks of stripes start to stop, and
        the CRC table rows of those stripes."""
        fd, table = self._shard(node)
        p = self.manifest.params
        slots = layout(p).node_chunks(node)
        crc_end = _HEADER.size + table.nbytes
        got = {c: np.empty((stop - start, p.chunk_size), dtype=np.uint8)
               for c in ids}
        # payload positions in file order; neighbours share one preadv
        wanted = sorted((s * len(slots) + slots.index(c), s - start, c)
                        for s in range(start, stop) for c in ids)
        runs: list[list[tuple[int, int, ChunkId]]] = []
        for pos in wanted:
            if runs and runs[-1][-1][0] + 1 == pos[0] \
                    and len(runs[-1]) < _IOV_MAX:
                runs[-1].append(pos)
            else:
                runs.append([pos])
        for run in runs:
            if os.preadv(fd, [got[c][i] for _, i, c in run],
                         crc_end + run[0][0] * p.chunk_size) \
                    != len(run) * p.chunk_size:
                raise IntegrityError(
                    f"shard {shard_filename(node)} shrank while read")
        return got, table[start:stop]
