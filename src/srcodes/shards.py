"""On-disk shard and manifest formats.

One shard file per node (see docs/FORMATS.md for the bit-exact layout):

    magic "SRCSHRD1" | u16 version | u16 node | u16 n | u16 k | u16 f |
    u16 reserved | u64 chunk_size | u64 stripe_count | u64 file_size |
    crc32 per chunk (u32, stripe-major slot-minor) | raw chunks in the
    same order

All integers little-endian.  Writing is deterministic: re-encoding the
same file yields bit-identical shards, so a rebuilt shard can be checked
against the manifest digest.

The manifest is JSON with sorted keys: code parameters, the generator
construction id (decoders rebuild the matrix from it), original file
size and digest, and a digest per shard file.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from dataclasses import dataclass
from operator import index
from pathlib import Path

import numpy as np

from .core import CodedArray, SrcParams
from .errors import IntegrityError, ParameterError, ShapeError
from .mds import CONSTRUCTION_ID

MAGIC = b"SRCSHRD1"
FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
DIGEST_ALGORITHM = "sha256"
_HEADER = struct.Struct("<8s6H3Q")


def shard_filename(node: int) -> str:
    return f"node_{node:03d}.shard"


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def shard_bytes(params: SrcParams, node: int, stripe_count: int,
                file_size: int, shard: np.ndarray) -> bytes:
    """Serialize one node's chunk array to the shard file format."""
    if shard.shape != (stripe_count, params.f + 1, params.chunk_size):
        raise ShapeError(f"shard shape {shard.shape} does not match params")
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, node, params.n, params.k,
                          params.f, 0, params.chunk_size, stripe_count,
                          file_size)
    flat = shard.reshape(stripe_count * (params.f + 1), params.chunk_size)
    crcs = b"".join(struct.pack("<I", zlib.crc32(chunk.tobytes()))
                    for chunk in flat)
    return header + crcs + flat.tobytes()


def parse_shard(blob: bytes, verify: bool = True
                ) -> tuple[SrcParams, int, int, int, np.ndarray]:
    """Parse a shard file; returns (params, node, stripe_count, file_size,
    chunk array).  Raises IntegrityError on bad magic/version/CRC."""
    if len(blob) < _HEADER.size:
        raise IntegrityError("shard file shorter than its header")
    magic, version, node, n, k, f, _, chunk_size, stripes, file_size = \
        _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise IntegrityError(f"bad shard magic {magic!r}")
    if version != FORMAT_VERSION:
        raise IntegrityError(f"unsupported shard format version {version}")
    params = SrcParams(n=n, k=k, f=f, chunk_size=chunk_size)
    chunk_count = stripes * (f + 1)
    crc_end = _HEADER.size + 4 * chunk_count
    expected = crc_end + chunk_count * chunk_size
    if len(blob) != expected:
        raise IntegrityError(
            f"shard file is {len(blob)} bytes, expected {expected}")
    flat = np.frombuffer(blob[crc_end:], dtype=np.uint8).reshape(
        chunk_count, chunk_size)
    if verify:
        for i in range(chunk_count):
            (crc,) = struct.unpack_from("<I", blob, _HEADER.size + 4 * i)
            if zlib.crc32(flat[i].tobytes()) != crc:
                raise IntegrityError(f"chunk {i} fails its CRC")
    shard = flat.reshape(stripes, f + 1, chunk_size).copy()
    return params, node, stripes, file_size, shard


def read_shard(path: Path, verify: bool = True
               ) -> tuple[SrcParams, int, int, int, np.ndarray]:
    return parse_shard(Path(path).read_bytes(), verify=verify)


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
        """Parse a manifest.  Malformed JSON, a missing key or a value of
        the wrong type raises IntegrityError."""
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
            return cls(
                params=params,
                generator=doc["generator"],
                file_size=index(doc["file_size"]),
                stripe_count=index(doc["stripe_count"]),
                file_digest=doc["file_digest"],
                shard_digests={int(node): entry["digest"]
                               for node, entry in doc["shards"].items()},
            )
        except ParameterError:   # a ValueError, but a usage error (exit 2)
            raise
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise IntegrityError(
                f"malformed manifest: {type(exc).__name__}: {exc}") from exc


def write_coded_array(array: CodedArray, directory: Path,
                      file_digest: str) -> Path:
    """Write one shard file per node plus the manifest; returns the
    manifest path.  file_digest is the sha256 of the original file."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    digests = {}
    for node in range(1, array.params.n + 1):
        blob = shard_bytes(array.params, node, array.stripe_count,
                           array.file_size, array.shards[node])
        (directory / shard_filename(node)).write_bytes(blob)
        digests[node] = _digest(blob)
    manifest = Manifest(
        params=array.params,
        generator=CONSTRUCTION_ID,
        file_size=array.file_size,
        stripe_count=array.stripe_count,
        file_digest=file_digest,
        shard_digests=digests,
    )
    manifest_path = directory / MANIFEST_NAME
    manifest_path.write_text(manifest.to_json())
    return manifest_path


def load_manifest(path: Path) -> Manifest:
    return Manifest.from_json(Path(path).read_bytes())


def load_shard_checked(manifest: Manifest, directory: Path, node: int
                       ) -> np.ndarray:
    """Read one shard, verify params, node id, and manifest digest."""
    path = manifest.shard_path(directory, node)
    blob = path.read_bytes()
    if _digest(blob) != manifest.shard_digests[node]:
        raise IntegrityError(f"shard {path.name} does not match its manifest digest")
    params, got_node, stripes, file_size, shard = parse_shard(blob)
    if params != manifest.params or got_node != node \
            or stripes != manifest.stripe_count \
            or file_size != manifest.file_size:
        raise IntegrityError(f"shard {path.name} header disagrees with manifest")
    return shard


def available_nodes(manifest: Manifest, directory: Path) -> list[int]:
    """Nodes whose shard files exist in the directory."""
    directory = Path(directory)
    return [node for node in sorted(manifest.shard_digests)
            if manifest.shard_path(directory, node).exists()]
