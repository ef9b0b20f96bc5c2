"""On-disk shard and manifest formats.

One shard file per node (see docs/FORMATS.md for the bit-exact layout).
Version 2, which encode writes:

    magic "SRCSHRD1" | u16 version | u16 node | u16 n | u16 k | u16 f |
    u16 reserved | u64 chunk_size | u64 stripe_count | u64 file_size |
    raw chunks, stripe-major slot-minor | crc32 per chunk (u32, same order)

Version 1 has the CRC table before the chunks; a v1 set stays readable
and is repaired as v1.  All integers little-endian.  Writing is
deterministic: re-encoding the same file yields bit-identical shards,
so a rebuilt shard can be checked against the manifest digest.

This module is the only one that reads or writes shard files, and it
runs the three file workflows end to end: write_shard_set (encode),
decode_file and repair_shard.  Each is one run of _pipeline, the batch
loop: a batch at a time is made on the caller's thread (all GF work
stays there) and written by one writer thread while the next is made,
in two buffers that take turns, so memory does not grow with the file.
An encode batch is a run of part units, each one part of a stripe, its
n chunks: as many as fit _BATCH_BYTES, or one, so neither does it grow
with f.  The writer thread appends each unit's chunks to the nodes'
files and XORs a stripe's units into one reused row, from which it
appends the stripe's parity chunks after its last part.  A decode or
repair batch is a run of stripes, or, when one stripe is over the
budget, one part of a stripe: the targets that lie in that part.
ShardWriter is the one shard writer: it appends a node's payload a
chunk at a time, in file order, from whatever buffer holds the chunk,
so no writer holds a whole shard or copies a batch.  Every file goes
through atomic_writer, so a crash never leaves a torn file under its
real name.  ShardReader is the one shard-set reader: it plans around
missing and damaged files and reads only the chunk slots its plan
needs, a target chunk straight into its slot of the batch, and so the
first source of an XOR that makes a target, which the XOR then adds the
other sources to; a decode reads no padding chunk of the last stripe.

The manifest is JSON with sorted keys: the shard format version, code
parameters, the generator construction id (decoders rebuild the matrix
from it), original file size and digest, and a digest per shard file.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import stat
import struct
import sys
import threading
import zlib
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from contextlib import ExitStack, contextmanager, suppress
from dataclasses import dataclass
from errno import EISDIR
from itertools import groupby
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .core import (ChunkId, ChunkPlan, SrcParams, data_chunks, encoder,
                   plan_chunks, run_plan, split_plan)
from .errors import (InsufficientDataError, IntegrityError, ParameterError,
                     ShapeError)
from .mds import CONSTRUCTION_ID

MAGIC = b"SRCSHRD1"
FORMAT_VERSION = 2            # what encode writes
FORMAT_VERSIONS = (1, 2)      # what can be read and repaired
MANIFEST_NAME = "manifest.json"
DIGEST_ALGORITHM = "sha256"
_HEADER = struct.Struct("<8s6H3Q")
_IOV_MAX = os.sysconf("SC_IOV_MAX")
# Chunk bytes a batch may hold: its reads, derived chunks and both
# output buffers, whatever the plan (_batch_stripes), whatever the file
# size; for encode, both buffers of part units, n chunks each, and the
# row of parity chunks the writer XORs, n chunks if f > 1.  When one
# stripe is over it, a decode or repair batch is one part of a stripe,
# its targets in that part, and an encode batch one part unit.  Chosen
# by paired runs (BENCH_8.json).
_BATCH_BYTES = 8 << 20


def shard_filename(node: int) -> str:
    return f"node_{node:03d}.shard"


def _header(params: SrcParams, node: int, stripe_count: int,
            file_size: int, version: int) -> bytes:
    return _HEADER.pack(MAGIC, version, node, params.n, params.k,
                        params.f, 0, params.chunk_size, stripe_count,
                        file_size)


def _batch_stripes(params: SrcParams, outputs: int) -> int:
    """Stripes per batch, fixed before the first read, or 0 when one
    stripe is over the budget: any plan, one made again mid-batch too,
    reads or derives only a stripe's n*(f+1) slots, so those and outputs
    chunks per stripe fit _BATCH_BYTES.  That reserve also covers the
    second output buffer: the chunks read outside the outputs, the
    derived chunks that are not targets and the distinct targets are
    different chunks of a stripe, n*(f+1) at most, so with two buffers
    of outputs chunks they stay within it.  At 0, a decode or repair
    makes one part of a stripe a batch (ShardReader)."""
    per_stripe = (params.n * (params.f + 1) + outputs) * params.chunk_size
    return _BATCH_BYTES // per_stripe


def _offsets(params: SrcParams, stripe_count: int,
             version: int) -> tuple[int, int, int]:
    """Where a shard file's payload and its CRC table start, and the
    file's length: v1 has the table first, v2 the payload."""
    table_b = 4 * stripe_count * (params.f + 1)
    payload_b = stripe_count * (params.f + 1) * params.chunk_size
    end = _HEADER.size + table_b + payload_b
    if version == 1:
        return _HEADER.size + table_b, _HEADER.size, end
    return _HEADER.size, _HEADER.size + payload_b, end


@dataclass(frozen=True)
class Manifest:
    params: SrcParams
    file_size: int
    file_digest: str
    shard_digests: dict[int, str]   # node -> sha256 of the shard file
    version: int = FORMAT_VERSION   # of the shard files

    @property
    def stripe_count(self) -> int:
        return self.params.stripes(self.file_size)

    def to_json(self) -> str:
        doc = {
            "format": "src-manifest",
            "version": self.version,
            "params": {"n": self.params.n, "k": self.params.k,
                       "f": self.params.f,
                       "chunk_size": self.params.chunk_size},
            "generator": CONSTRUCTION_ID,
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
        """Parse a manifest.  Malformed JSON (nested too deep included), a
        version other than 1 or 2, a missing key, a value of the wrong
        type, code parameters SrcParams rejects, shards not keyed exactly
        1..n, a shard file other than node_NNN.shard, a digest that is not
        64 lowercase hex characters, a negative file_size, a chunk_size or
        file_size the shard header's u64 fields cannot hold, or a
        stripe_count that does not fit file_size raises IntegrityError."""
        try:
            doc = json.loads(text)
            if doc.get("format") != "src-manifest":
                raise IntegrityError("not a shard manifest")
            version = doc.get("version")
            if type(version) is not int or version not in FORMAT_VERSIONS:
                raise IntegrityError(
                    f"unsupported manifest version {version}")
            if doc.get("generator") != CONSTRUCTION_ID:
                raise IntegrityError(
                    f"unknown generator construction {doc.get('generator')!r}")
            if doc.get("digest_algorithm") != DIGEST_ALGORITHM:
                raise IntegrityError(
                    f"unknown digest algorithm {doc.get('digest_algorithm')!r}")
            p = doc["params"]
            ints = [p["n"], p["k"], p["f"], p["chunk_size"],
                    doc["file_size"], doc["stripe_count"]]
            if any(type(v) is not int for v in ints):   # a bool is not one
                raise IntegrityError("malformed manifest: n, k, f, "
                                     "chunk_size, file_size and stripe_count "
                                     "must be integers")
            n, k, f, chunk_size, file_size, stripe_count = ints
            params = SrcParams(n=n, k=k, f=f, chunk_size=chunk_size)
            if set(doc["shards"]) != {str(i) for i in range(1, params.n + 1)}:
                raise IntegrityError(
                    f"malformed manifest: shards must be keyed 1..{params.n}")
            digests = {int(node): entry["digest"]
                       for node, entry in doc["shards"].items()}
            for node in sorted(digests):
                name = doc["shards"][str(node)]["file"]
                if name != shard_filename(node):
                    raise IntegrityError(f"malformed manifest: shard {node} "
                                         f"file {name!r} is not "
                                         f"{shard_filename(node)}")
            if not all(re.fullmatch("[0-9a-f]{64}", d)   # TypeError if not text
                       for d in [doc["file_digest"], *digests.values()]):
                raise IntegrityError("malformed manifest: a digest is not "
                                     "64 lowercase hex characters")
            if file_size < 0:
                raise IntegrityError(
                    f"malformed manifest: negative file_size {file_size}")
            if max(chunk_size, file_size) >> 64:
                raise IntegrityError("malformed manifest: chunk_size and "
                                     "file_size must be below 2**64")
            if stripe_count != params.stripes(file_size):
                raise IntegrityError(
                    f"malformed manifest: stripe_count {stripe_count} does "
                    f"not fit file_size {file_size}")
            return cls(
                params=params,
                file_size=file_size,
                file_digest=doc["file_digest"],
                shard_digests=digests,
                version=version,
            )
        except (AttributeError, KeyError, RecursionError, TypeError,
                ValueError) as exc:
            raise IntegrityError(
                f"malformed manifest: {type(exc).__name__}: {exc}") from exc


@contextmanager
def atomic_writer(path: Path) -> Iterator:
    """Open a temporary sibling of path for writing and, when the block
    ends normally, os.replace it into place, so the path holds either its
    old bytes or all of the new ones; on error the temporary file is
    removed.  An OSError about the temporary file names path instead.
    A directory at path is refused before the temporary file is made, by
    the IsADirectoryError os.replace would raise, and a device, FIFO or
    socket, or a link to one, by a ParameterError: os.replace would swap
    it for a regular file."""
    path = Path(path)
    with suppress(FileNotFoundError):   # os.stat follows a link
        mode = os.stat(path).st_mode
        if stat.S_ISDIR(mode):
            raise IsADirectoryError(EISDIR, os.strerror(EISDIR), str(path))
        if not stat.S_ISREG(mode):
            raise ParameterError(f"{path} is not a regular file; it is "
                                 "not replaced")
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


class ShardWriter:
    """Writes one node's shard file, a chunk at a time.

    write(chunk) appends the next chunk of the node's payload in file
    order, stripe by stripe and slot by slot: a (chunk_size,) array,
    which may be a view of any buffer, as encode's units and parity row
    and a repair's batch are; it copies the chunk only if it is not
    contiguous.  seal() adds the parts only the whole payload gives,
    checks the digest if one is given, and returns the file's sha256.
    The file takes its name when the writer's with block ends; on an
    error, a wrong digest included, no file is left.

    A v2 file is written in file order (header, payload, CRC table) and
    hashed as it is written.  A v1 file has its table before the
    payload: the payload goes to its offset as it comes, the header and
    table at seal(), and the digest is then taken by reading the
    temporary file back.  Only repairs of v1 sets pay that read.
    """

    def __init__(self, directory: Path, params: SrcParams, node: int,
                 file_size: int, version: int = FORMAT_VERSION):
        self.params, self.node, self.version = params, node, version
        self.stripes = params.stripes(file_size)
        self._head = _header(params, node, self.stripes, file_size, version)
        self._crcs = bytearray()   # CRC table of the chunks written
        self._done = 0             # chunks written
        self._chunks = self.stripes * (params.f + 1)
        self._sha = hashlib.sha256()
        self._stack = ExitStack()
        self._fh = self._stack.enter_context(
            atomic_writer(Path(directory) / shard_filename(node)))
        if version == 1:
            self._fh.seek(_offsets(params, self.stripes, version)[0])
        else:
            self._put(self._head)

    def __enter__(self) -> "ShardWriter":
        return self

    def __exit__(self, *exc) -> bool:
        return self._stack.__exit__(*exc)

    def _put(self, part) -> None:
        if self.version != 1:
            self._sha.update(part)
        self._fh.write(part)

    def write(self, chunk: np.ndarray) -> None:
        if chunk.shape != (self.params.chunk_size,) or \
                self._done == self._chunks:
            raise ShapeError(f"a chunk of shape {chunk.shape} does not "
                             f"fit the shard of node {self.node}")
        chunk = np.ascontiguousarray(chunk)
        self._crcs += zlib.crc32(chunk).to_bytes(4, "little")
        self._put(chunk)
        self._done += 1

    def seal(self, digest: str | None = None) -> str:
        if self._done != self._chunks:
            raise ShapeError(f"shard of node {self.node} has {self._done} "
                             f"chunks, expected {self._chunks}")
        if self.version == 1:
            self._fh.seek(0)
            self._fh.write(self._head)
            self._fh.write(self._crcs)
            self._fh.flush()
            with open(self._fh.name, "rb") as back:
                while block := back.read(1 << 20):
                    self._sha.update(block)
        else:
            self._put(self._crcs)
        if digest is not None and self._sha.hexdigest() != digest:
            raise IntegrityError(f"rebuilt shard for node {self.node} does "
                                 "not match the manifest digest")
        return self._sha.hexdigest()


def _pipeline(count: int, step: int, width: int, chunk_size: int,
              make: Callable[[np.ndarray, int, Callable[[], np.ndarray]],
                             object],
              write: Callable[[np.ndarray], object]) -> None:
    """The batch loop of encode, decode and repair: make and write
    count rows, stripes or part units, step at a time, each batch (rows,
    width, chunk_size).  make(out, start, ahead) fills out with the
    batch of rows from start on, on this thread; write(out) then runs on
    one writer thread while the next batch is made.  Batches take turns
    in two buffers, the second allocated only once a second batch
    comes, and a batch's write is joined before its buffer is made
    again, so neither callable needs to copy a batch.  ahead(), which
    make may call, joins the write in flight at once and returns the
    next batch's buffer, whole, so that make can fill slots of it: the
    next batch finds them as make left them.  An error of write is
    raised here; on any error the thread is joined first.  hashlib, zlib
    and file writes release the GIL; write must call no span-wrapped
    (public module-level) function."""
    failed: list[BaseException] = []
    bufs: list[np.ndarray] = []
    thread = None

    def run(out: np.ndarray) -> None:
        try:
            write(out)
        except BaseException as exc:   # raised again on the caller's thread
            failed.append(exc)

    def join() -> None:
        nonlocal thread
        if thread is not None:
            thread.join()
            thread = None
        if failed:
            raise failed[0]

    def buffer(b: int) -> np.ndarray:
        if len(bufs) <= b % 2:
            bufs.append(np.empty((min(step, count), width, chunk_size),
                                 np.uint8))
        return bufs[b % 2]

    def ahead() -> np.ndarray:   # while batch b is made
        join()
        return buffer(b + 1)

    try:
        for b, start in enumerate(range(0, count, step)):
            out = buffer(b)[:min(step, count - start)]
            make(out, start, ahead)
            join()
            thread = threading.Thread(target=run, args=(out,))
            thread.start()
        join()
    finally:
        if thread is not None:
            thread.join()


def write_shard_set(directory: Path, params: SrcParams, source: BinaryIO,
                    size: int) -> Path:
    """Encode the size bytes of the binary stream source into n shard
    files and a manifest; returns the manifest path.

    The input is read, hashed and encoded a batch of part units at a
    time by _pipeline (encoder), as many as fit _BATCH_BYTES with the
    other buffer and the parity row, or one, and the writer thread
    writes each unit while the next batch is coded: part l's chunk to
    each node's file, that node's slot l-1, copying nothing.  A batch
    holds no parity chunk: the writer XORs a stripe's units, by
    subscript, into one reused row of n chunks, and after its part f
    appends each node's parity chunk from it (f = 1: from the unit).  A
    source that does not end at exactly size bytes, or a stripe larger
    than any buffer can be, is a ParameterError.  The shard files take
    their names in node order once every one is sealed, then the
    manifest is written; an error before that leaves no new file, and
    removes the directory if this call made it.
    """
    n, f, cs = params.n, params.f, params.chunk_size
    if n * (f + 1) * cs > sys.maxsize:
        raise ParameterError(f"a stripe of {n * (f + 1)} chunks of {cs} "
                             "bytes is too large to hold")
    directory = Path(directory)
    made = [d for d in (directory, *directory.parents) if not d.exists()]
    directory.mkdir(parents=True, exist_ok=True)
    sha = hashlib.sha256()
    changed = ParameterError(
        f"{getattr(source, 'name', 'input')} changed size while read")

    def fill(view) -> None:
        if source.readinto(view) != len(view):
            raise changed
        sha.update(view)

    try:
        with ExitStack() as stack:
            # entered last node first, so the files replace in node order
            writers = [stack.enter_context(ShardWriter(
                directory, params, node, size))
                for node in range(n, 0, -1)][::-1]

            # the XOR of a stripe's units so far, once it outlives the
            # batch of the first; a stripe of one unit is its own parity
            row = np.empty((n if f > 1 else 0, cs), np.uint8)
            # units a batch holds: two buffers of n chunks each, and the row
            step = max(1, (_BATCH_BYTES - row.nbytes) // (2 * n * cs))
            # where each node's chunk of each part, and its parity, lies
            # in a unit and in the XOR: at its subscript
            subs = [[c.subscript - 1 for c in params.node_chunks(node)]
                    for node in range(1, n + 1)]
            done, acc = 0, row   # units written; the open stripe's XOR

            def write(batch: np.ndarray) -> None:
                nonlocal done, acc
                for unit in batch:
                    l = done % f
                    done += 1
                    for w, s in zip(writers, subs):
                        w.write(unit[s[l]])
                    acc = np.bitwise_xor(acc, unit, out=row) if l else unit
                    if l == f - 1:
                        for w, s in zip(writers, subs):
                            w.write(acc[s[f]])
                if done % f and acc is not row:   # its buffer is made again
                    row[...] = acc
                    acc = row

            make = encoder(fill, size, params)
            _pipeline(params.stripes(size) * f, step, n, cs,
                      lambda out, start, _: make(out, start), write)
            if source.read(1):
                raise changed
            digests = {w.node: w.seal() for w in writers}
    except BaseException:
        for d in made:
            with suppress(OSError):
                d.rmdir()
        raise
    manifest = Manifest(
        params=params,
        file_size=size,
        file_digest=sha.hexdigest(),
        shard_digests=digests,
    )
    manifest_path = directory / MANIFEST_NAME
    with atomic_writer(manifest_path) as fh:
        fh.write(manifest.to_json().encode())
    return manifest_path


def read_regular_file(path: Path, what: str) -> bytes:
    """The bytes of the file at path, which an error calls what (say,
    "manifest").  It is opened without blocking, so a FIFO is refused,
    as any file that is not a regular one is, by a ParameterError, not
    waited on."""
    with open(os.open(path, os.O_RDONLY | os.O_NONBLOCK), "rb") as fh:
        if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            raise ParameterError(f"{what} {path} is not a regular file")
        return fh.read()


def load_manifest(path: Path) -> Manifest:
    """Read (read_regular_file) and parse the manifest at path."""
    return Manifest.from_json(read_regular_file(path, "manifest"))


class ShardReader:
    """The one shard-set reader: produces a list of targets from the
    shard files of one manifest, a batch at a time, each sized by the
    code's shape, not the plan, before the first read.

    Plans on the chunks of the shard files that exist, the lost node's
    excepted; raises InsufficientDataError (exit 3), before reading any
    file, when they cannot cover the plan.  With last, the last stripe
    needs only the first last targets, the rest being zero there (a
    decode's padding), and has a plan of its own, tail, that reads only
    what those need.  Each plan is split (split_plan) into the groups of
    targets a stripe is made in, units and tail_units: the whole stripe,
    or, when one stripe's batch is over _BATCH_BYTES, each part of its
    targets in turn, a batch then being one group of one stripe, so that
    a buffer holds one part.  A group reads and makes only what no
    earlier group of its stripe did, and is handed the rest, so a
    stripe's groups read what its plan reads, each chunk once; a target
    of the next group read early goes straight to its slot of the next
    batch's buffer.  A shard file is checked when it is first opened,
    once: it must be a regular file, its length and 44-byte header must
    equal what the manifest implies, and its CRC table is read.  _stream
    opens every file its plans read before the first batch; read_chunks
    opens a file on the first read of one of its chunks.  read_chunks
    then reads only the wanted slots, neighbours in one os.preadv, and
    checks each chunk against its CRC-32; the whole-shard digest is not
    checked.  In read, a shard file that fails its checks or a chunk
    that fails its CRC is dropped, each shard file with a failure is
    named on stderr, and the stripes left, the current batch's included,
    are planned again; IntegrityError (exit 4), naming the skipped
    files, when the chunks left cannot cover that plan.  No slot is read
    twice in a batch, nor in a stripe made a part at a time, unless a
    plan made again mid-stripe cannot do without a chunk an earlier part
    read and did not hand over.  The files close when the reader's with
    block ends.
    """

    def __init__(self, manifest: Manifest, directory: Path,
                 targets: list[ChunkId], lost: int = 0,
                 last: int | None = None):
        self.manifest, self.targets = manifest, targets
        # the targets the last stripe needs: the first last of them
        self._last = len(targets) if last is None else last
        self.directory = Path(directory)
        self.available = {c for node in manifest.shard_digests
                          if node != lost
                          and (self.directory / shard_filename(node)).exists()
                          for c in manifest.params.node_chunks(node)}
        self.skipped: dict[str, None] = {}   # shard file names, in order
        # targets with a helper missing or damaged: no look-up makes them
        self.blocked: set[ChunkId] = set()
        # every shard file's payload and CRC table offsets, and length
        self._payload_at, self._table_at, self._length = _offsets(
            manifest.params, manifest.stripe_count, manifest.version)
        self._open: dict[int, tuple[int, np.ndarray]] = {}   # fd, CRCs
        # where read_chunks puts a wanted chunk instead of a new array:
        # while read reads, each target's slot of out
        self._into: dict[ChunkId, np.ndarray] = {}
        # stripes a batch, or 0: a batch is then one part of a stripe
        self._step = _batch_stripes(manifest.params, len(targets))
        # _run's state within a stripe: the split its groups run, the
        # chunks they hand over and those they read
        self._split: list[tuple[ChunkPlan, frozenset[ChunkId]]] = []
        self._held: dict[ChunkId, np.ndarray] = {}
        self._read: set[ChunkId] = set()
        self._plan()

    def __enter__(self) -> "ShardReader":
        return self

    def __exit__(self, *exc) -> None:
        for fd, _ in self._open.values():
            os.close(fd)
        self._open.clear()
        self._into, self._held = {}, {}

    def _plan(self) -> None:
        """Plan the targets, and the last stripe's on its own when it
        needs fewer, around the chunks available, and split each plan
        into its groups: one a stripe, or one a part when a stripe is
        over the budget."""
        p = self.manifest.params
        try:
            self.plan = plan_chunks(p, self.available, self.targets)
            self.tail = None if self._last == len(self.targets) else \
                plan_chunks(p, self.available, self.targets[:self._last])
        except InsufficientDataError as exc:
            if not self.skipped:
                raise
            raise IntegrityError(
                f"{exc}; skipped {', '.join(self.skipped)}") from exc
        self.blocked.update(c for c in self.targets
                            if not self.available.issuperset(p.helpers(c)))

        def groups(targets: list[ChunkId]) -> list[list[ChunkId]]:
            if self._step:
                return [targets]
            return [list(run) for _, run in groupby(targets,
                                                    lambda c: c.part)]

        self.units = split_plan(self.plan, groups(self.targets))
        self.tail_units = self.units if self.tail is None else \
            split_plan(self.tail, groups(self.targets[:self._last]))

    def _drop(self, failed: dict[ChunkId, IntegrityError]) -> None:
        """Name each shard file of the failed chunks on stderr, once per
        error, and plan again without those chunks."""
        for exc in dict.fromkeys(failed.values()):
            print(f"skipped: {exc}", file=sys.stderr, flush=True)
        self.skipped.update(dict.fromkeys(
            shard_filename(self.manifest.params.chunk_location(c))
            for c in failed))
        self.available.difference_update(failed)
        self._plan()

    def _open_planned(self) -> None:
        """Open the shard files the plans that run read, each checked as
        on its first read, and plan around those that fail, until every
        file planned is open: the last stripe's plan, if apart, and the
        plan of the other stripes, unless the last is the only one.  Run
        before any buffer is made, it makes a manifest claiming 1 TiB
        chunks exit 4 on the files' lengths, not 2 at np.empty."""
        p = self.manifest.params
        while True:
            plans = [self.plan] if self.tail is None else \
                [self.tail] + [self.plan] * (self.manifest.stripe_count > 1)
            failed: dict[ChunkId, IntegrityError] = {}
            for node in sorted({p.chunk_location(c) for plan in plans
                                for c in plan.reads}):
                try:
                    self._shard(node)
                except (IntegrityError, OSError) as exc:
                    failed.update(dict.fromkeys(p.node_chunks(node),
                                                _unusable(node, exc)))
            if not failed:
                return
            self._drop(failed)

    def read(self, out: np.ndarray, unit: int,
             ahead: Callable[[], np.ndarray]) -> None:
        """Fill out, (rows, width, chunk_size), with the batch from unit
        on.  A unit is one group of one stripe: unit counts the groups
        of units in each stripe in turn, and of tail_units in the last
        stripe, so no unit lies wholly past the targets it needs.  With
        one group a stripe, a batch is a run of stripes, the last by its
        own plan; else it is one unit.  ahead gives the next batch's
        buffer (_pipeline).  A plan made again mid-batch finishes that
        batch, in the same budget."""
        stripe, at = divmod(unit, len(self.units))
        cut = len(out) if self.tail is None else \
            min(len(out), self.manifest.stripe_count - 1 - stripe)
        if cut:
            self._run(out[:cut], stripe, at, False, ahead)
        if cut < len(out):
            self._run(out[cut:], stripe + cut, at, True, ahead)

    def _run(self, out: np.ndarray, start: int, at: int, tail: bool,
             ahead: Callable[[], np.ndarray]) -> None:
        """Read and run group at of the plan's split, or the last stripe's,
        on the stripes of out from start on: on its reads that pass
        their checks, and on the chunks the groups before it hand over,
        of which the first group has none.  A read that is a chunk of a
        slot of out goes to that slot, which run_plan then leaves as it
        is, even when the group does not produce it there; so does the
        first source of an XOR step that makes a target, where
        _xor_in_place allows, and run_plan XORs the other sources into
        it.  When the group reads targets of the next group, which the
        next unit makes in the buffer ahead gives, they go to their
        slots there.  A failed check plans again, which replaces this
        group and those after it (_rest); a read already in a target's
        slot that the new plan does not XOR there is first copied out.
        The chunks the group hands over are kept, copied if they lie in
        out; no other read outlives the group.  The slots of out past
        the group's targets are zeroed."""
        if at == 0:
            self._split = list(self.tail_units if tail else self.units)
            self._held, self._read = {}, set()
        plan, keep = self._split[at]
        slots = {c: out[:, t]
                 for t, c in enumerate(self.units[at][0].targets)}
        later = self._split[at + 1][0].targets \
            if at + 1 < len(self._split) else ()
        if not set(later).isdisjoint(plan.reads):
            after = ahead()[:len(out)]
            slots.update((c, after[:, t]) for t, c in enumerate(later))
        xor = _xor_in_place(plan, keep)
        self._into = slots | {c: slots[t] for c, t in xor.items()}
        got: dict[ChunkId, np.ndarray] = {}
        while todo := [c for c in plan.reads if c not in got]:
            new, failed = self.read_chunks(todo, start, start + len(out))
            got.update(new)
            self._read.update(todo)
            if failed:
                self._drop(failed)
                self._rest(at, tail, self._held.keys() | got.keys())
                plan, keep = self._split[at]
                was, xor = xor, _xor_in_place(plan, keep)
                for c, t in was.items():   # out of a slot now overwritten
                    if c in got and xor.get(c) != t:
                        got[c] = got[c].copy()
                self._into = slots | {c: slots[t] for c, t in xor.items()}
        present, made = {**self._held, **got}, {}
        run_plan(plan, present, out[:, :len(plan.targets)], made)
        held = {c: present[c] if c in present else made[c] for c in keep}
        self._held = {c: row.copy() if np.may_share_memory(row, out)
                      else row for c, row in held.items()}
        out[:, len(plan.targets):] = 0

    def _rest(self, at: int, tail: bool, have: set[ChunkId]) -> None:
        """Replace the stripe's groups from at on, after a plan was made
        again, by a split around the chunks held, have: of a plan of
        their targets from those and the chunks the stripe has not read
        yet, or, if these cannot cover it, of the new plan, which may
        read again a chunk an earlier group read and did not hand over.
        With one group a stripe, a batch's reads are all held, and the
        first plan is the new one."""
        groups = [plan.targets for plan, _ in self._split[at:]]
        try:
            plan = plan_chunks(self.manifest.params,
                               self.available - self._read | have,
                               [c for group in groups for c in group])
        except InsufficientDataError:
            plan = self.plan if self.tail is None or not tail else self.tail
        self._split[at:] = split_plan(plan, groups, have)

    def _stream(self, write: Callable[[np.ndarray], object]) -> None:
        """Open the planned shard files, so a batch buffer is allocated
        only once their lengths and headers are checked, then read the
        file a batch at a time through _pipeline, write taking each."""
        stripes = self.manifest.stripe_count
        self._open_planned()
        _pipeline(stripes and (stripes - 1) * len(self.units)
                  + len(self.tail_units), self._step or 1,
                  max(len(u.targets) for u, _ in self.units),
                  self.manifest.params.chunk_size, self.read, write)

    def read_chunks(self, wanted: Iterable[ChunkId], start: int, stop: int
                    ) -> tuple[dict[ChunkId, np.ndarray],
                               dict[ChunkId, IntegrityError]]:
        """The wanted chunks of stripes start to stop, each (stop -
        start, chunk_size), that pass their checks; and the chunks found
        unusable, each with the error naming its shard file: every chunk
        of a shard that cannot be opened or read, or whose length or
        header is wrong, or a wanted chunk that fails its CRC in any of
        these stripes.  While _run reads, a chunk of a slot of the batch,
        or of the next one ahead, is read into that slot."""
        m = self.manifest
        by_node: dict[int, list[ChunkId]] = {}
        for c in sorted(set(wanted)):
            by_node.setdefault(m.params.chunk_location(c), []).append(c)
        chunks: dict[ChunkId, np.ndarray] = {}
        failed: dict[ChunkId, IntegrityError] = {}
        for node, ids in sorted(by_node.items()):
            slots = m.params.node_chunks(node)
            try:   # on an error, the whole shard is unusable
                got, crcs = self._read_slots(node, ids, start, stop)
            except (IntegrityError, OSError) as exc:
                failed.update(dict.fromkeys(slots, _unusable(node, exc)))
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
        m = self.manifest
        p, stripes = m.params, m.stripe_count
        name = shard_filename(node)
        table_b = 4 * stripes * (p.f + 1)
        # not blocking on a FIFO, which is then refused
        fd = os.open(self.directory / name, os.O_RDONLY | os.O_NONBLOCK)
        try:
            info = os.fstat(fd)
            if not stat.S_ISREG(info.st_mode):
                raise IntegrityError(f"shard {name} is not a regular file")
            size = info.st_size
            if size != self._length:
                raise IntegrityError(
                    f"shard {name} is {size} bytes, expected {self._length}")
            head = os.pread(fd, _HEADER.size, 0)
            table = os.pread(fd, table_b, self._table_at)
            if len(head) + len(table) != _HEADER.size + table_b:
                raise IntegrityError(f"shard {name} shrank while read")
            if head != _header(p, node, stripes, m.file_size, m.version):
                raise IntegrityError(
                    f"shard {name} header disagrees with manifest")
        except BaseException:
            os.close(fd)
            raise
        crcs = np.frombuffer(table, dtype="<u4").reshape(stripes, p.f + 1)
        self._open[node] = fd, crcs
        return self._open[node]

    def _read_slots(self, node: int, ids: list[ChunkId], start: int,
                    stop: int
                    ) -> tuple[dict[ChunkId, np.ndarray], np.ndarray]:
        """One shard file's wanted chunks of stripes start to stop, and
        the CRC table rows of those stripes."""
        fd, table = self._shard(node)
        p = self.manifest.params
        slots = p.node_chunks(node)
        got = {c: self._into[c] if c in self._into else
               np.empty((stop - start, p.chunk_size), dtype=np.uint8)
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
                         self._payload_at + run[0][0] * p.chunk_size) \
                    != len(run) * p.chunk_size:
                raise IntegrityError(
                    f"shard {shard_filename(node)} shrank while read")
        return got, table[start:stop]


def _xor_in_place(plan: ChunkPlan, keep: frozenset[ChunkId]
                  ) -> dict[ChunkId, ChunkId]:
    """The first source of each XOR step of plan that makes one of its
    targets, mapped to that target, where the source can be read
    straight into the target's slot: run_plan then copies nothing and
    XORs the other sources in.  Only a source plan reads, that is no
    target, feeds no other step and is not handed to a later group
    (keep), since the step overwrites it."""
    uses = Counter(c for step in plan.steps for c in step.sources)
    targets = set(plan.targets)
    reads = set(plan.reads) - keep - targets
    return {s.sources[0]: s.outs[0] for s in plan.steps
            if s.coeffs is None and s.outs[0] in targets
            and s.sources[0] in reads and uses[s.sources[0]] == 1}


def _unusable(node: int, exc: IntegrityError | OSError) -> IntegrityError:
    """The error that makes a shard file unusable, naming the file."""
    if isinstance(exc, IntegrityError):
        return exc
    return IntegrityError(f"shard {shard_filename(node)} cannot be read: "
                          f"{exc.strerror or exc}")


def decode_file(manifest: Manifest, directory: Path,
                out: Path) -> ShardReader:
    """Decode manifest's file from the shard files in directory to out,
    a batch of stripes at a time (ShardReader), or one part of a stripe,
    k data chunks, when a stripe's batch is over _BATCH_BYTES; the
    writer thread cuts the padding and hashes and writes each batch
    while the next is made.  The last stripe's data chunks wholly past
    the end of the file are zero, and neither read nor CRC-checked.
    out takes its name only if the hash is the manifest's file_digest,
    else IntegrityError.  Returns the reader."""
    p = manifest.params
    # the data chunks of the last stripe that hold file bytes
    tail = manifest.file_size - (manifest.stripe_count - 1) \
        * p.stripe_data_bytes
    reader = ShardReader(manifest, directory, data_chunks(p),
                         last=-(-tail // p.chunk_size))
    sha = hashlib.sha256()
    left = manifest.file_size
    with reader, atomic_writer(out) as fh:

        def write(chunks: np.ndarray) -> None:
            nonlocal left
            data = chunks.reshape(-1)[:left]
            left -= len(data)
            sha.update(data)
            fh.write(data)

        reader._stream(write)
        if sha.hexdigest() != manifest.file_digest:
            raise IntegrityError(
                "decoded file does not match the manifest digest")
    return reader


def repair_shard(manifest: Manifest, directory: Path,
                 node: int) -> ShardReader:
    """Rebuild node's shard file in directory from the other nodes'
    files, a batch of stripes at a time (ShardReader), or one of its
    chunks, that of one part, when a stripe's batch is over
    _BATCH_BYTES; the writer thread appends each batch while the next is
    made.  The file is in the set's format version, and takes its name
    only if its digest is the manifest's.  A chunk whose look-up a
    missing or damaged helper blocks is named on stderr, and no other:
    the read-minimal plan may derive a chunk whose helpers are intact
    too.  Returns the reader: its blocked chunks were made with
    reconstruction."""
    p = manifest.params
    reader = ShardReader(manifest, directory, p.node_chunks(node), node)
    with reader, ShardWriter(directory, p, node, manifest.file_size,
                             manifest.version) as writer:

        def write(batch: np.ndarray) -> None:
            for chunk in batch.reshape(-1, p.chunk_size):
                writer.write(chunk)

        reader._stream(write)
        if reader.blocked:
            print("look-up repair blocked for "
                  f"{', '.join(c.label(p.f) for c in sorted(reader.blocked))}"
                  "; falling back to reconstruction", file=sys.stderr,
                  flush=True)
        writer.seal(manifest.shard_digests[node])
    return reader
