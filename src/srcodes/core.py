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
SrcParams holds that rule: node_chunks gives a node's chunks,
chunk_location a chunk's node, helpers a chunk's f same-subscript
chunks, and stripes(size) the stripes a file of size bytes fills.

Every chunk is thus a data chunk, an MDS combination of k chunks of its
part, or the XOR of the f others with its subscript; in all, a GF(256)
combination of the stripe's f*k data symbols, which any chunks whose
combinations span it determine.  Encode, decode and repair all go
through one chunk executor.  Planning is split from execution:
plan_chunks turns a list of targets into the chunks to read and an
ordered list of steps, each a copy, an XOR, or a GF(256) combination
whose coefficients one gf256.solve per plan works out; run_plan runs
those steps on the chunks read, for any run of stripes.  plan_chunks
is the paper's repair rule, one loop over the targets: copy a target
that is read, XOR one from its f helpers where the rule allows, and
derive the rest.  What it may read is one of two pools: the set of
whole parts, each derived from k of its chunks, that covers the
targets with the fewest reads, with the copies and XOR sources outside
it; or, when no set of parts covers them, every available chunk.  The
coefficients come from the (n, k) MDS generator, a plain array that a
plan builds only when it derives chunks: look-up repair plans and a
healthy decode build none.  plan_chunks is the only planner: what
`repair --dry-run` prints and the simulator's repair jobs read are its
plans too (repair.node_plan).

Multi-stripe files lay every stripe out identically; a node's shard is
its f+1 chunk slots concatenated stripe by stripe.  Every rule is the
same in every stripe, so one plan serves a whole file, and callers run
it on a batch of stripes at a time.  split_plan cuts a plan into groups
of its targets that run one after another on the same stripes, each
handed what the earlier ones read or made, so that a decode or a repair
makes a stripe over its batch budget a part at a time with the plan's
reads.  encoder, the one encode path, codes a file as a run of part
units, a stripe's f parts in turn, each the n chunks its k data chunks
give, by subscript: every part is coded alike, so one plan serves every
unit.  It runs in place on a buffer of units the caller gives
(shards._pipeline's), so encode holds batches of units, not the file's
shards, and no parity chunk: a stripe's parity chunks are the XOR of its
units, which the shard writer keeps in one row as it writes them.
encode, for the demos and tests, is the same path in one batch, its
shards one plan from the units: a parity chunk is the XOR of its f
helpers.
"""

from __future__ import annotations

import io
from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from itertools import chain, combinations, compress, islice
from typing import NamedTuple

import numpy as np

from . import gf256
from .errors import InsufficientDataError, ParameterError, ShapeError
from .mds import make_generator


def ring_add(i: int, delta: int, n: int) -> int:
    """1-based wrap-around addition on {1..n}; ring_add(n, 1, n) == 1."""
    return (i - 1 + delta) % n + 1


def ring_sub(i: int, delta: int, n: int) -> int:
    """1-based wrap-around subtraction; ring_sub(1, 1, n) == n."""
    return (i - 1 - delta) % n + 1


class ChunkId(NamedTuple):
    """Coordinate of one chunk in a stripe: part in 1..f+1 (f+1 is the
    parity part) and subscript in 1..n.  A named tuple, so it hashes,
    compares and sorts as the plain tuple (part, subscript) does, and
    equals that tuple."""

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
    def stripe_data_bytes(self) -> int:
        """Payload bytes carried by one stripe."""
        return self.f * self.k * self.chunk_size

    def stripes(self, size: int) -> int:
        """Stripes that hold size bytes: the last one zero-padded."""
        return -(-size // self.stripe_data_bytes)

    def node_chunks(self, node: int) -> list[ChunkId]:
        """Chunk ids stored on a node, in slot order (parts 1..f, parity)."""
        if not 1 <= node <= self.n:
            raise ParameterError(f"node {node} outside [1, {self.n}]")
        # part l, the parity part f+1 included, sits at subscript node(+)(l-1)
        return [ChunkId(l, ring_add(node, l - 1, self.n))
                for l in range(1, self.parity_part + 1)]

    def chunk_location(self, chunk: ChunkId) -> int:
        """Node index storing a chunk (inverse of node_chunks)."""
        if not 1 <= chunk.part <= self.parity_part:
            raise ParameterError(f"part {chunk.part} outside [1, {self.parity_part}]")
        if not 1 <= chunk.subscript <= self.n:
            raise ParameterError(f"subscript {chunk.subscript} outside [1, {self.n}]")
        return ring_sub(chunk.subscript, chunk.part - 1, self.n)

    def helpers(self, chunk: ChunkId) -> list[ChunkId]:
        """The f other chunks with this chunk's subscript, in part order;
        the f+1 of them XOR to zero, so these restore the chunk."""
        self.chunk_location(chunk)  # validates the id
        return [ChunkId(part, chunk.subscript)
                for part in range(1, self.parity_part + 1)
                if part != chunk.part]


@dataclass(frozen=True)
class CodedArray:
    """Encoded form of a file: one shard per node.

    ``shards[i]`` is a uint8 array of shape (stripe_count, f+1,
    chunk_size) whose slot axis follows SrcParams.node_chunks(i).
    Immutable once built.
    """

    params: SrcParams
    stripe_count: int
    file_size: int
    shards: dict[int, np.ndarray]


def data_chunks(params: SrcParams) -> list[ChunkId]:
    """The f*k data chunks of a stripe in file order: part 1 at
    subscripts 1..k, then part 2, and so on."""
    return [ChunkId(part, sub) for part in range(1, params.f + 1)
            for sub in range(1, params.k + 1)]


def encoder(fill: Callable[[np.ndarray], object], size: int,
            params: SrcParams) -> Callable[[np.ndarray, int], None]:
    """Plan the encode of size input bytes once; return make(out, start),
    which codes the part units from start on into out, (units, n,
    chunk_size).  Unit u is part (u mod f) + 1 of stripe u // f, so
    units run in file order, and holds that part's n chunks by
    subscript.  Every part is coded by the same (n, k) generator, so one
    plan, part 1's, codes every unit.  make calls fill(view), which must
    write the next len(view) input bytes into view or raise: unit u's k
    data chunks hold input bytes from u*k*chunk_size on, cut at the end
    of the input, the rest of a chunk zeroed.  run_plan then derives the
    n-k coded chunks in place and copies no data chunk, each already its
    own source.  Units are made in file order, as fill reads on.  A
    stripe's parity chunks are the XOR of its f units, by subscript.
    """
    k, cs = params.k, params.chunk_size
    part = [ChunkId(1, sub) for sub in range(1, params.n + 1)]
    plan = plan_chunks(params, part[:k], part)

    def make(out: np.ndarray, start: int) -> None:
        at = start * k * cs
        for unit in out:
            for chunk in unit[:k]:
                got = min(max(size - at, 0), cs)
                if got:
                    fill(chunk[:got])
                chunk[got:] = 0
                at += cs
        run_plan(plan, {c: out[:, c.subscript - 1] for c in part[:k]}, out)

    return make


def encode(file_bytes: bytes, params: SrcParams) -> CodedArray:
    """Encode a byte string into the n-node coded array: encoder's part
    units in one batch, then every node's chunks by one plan from the
    units' chunks, a parity chunk the XOR of its f helpers.

    The file is zero-padded to whole stripes; the true length is kept so
    reconstruct() can strip the padding.
    """
    stripes = params.stripes(len(file_bytes))
    n, f, cs = params.n, params.f, params.chunk_size
    units = np.empty((stripes, f, n, cs), dtype=np.uint8)
    encoder(io.BytesIO(file_bytes).readinto, len(file_bytes),
            params)(units.reshape(-1, n, cs), 0)
    present = {ChunkId(l, s): units[:, l - 1, s - 1]
               for l in range(1, f + 1) for s in range(1, n + 1)}
    targets = [c for node in range(1, n + 1) for c in params.node_chunks(node)]
    coded = run_plan(plan_chunks(params, present, targets), present,
                     np.empty((stripes, len(targets), cs), dtype=np.uint8))
    shards = {node: coded[:, (node - 1) * (f + 1):node * (f + 1)]
              for node in range(1, n + 1)}
    return CodedArray(params=params, stripe_count=stripes,
                      file_size=len(file_bytes), shards=shards)


@dataclass(frozen=True)
class Step:
    """One step of a plan.  With coeffs, ``outs[d]`` is the sum over j
    of ``coeffs[d, j]`` times ``sources[j]`` in GF(256); without,
    ``outs[0]`` is the XOR of the sources, a copy when there is one."""

    outs: tuple[ChunkId, ...]
    sources: tuple[ChunkId, ...]
    coeffs: np.ndarray | None = None


@dataclass(frozen=True)
class ChunkPlan:
    """What the chunk executor does to produce a list of targets, in
    every stripe alike: ``steps``, run in order, read ``reads``, the
    available chunks, sorted, and the outputs of earlier steps.  A
    derive step per part comes first (a step reads every source any of
    its outs uses), then an XOR step per distinct target not derived."""

    targets: tuple[ChunkId, ...]
    reads: tuple[ChunkId, ...]
    steps: tuple[Step, ...]


def plan_chunks(params: SrcParams, available: Iterable[ChunkId],
                targets: list[ChunkId]) -> ChunkPlan:
    """Plan the target chunks from the available ones, reading nothing:
    the plan reads the fewest chunks the rule below allows.

    The rule is one loop over the distinct targets with one of two read
    pools.  A target in the pool is copied; an absent one is the XOR of
    its f helpers where the pool's XOR test allows, each helper outside
    the pool derived; any other target is derived.  The derived chunks
    come from one gf256.solve over the pool's chunks a derive may use, a
    derive step per part.  When some set of parts covers the targets,
    the pool is the chunks _derived_parts picks: the targets and XOR
    sources outside the set, and k chunks of each part in it, those the
    plan copies or XORs first, which are what a derive uses.  A target
    outside the set is an XOR, each absent helper lying in the set, and
    so is an absent one in it whose f helpers are all read: with part 2
    derived, part1[2] = part2[2] ^ parity[2].  When no set of parts
    covers, the pool is every available chunk, all of which a derive
    may use, and only a parity target whose absent helpers each lie in
    a part with k chunks available is an XOR.  So a plan exists
    whenever the available chunks determine the targets; a look-up
    repair or a healthy decode derives nothing.  Raises
    InsufficientDataError naming the first target they do not determine
    and its absent helper nodes.
    """
    f, k = params.f, params.k
    available = frozenset(available)
    order = list(dict.fromkeys(targets))
    helpers = {c: params.helpers(c) for c in order}
    chosen = _derived_parts(params, available, order, helpers)
    if chosen is None:   # no set of parts covers: read from them all
        reads, sources = available, sorted(available)
        full = {l for l, m in Counter(c.part for c in reads).items()
                if m >= k}

        def xor(c: ChunkId) -> bool:
            return all(c.part > f and h.part in full
                       for h in helpers[c] if h not in reads)
    else:
        parts, reads = chosen
        sources = sorted(c for c in reads if c.part in parts)

        def xor(c: ChunkId) -> bool:
            return c.part not in parts or (c not in available
                                           and reads.issuperset(helpers[c]))
    steps, derived = [], {}   # derived chunk -> the target it is made for
    for c in order:
        if c in reads:
            steps.append(Step((c,), (c,)))
        elif xor(c):
            steps.append(Step((c,), tuple(helpers[c])))
            for h in helpers[c]:
                if h not in reads:
                    derived.setdefault(h, c)
        else:
            derived.setdefault(c, c)
    outs = list(derived)
    if outs:
        gen = make_generator(k, params.n)
        x, spanned = gf256.solve(_rows(gen, f, sources),
                                 _rows(gen, f, outs))
        short = {derived[c] for c, ok in zip(outs, spanned) if not ok}
        if short:
            target = next(c for c in order if c in short)
            nodes = sorted(params.chunk_location(h) for h in helpers[target]
                           if h not in available)
            raise InsufficientDataError(
                f"cannot produce {target.label(f)}: helper node(s) "
                f"{', '.join(map(str, nodes))} absent and the chunks "
                f"present do not determine it")
        derive = []   # a step per part, reading what any of its outs uses
        for l in sorted({c.part for c in outs}):
            pick = [i for i, c in enumerate(outs) if c.part == l]
            used = x[pick].any(axis=0)
            derive.append(Step(tuple(outs[i] for i in pick),
                               tuple(compress(sources, used)),
                               x[pick][:, used]))
        steps = derive + steps
    return ChunkPlan(targets=tuple(targets),
                     reads=tuple(sorted({c for step in steps
                                         for c in step.sources
                                         if c in available})),
                     steps=tuple(steps))


def _derived_parts(params: SrcParams, available: frozenset,
                   order: list[ChunkId],
                   helpers: dict[ChunkId, list[ChunkId]]
                   ) -> tuple[tuple[int, ...], set[ChunkId]] | None:
    """The parts plan_chunks derives and the chunks it reads: of the
    sets of parts that have k chunks available and that some absent
    target is of or has an absent helper in, the one that covers every
    target and reads fewest chunks, then has fewest parts, first in
    order; None when no set covers.  No parts when every target is
    available or the XOR of available helpers.  After the set of all
    such parts, sets are tried smallest first, only while their k reads
    a part could still beat the best found, and at most _PART_SETS of
    them."""
    f, k = params.f, params.k
    gone = [c for c in order if c not in available]
    # per absent target: its own part and the parts of its absent
    # helpers, or None for those when it cannot be their XOR
    options = []
    for c in gone:
        absent = {h.part for h in helpers[c] if h not in available}
        if absent:
            options.append(({c.part} - {f + 1},
                            None if f + 1 in absent else absent))
    pools = {l: sorted(c for c in available if c.part == l)
             for l in sorted({l for own, xor in options
                              for l in own | (xor or set())})}
    every = tuple(l for l, pool in pools.items() if len(pool) >= k)

    def covers(parts: tuple[int, ...]) -> bool:
        return all(own.intersection(parts)
                   or xor is not None and xor.issubset(parts)
                   for own, xor in options)

    def reads(parts: tuple[int, ...]) -> set[ChunkId]:
        """The targets and the XOR sources outside parts, and k chunks
        of each part, those used first."""
        used = set(order).union(*(helpers[c] for c in gone
                                  if c.part not in parts))
        got = {c for c in used if c in available and c.part not in parts}
        for l in parts:
            got.update(sorted(pools[l], key=lambda c: c not in used)[:k])
        return got

    if not covers(every):
        return None
    best = every, reads(every)
    sets = chain.from_iterable(combinations(every, r)
                               for r in range(len(every)))
    for parts in islice(sets, _PART_SETS):
        if k * len(parts) > len(best[1]):
            break
        if covers(parts):
            got = reads(parts)
            if (len(got), len(parts)) < (len(best[1]), len(best[0])):
                best = parts, got
    return best


# Part sets _derived_parts tries at most: every set of up to 12 parts
_PART_SETS = 1 << 12


def _rows(gen: np.ndarray, f: int, chunks) -> np.ndarray:
    """Each chunk's coefficients over the f*k data symbols of a stripe,
    part by part: generator column subscript in its own part's k places,
    in every part's for a parity chunk."""
    parts = np.array([c.part for c in chunks], dtype=int)[:, None]
    in_part = (parts == np.arange(1, f + 1)) | (parts == f + 1)
    cols = gen[:, [c.subscript - 1 for c in chunks]].T[:, None]
    return (in_part[:, :, None] * cols).reshape(len(chunks), f * len(gen))


def split_plan(plan: ChunkPlan, groups: list[list[ChunkId]],
               have: Iterable[ChunkId] = ()
               ) -> list[tuple[ChunkPlan, frozenset[ChunkId]]]:
    """Cut plan into one plan per group of its targets, to be run in
    order on the same stripes, and the chunks each hands to the later
    ones.  A group's plan runs each of plan's steps that its targets
    need and no earlier group ran, in plan's order, and reads what those
    steps read that no earlier group read or made; a target an earlier
    group read or made is copied from what was handed over.  So the
    groups read plan's reads, each once, and run each step once.  have
    names chunks already held before the first group, read or made:
    none is read or made again.  A group hands over every chunk held,
    read or made by then that a later group's steps read."""
    first: dict[ChunkId, int] = {}
    for i, step in enumerate(plan.steps):
        for c in step.outs:
            first.setdefault(c, i)
    reads, have = set(plan.reads), set(have)
    units = []
    for group in groups:
        run: set[int] = set()
        got: set[ChunkId] = set()

        def add(i: int) -> None:
            """Run step i in this group, and what its sources need."""
            if i in run:
                return
            run.add(i)
            for s in plan.steps[i].sources:
                if s in reads and s not in have:
                    got.add(s)
                elif s not in have:
                    add(first[s])

        copies = []
        for c in dict.fromkeys(group):
            if c in have:
                copies.append(Step((c,), (c,)))
            else:
                add(first[c])
        steps = [plan.steps[i] for i in sorted(run)] + copies
        have |= got | {c for step in steps for c in step.outs}
        units.append((ChunkPlan(targets=tuple(group),
                                reads=tuple(sorted(got)),
                                steps=tuple(steps)), frozenset(have)))
    later: set[ChunkId] = set()
    for u in reversed(range(len(units))):
        unit, held = units[u]
        units[u] = unit, frozenset(held & later)
        later |= {c for step in unit.steps for c in step.sources}
    return units


def run_plan(plan: ChunkPlan, present: dict[ChunkId, np.ndarray],
             out: np.ndarray,
             made: dict[ChunkId, np.ndarray] | None = None) -> np.ndarray:
    """The chunk executor: fill out, (stripes, len(plan.targets),
    chunk_size), with the plan's targets from the present chunks, each
    (stripes, chunk_size) of the same stripes; present needs to hold
    only what the steps read and no step makes: the plan's reads, and a
    split_plan group's chunks handed over.  Every slot of out is
    overwritten, so out may be a reused buffer or a view of a larger
    one, except that a copy or XOR step whose first source already is
    its destination (the same buffer, offset and strides: a chunk read
    or filled straight into its slot of out) does not copy it, and only
    XORs the other sources in.  If made is given, every chunk a step
    makes is put in it, a target as its slot of out.  Returns out.
    """
    first = {c: t for t, c in reversed(list(enumerate(plan.targets)))}
    made = {} if made is None else made
    made.update({c: out[:, first[c]] if c in first
                 else np.empty_like(out[:, 0])
                 for step in plan.steps for c in step.outs})
    for step in plan.steps:
        rows = [present[c] if c in present else made[c] for c in step.sources]
        dst = [made[c] for c in step.outs]
        if step.coeffs is None:
            if not _same(rows[0], dst[0]):   # a chunk read or filled in place
                np.positive(rows[0], out=dst[0])   # np.copyto may use a temp
            for row in rows[1:]:
                np.bitwise_xor(dst[0], row, out=dst[0])
        else:   # addmul_rows adds into its outputs
            for row in dst:
                row[...] = 0
            gf256.addmul_rows(dst, step.coeffs, rows)
    for t, c in enumerate(plan.targets):   # a repeated target: its first slot
        if first[c] != t:
            np.positive(made[c], out=out[:, t])
    return out


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether a and b are one view: the same buffer, offset, shape and
    strides."""
    return (a.ctypes.data == b.ctypes.data and a.shape == b.shape
            and a.strides == b.strides)


def chunks_from_shards(params: SrcParams, shards: dict[int, np.ndarray],
                       targets: list[ChunkId]) -> np.ndarray:
    """Produce the target chunks, every stripe, from whole shards in
    memory.

    Every slot of every shard goes to the chunk executor as a view, and
    the file is never materialised.  Returns (stripe_count,
    len(targets), chunk_size) in target order, so a node's node_chunks
    give that node's shard.  Raises InsufficientDataError as
    plan_chunks does.  Callers that read shard files use plan_chunks and
    shards.ShardReader instead, which read only the planned slots.
    """
    for node, arr in shards.items():
        if not 1 <= node <= params.n:
            raise ParameterError(f"node {node} outside [1, {params.n}]")
        if arr.ndim != 3 or arr.shape[1:] != (params.f + 1, params.chunk_size):
            raise ShapeError(
                f"shard of node {node} has shape {arr.shape}, expected "
                f"(stripes, {params.f + 1}, {params.chunk_size})")
    stripes = {arr.shape[0] for arr in shards.values()}
    if len(stripes) > 1:
        raise ShapeError("shards disagree on stripe count")
    present = {c: shard[:, slot] for node, shard in shards.items()
               for slot, c in enumerate(params.node_chunks(node))}
    out = np.empty((max(stripes, default=0), len(targets), params.chunk_size),
                   dtype=np.uint8)
    return run_plan(plan_chunks(params, present, targets), present, out)


def reconstruct(shards: dict[int, np.ndarray], params: SrcParams,
                file_size: int) -> bytes:
    """Rebuild the original file from shards whose chunks determine its
    data chunks, as any k distinct nodes' do: the f*k data chunks of
    each stripe come from chunks_from_shards."""
    data = chunks_from_shards(params, shards, data_chunks(params))
    if data.size < file_size:
        raise ShapeError(
            f"{data.shape[0]} stripes cannot hold file_size={file_size}")
    return data.reshape(-1)[:file_size].tobytes()
