"""Look-up repair: restore chunks by XORing same-subscript chunks.

Every chunk shares its subscript with exactly f other chunks, each on a
different node, and the f+1 of them XOR to zero.  A lost chunk is
therefore the XOR of the other f, read straight off their nodes with no
decoding.  Helper locations come from the placement inverse
(StripeLayout.chunk_location), never from closed-form index sets, and a
node plan touching every slot hits exactly min(2f, n-1) distinct disks.

Plans are immutable values; executing plans for distinct stripes is pure
and may run concurrently as long as the chunk store is read-stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf256
from .core import ChunkId, CodedArray, SrcParams, layout, reconstruct
from .errors import InsufficientDataError, RepairError


class ChunkStore:
    """Read access to the surviving shards of a coded array.

    Wraps {node: shard array} where each shard has shape
    (stripe_count, f+1, chunk_size).  Nodes absent from the mapping are
    treated as failed/unavailable.
    """

    def __init__(self, params: SrcParams, shards: dict[int, np.ndarray],
                 stripe_count: int | None = None):
        self.params = params
        self.shards = dict(shards)
        self._layout = layout(params)
        if stripe_count is None:
            stripe_count = next(iter(shards.values())).shape[0] if shards else 0
        self.stripe_count = stripe_count

    @classmethod
    def from_array(cls, array: CodedArray,
                   unavailable: set[int] = frozenset()) -> "ChunkStore":
        live = {i: s for i, s in array.shards.items() if i not in unavailable}
        return cls(array.params, live, array.stripe_count)

    def has_node(self, node: int) -> bool:
        return node in self.shards

    @property
    def live_nodes(self) -> list[int]:
        return sorted(self.shards)

    def chunk(self, chunk: ChunkId) -> np.ndarray:
        """All stripes of one chunk position, shape (stripe_count, chunk_size).

        Raises RepairError naming the chunk if its node is unavailable.
        """
        node = self._layout.chunk_location(chunk)
        if node not in self.shards:
            raise RepairError(
                f"helper chunk {chunk.label(self.params.f)} unavailable "
                f"(node {node} down)")
        return self.shards[node][:, self._layout.slot_of(chunk)]


@dataclass(frozen=True)
class RepairPlan:
    """Reads and combine rule restoring one chunk: the target is the XOR
    of all reads (field characteristic 2 makes parity-minus-sum and
    plain sum the same thing)."""

    params: SrcParams
    target: ChunkId
    reads: tuple[tuple[int, ChunkId], ...]  # (helper node, chunk id)

    @property
    def disk_access_set(self) -> frozenset[int]:
        return frozenset(node for node, _ in self.reads)

    @property
    def chunk_reads(self) -> int:
        return len(self.reads)

    def describe(self, stripe_count: int = 1) -> list[str]:
        f, cs = self.params.f, self.params.chunk_size
        lines = [f"repair {self.target.label(f)}:"]
        for node, cid in self.reads:
            lines.append(f"  read {cid.label(f)} from node {node}")
        lines.append(f"  combine: XOR of {len(self.reads)} chunks")
        lines.append(f"  bytes moved: {len(self.reads) * cs * stripe_count}")
        return lines


@dataclass(frozen=True)
class NodeRepairPlan:
    """Union of the chunk plans for one node's f+1 slots."""

    params: SrcParams
    node: int
    chunk_plans: tuple[RepairPlan, ...]

    @property
    def disk_access_set(self) -> frozenset[int]:
        out: set[int] = set()
        for plan in self.chunk_plans:
            out |= plan.disk_access_set
        return frozenset(out)

    @property
    def chunk_reads(self) -> int:
        return sum(p.chunk_reads for p in self.chunk_plans)

    def describe(self, stripe_count: int = 1) -> list[str]:
        cs = self.params.chunk_size
        lines = [f"rebuild node {self.node}:"]
        for plan in self.chunk_plans:
            lines.extend("  " + ln for ln in plan.describe(stripe_count))
        lines.append(f"  distinct helper disks: {len(self.disk_access_set)} "
                     f"({sorted(self.disk_access_set)})")
        lines.append(f"  chunk reads per stripe: {self.chunk_reads}")
        lines.append(f"  bytes moved: {self.chunk_reads * cs * stripe_count}")
        return lines


def chunk_repair_plan(params: SrcParams, target: ChunkId) -> RepairPlan:
    """Plan the repair of one chunk from the f others with its subscript.

    For a coded-part target that is the f-1 other coded parts plus the
    parity; for a parity target it is all f coded parts.
    """
    lay = layout(params)
    home = lay.chunk_location(target)  # validates the id
    reads = []
    for part in range(1, params.parity_part + 1):
        if part == target.part:
            continue
        helper = ChunkId(part, target.subscript)
        node = lay.chunk_location(helper)
        reads.append((node, helper))
    plan = RepairPlan(params=params, target=target, reads=tuple(reads))
    assert len(plan.reads) == params.f and home not in plan.disk_access_set
    return plan


def node_repair_plan(params: SrcParams, failed: int) -> NodeRepairPlan:
    """Plans for all f+1 chunks of a failed node, in slot order."""
    plans = tuple(chunk_repair_plan(params, cid)
                  for cid in layout(params).node_chunks(failed))
    return NodeRepairPlan(params=params, node=failed, chunk_plans=plans)


def execute_repair(plan: RepairPlan | NodeRepairPlan,
                   store: ChunkStore) -> np.ndarray:
    """Restore the planned chunk(s) from a store of surviving shards.

    Returns (stripe_count, chunk_size) for a chunk plan and
    (stripe_count, f+1, chunk_size) in slot order for a node plan.
    """
    if isinstance(plan, NodeRepairPlan):
        slots = [execute_repair(p, store) for p in plan.chunk_plans]
        return np.stack(slots, axis=1)
    out = np.zeros((store.stripe_count, store.params.chunk_size), dtype=np.uint8)
    for _, cid in plan.reads:
        np.bitwise_xor(out, store.chunk(cid), out=out)
    return out


def chunks_from_shards(params: SrcParams, shards: dict[int, np.ndarray],
                       targets: list[ChunkId]) -> np.ndarray:
    """Derive the target chunks from the shards of any k nodes.

    Decodes the stripe data, then applies only the generator columns the
    targets need: a coded chunk combines the k data chunks of its part, a
    parity chunk the f*k data chunks of every part with its column tiled
    f times.  Returns (stripe_count, len(targets), chunk_size) in target
    order, so a node's node_chunks give that node's shard.
    """
    f, k, cs = params.f, params.k, params.chunk_size
    g = params.generator()
    stripes = max((s.shape[0] for s in shards.values()), default=0)
    raw = reconstruct(shards, params, stripes * params.stripe_data_bytes)
    data = np.frombuffer(raw, dtype=np.uint8).reshape(stripes, f * k, cs)
    coeffs = np.zeros((len(targets), f, k), dtype=np.uint8)
    for t, target in enumerate(targets):
        parts = slice(0, f) if target.part > f else \
            slice(target.part - 1, target.part)
        coeffs[t, parts] = g.entries[:, target.subscript - 1]
    out = np.zeros((stripes, len(targets), cs), dtype=np.uint8)
    gf256.addmul_rows(np.moveaxis(out, 1, 0), coeffs.reshape(len(targets), -1),
                      np.moveaxis(data, 1, 0))
    return out


def degraded_read(params: SrcParams, target: ChunkId,
                  store: ChunkStore) -> np.ndarray:
    """Serve a chunk without persisting anything.

    Live target node: direct read.  Otherwise look-up repair in memory;
    if a helper is down too, fall back to full reconstruction from any k
    live nodes and re-derive the chunk.
    """
    lay = layout(params)
    home = lay.chunk_location(target)
    if store.has_node(home):
        return store.shards[home][:, lay.slot_of(target)].copy()
    try:
        return execute_repair(chunk_repair_plan(params, target), store)
    except RepairError:
        live = store.live_nodes
        if len(live) < params.k:
            raise InsufficientDataError(
                f"{len(live)} live nodes cannot serve {target.label(params.f)}; "
                f"need {params.k}")
        shards = {i: store.shards[i] for i in live[:params.k]}
        return chunks_from_shards(params, shards, [target])[:, 0]
