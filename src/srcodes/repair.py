"""Look-up repair: restore chunks by XORing same-subscript chunks.

Every chunk shares its subscript with exactly f other chunks, each on a
different node, and the f+1 of them XOR to zero.  A lost chunk is
therefore the XOR of the other f, read straight off their nodes with no
decoding.  The helpers come from StripeLayout.helpers and their nodes
from the placement inverse (StripeLayout.chunk_location), never from
closed-form index sets, and a node plan touching every slot hits exactly
min(2f, n-1) distinct disks.

Plans are immutable values that say which shards a repair reads, as
`repair --dry-run` prints them; the chunks themselves are produced by
core.produce, whose planner core.plan_chunks picks the same helpers
for a look-up repair.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ChunkId, SrcParams, layout


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
    plan = RepairPlan(params=params, target=target, reads=tuple(
        (lay.chunk_location(helper), helper) for helper in lay.helpers(target)))
    assert len(plan.reads) == params.f and \
        lay.chunk_location(target) not in plan.disk_access_set
    return plan


def node_repair_plan(params: SrcParams, failed: int) -> NodeRepairPlan:
    """Plans for all f+1 chunks of a failed node, in slot order."""
    plans = tuple(chunk_repair_plan(params, cid)
                  for cid in layout(params).node_chunks(failed))
    return NodeRepairPlan(params=params, node=failed, chunk_plans=plans)
