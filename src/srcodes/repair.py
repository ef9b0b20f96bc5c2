"""Look-up repair of one whole node, as core.plan_chunks plans it.

plan_chunks is the one repair planner.  node_plan asks it for a node's
f+1 chunks with every other node's chunks available: one XOR step per
chunk, of the f others with its subscript, so the node reads f(f+1)
chunks per stripe from min(2f, n-1) disks.  `repair --dry-run` prints
those steps (describe), and the simulator's SRC repair jobs read their
sources.  `srcodes repair` itself plans on the shard files that exist.
"""

from __future__ import annotations

from .core import ChunkPlan, SrcParams, plan_chunks


def node_plan(params: SrcParams, node: int) -> ChunkPlan:
    """The plan for a node's f+1 chunks, in slot order, from the chunks
    of every other node."""
    return plan_chunks(params, (c for other in range(1, params.n + 1)
                                if other != node
                                for c in params.node_chunks(other)),
                       params.node_chunks(node))


def describe(params: SrcParams, node: int, stripe_count: int) -> list[str]:
    """The lines of `repair --dry-run`: per chunk of the node, the chunks
    XORed into it and their nodes; then, for the whole node, the helper
    disks, the chunk reads per stripe and the bytes read."""
    f, cs = params.f, params.chunk_size
    where = params.chunk_location
    plan = node_plan(params, node)
    lines = [f"rebuild node {node}:"]
    for step in plan.steps:
        chunks = step.sources
        lines.append(f"  repair {step.outs[0].label(f)}:")
        lines += [f"    read {c.label(f)} from node {where(c)}" for c in chunks]
        lines.append(f"    combine: XOR of {len(chunks)} chunks")
        lines.append(f"    bytes moved: {len(chunks) * cs * stripe_count}")
    disks = sorted({where(c) for c in plan.reads})
    lines.append(f"  distinct helper disks: {len(disks)} ({disks})")
    lines.append(f"  chunk reads per stripe: {len(plan.reads)}")
    lines.append(f"  bytes moved: {len(plan.reads) * cs * stripe_count}")
    return lines
