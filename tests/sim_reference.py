"""Reference placement for the simulator tests: a heap of
(load, key, machine) entries, one pop and one push per chunk slot.

Each redundancy set pops the n least-loaded machines, ties going to the
lower seeded key and then the lower machine id, and pushes them back one
level up with fresh keys drawn in pick order.  sim.build_cluster must
reproduce this placement exactly, from the same "{seed}:placement" RNG.
"""

import heapq
import random

from srcodes.errors import PlacementError


def heap_placement(config) -> tuple[tuple[int, ...], ...]:
    scheme = config.scheme
    rng = random.Random(f"{config.seed}:placement")
    slots_per_set = scheme.n * scheme.chunks_per_member
    set_count = config.machines * config.chunks_per_machine // slots_per_set
    if set_count < 1:
        raise PlacementError("not enough chunk slots for a single redundancy set")

    heap = [(0, rng.random(), m) for m in range(config.machines)]
    heapq.heapify(heap)
    sets = []
    for _ in range(set_count):
        picked = [heapq.heappop(heap) for _ in range(scheme.n)]
        sets.append(tuple(m for _, _, m in picked))
        for load, _, m in picked:
            heapq.heappush(heap, (load + scheme.chunks_per_member,
                                  rng.random(), m))
    return tuple(sets)
