"""Deterministic discrete-event simulator of cluster chunk repair.

Models a master plus data servers in the Hadoop mold: fixed-size chunks
are grouped into redundancy sets placed on distinct machines; when a
machine fails the master schedules one repair job per lost chunk.  A job
reads one chunk from each helper machine, streams them to a rebuild
target, and writes the rebuilt chunk there; a degraded read is the same
pipeline minus the write-back.  The helpers are k seeded survivors of an
(n, k) MDS code, of which RS(n, k) is one and 3-way replication the
(3, 1) one, or an SRC chunk's f look-up helpers: the machines that hold
the chunks core.plan_chunks reads for that chunk when it plans the lost
node from every other node (repair.node_plan).

Transfers are fluid flows with max-min fair rates, recomputed at event
boundaries by progressive filling: each round freezes the flows of the
end with the smallest fair share, the first such end in order of first
use.  Reads, transfer, and write-back are pipelined inside a job, so the
flows leaving a machine share both its uplink and its disk read, and the
flows entering it share its downlink and, unless the read is degraded,
its disk write.  Each machine end is thus one resource: its source end
has capacity min(net, disk read), its destination end min(net, disk
write), or net alone for a degraded read.  With the default disk speeds
the 1 Gb/s link binds at both.  Concurrency is throttled by a
master-level dispatch window plus a per-machine cap on concurrent
inbound rebuilds, both config knobs.  A job's rebuild target is the
non-member with the fewest inbound rebuilds below the cap, ties going to
a seeded per-run priority, then the id.

Placement puts each set on the least-loaded machines, ties going to a
seeded key that each pick redraws, then the id.  Every set adds the same
load to each member, so loads never differ by more than one level, and
with keys drawn in pick order each level's machines are taken in key
order before any of the next level's.  So placement draws each level's
keys in one call and sorts the level once, stably so that ties go to the
lower id; only the set that straddles two levels needs care, as its own
members are not yet in the new level.  The sets live in one read-only
(set_count, n) array, a row per set, of the narrowest unsigned dtype
that holds the largest machine id: uint8 up to 256 machines, uint16 up
to 65 536, uint32 past that.  Jobs are found a block of rows at a time
and name each machine by one shared int, so a run holds little beyond
that array.

A job counts its own unfinished flows and finishes with its last.  The
event loop is single-threaded and fully deterministic: identical config
and seed give bit-identical reports.  Run different configs in parallel
processes if needed; a cluster is immutable once built.
"""

from __future__ import annotations

import math
import random
import sys
from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import SrcParams
from .errors import ParameterError, PlacementError
from .repair import node_plan

GBIT = 1e9 / 8  # bytes/s of a 1 Gb/s link


@dataclass(frozen=True)
class Scheme:
    """Redundancy scheme descriptor: 3-way replication, RS(n, k), or
    SRC(n, k, f).  Replication is the (3, 1) MDS code, so every kind
    needs 1 <= k < n."""

    kind: str                 # "replication" | "rs" | "src"
    n: int                    # members per redundancy set
    k: int
    f: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("replication", "rs", "src"):
            raise ParameterError(f"unknown scheme kind {self.kind!r}")
        if self.kind == "src" and (self.f is None or self.f < 1):
            raise ParameterError("src scheme needs f >= 1")
        if not 1 <= self.k < self.n:
            raise ParameterError(f"need 1 <= k < n, got n={self.n}, k={self.k}")

    @classmethod
    def replication(cls) -> "Scheme":
        return cls(kind="replication", n=3, k=1)

    @classmethod
    def rs(cls, n: int, k: int) -> "Scheme":
        return cls(kind="rs", n=n, k=k)

    @classmethod
    def src(cls, n: int, k: int, f: int) -> "Scheme":
        return cls(kind="src", n=n, k=k, f=f)

    @property
    def chunks_per_member(self) -> int:
        return self.f + 1 if self.kind == "src" else 1

    @property
    def helper_reads(self) -> int:
        """Chunks read to repair one lost chunk: f for SRC, else k."""
        return self.f if self.kind == "src" else self.k

    @property
    def label(self) -> str:
        if self.kind == "replication":
            return f"{self.n}-way-replication"
        if self.kind == "rs":
            return f"RS({self.n},{self.k})"
        return f"SRC({self.n},{self.k},{self.f})"


@dataclass(frozen=True)
class ClusterConfig:
    scheme: Scheme
    machines: int = 100
    data_bytes_per_machine: int = 4_000_000_000
    chunk_size: int = 64 * 2**20
    net_bytes_per_s: float = GBIT
    disk_read_bytes_per_s: float = 200e6
    disk_write_bytes_per_s: float = 200e6
    max_inbound_repairs: int = 2      # concurrent rebuilds landing per machine
    dispatch_window: int = 8          # concurrent repair jobs cluster-wide
    seed: int = 1

    def __post_init__(self) -> None:
        if self.machines <= self.scheme.n:
            raise PlacementError(
                f"{self.machines} machines cannot host width-{self.scheme.n} "
                f"sets plus a rebuild target")
        if not all(0 < x < math.inf for x in (
                self.net_bytes_per_s, self.disk_read_bytes_per_s,
                self.disk_write_bytes_per_s)):
            raise ParameterError("bandwidths must be positive and finite")
        if not all(1 <= x < math.inf for x in (
                self.chunk_size, self.data_bytes_per_machine)):
            raise ParameterError("sizes must be positive and finite")
        if self.max_inbound_repairs < 1 or self.dispatch_window < 1:
            raise ParameterError("concurrency knobs must be >= 1")

    @property
    def chunks_per_machine(self) -> int:
        return max(1, round(self.data_bytes_per_machine / self.chunk_size))


@dataclass(frozen=True, eq=False)
class Cluster:
    """Placement result: redundancy sets over machines (0-based ids).

    Row j of the read-only (set_count, n) array sets, of dtype
    np.min_scalar_type(machines - 1), holds the member machines of set
    j; for SRC the column is the storage-node index (column p = node
    p+1) and each member holds f+1 chunks of the set.
    """

    config: ClusterConfig
    sets: np.ndarray


_DRAW_BLOCK = 2**24


def _draws(rng: random.Random, count: int) -> np.ndarray:
    """count successive rng.random() values, as one float64 array, leaving
    rng where those calls would: CPython's random() is two 32-bit words,
    a = w0 >> 5 and b = w1 >> 6, as (a * 2**26 + b) / 2**53, and
    randbytes hands out getrandbits' words least significant first.  A
    call per _DRAW_BLOCK values gives the same words as one call for all,
    and keeps each under the 2**31 bits that overflow getrandbits."""
    out = np.empty(count)
    for i in range(0, count, _DRAW_BLOCK):
        w = np.frombuffer(rng.randbytes(8 * min(_DRAW_BLOCK, count - i)), "<u4")
        out[i:i + _DRAW_BLOCK] = (w[0::2] >> 5) * 67108864.0 + (w[1::2] >> 6)
    return out * (1.0 / 9007199254740992.0)


def build_cluster(config: ClusterConfig) -> Cluster:
    """Place redundancy sets on least-loaded machines with seeded
    tie-breaking; deterministic for a fixed seed.

    Each set takes the n machines with the fewest chunks, ties going to
    the lower seeded key and then the lower machine id, and gives each
    member a fresh key in pick order.  Every set adds the same load to
    each member, so loads differ by at most one level, and a level's
    machines are picked in order of their keys before any machine of the
    next level.  So each level's keys are drawn in one call and sorted
    once.  The one set that straddles two levels takes the rest of the
    old level and then the lowest keys of the new one among the machines
    already in it: its own old-level members join the new level only once
    the set is complete.  A cluster no array can hold is a ParameterError.
    """
    scheme = config.scheme
    n = scheme.n
    rng = random.Random(f"{config.seed}:placement")
    slots_per_set = n * scheme.chunks_per_member
    total_slots = config.machines * config.chunks_per_machine
    set_count = total_slots // slots_per_set
    if set_count < 1:
        raise PlacementError("not enough chunk slots for a single redundancy set")
    dtype = np.min_scalar_type(config.machines - 1)
    if max(8 * config.machines, set_count * n * dtype.itemsize) > sys.maxsize:
        raise ParameterError(f"{set_count} sets of {n} on {config.machines} "
                             "machines are too large to hold")

    key = _draws(rng, config.machines)   # indexed by machine id
    order = np.argsort(key, kind="stable")   # ties to the lower id
    sets = np.empty((set_count, n), dtype)
    done = 0
    carry: list[int] = []   # the straddling set's members from the old level
    while True:
        picks = np.concatenate((carry, order)) if carry else order
        count = min(len(picks) // n, set_count - done)
        sets[done:done + count] = picks[:count * n].reshape(count, n)
        done += count
        if done == set_count:
            sets.flags.writeable = False
            return Cluster(config=config, sets=sets)
        carry = picks[count * n:].tolist()
        key[order] = _draws(rng, config.machines)   # drawn in pick order
        order = np.argsort(key, kind="stable")
        if carry:   # the straddling set's new-level picks skip its own members
            front = order[:n].tolist()
            head = [m for m in front if m not in carry][:n - len(carry)]
            order[:n] = head + [m for m in front if m not in head]


@dataclass
class _Job:
    members: tuple[int, ...]   # its set's machines, the failed one too
    sources: tuple[int, ...]   # helper machines, one chunk read from each
    dest: int = -1
    left: int = 0              # its flows not yet finished, once dispatched
    finish: float = -1.0


@dataclass
class _Flow:
    src: int
    dst: int
    remaining: float
    job: _Job
    rate: float = 0.0


@dataclass(frozen=True)
class SimReport:
    """Outcome of one failure experiment.  Durations are per repaired
    chunk, measured from the failure instant to that chunk's completion
    (queueing included), in layout order."""

    scheme: str
    seed: int
    machines: int
    chunks_per_machine: int
    failed_machine: int
    degraded: bool
    lost_chunks: int
    helper_reads_per_chunk: int
    durations: tuple[float, ...]
    elapsed: float
    throughput: float            # lost bytes / elapsed, bytes per second
    bytes_read: int
    bytes_transferred: int
    bytes_written: int
    disk_accesses: int           # sum over jobs of distinct helper machines
    data_loss: bool

    def to_text(self) -> str:
        mode = "degraded-read" if self.degraded else "repair"
        lines = [
            f"scheme={self.scheme} mode={mode} seed={self.seed}",
            f"machines={self.machines} chunks_per_machine={self.chunks_per_machine} "
            f"failed_machine={self.failed_machine}",
            f"lost_chunks={self.lost_chunks} helper_reads_per_chunk={self.helper_reads_per_chunk}",
            f"elapsed_s={self.elapsed!r}",
            f"throughput_bytes_per_s={self.throughput!r}",
            f"bytes_read={self.bytes_read} bytes_transferred={self.bytes_transferred} "
            f"bytes_written={self.bytes_written}",
            f"disk_accesses={self.disk_accesses} data_loss={self.data_loss}",
            "chunk_durations_s=" + ",".join(repr(d) for d in self.durations),
        ]
        return "\n".join(lines)


def _make_jobs(cluster: Cluster, failed: int,
               rng: random.Random) -> list[_Job]:
    """One job per chunk the failed machine held, in layout order.  One
    failure never loses data: every set has n distinct members and k < n,
    so at least k of them survive."""
    config = cluster.config
    scheme = config.scheme
    jobs: list[_Job] = []
    if scheme.kind == "src":   # one look-up plan per node position
        src_params = SrcParams(scheme.n, scheme.k, scheme.f, config.chunk_size)
        plans = [node_plan(src_params, node)
                 for node in range(1, scheme.n + 1)]
        where = src_params.chunk_location
    ids = np.arange(config.machines).astype(object)   # one int per machine
    # its sets' rows, 4096 at a time: no mask of the whole array
    blocks = np.split(cluster.sets, range(4096, len(cluster.sets), 4096))
    hit = np.concatenate([b[(b == failed).any(axis=1)] for b in blocks])
    for members in (tuple(ids[row]) for row in hit):
        if scheme.kind != "src":   # any k survivors of an MDS code
            survivors = sorted(m for m in members if m != failed)
            jobs.append(_Job(members, tuple(rng.sample(survivors, scheme.k))))
        else:
            for step in plans[members.index(failed)].steps:
                helpers = tuple(members[where(c) - 1] for c in step.sources)
                assert failed not in helpers
                jobs.append(_Job(members, helpers))
    return jobs


def _allocate(flows: list[_Flow], config: ClusterConfig, degraded: bool) -> None:
    """Max-min fair rates by progressive filling over machine ends: a
    flow uses its source's ("src", m) and its destination's ("dst", m).
    Each round freezes the open flows of the end with the smallest share
    of its residual capacity, the first such end in order of first use."""
    net = config.net_bytes_per_s
    cap = {"src": min(net, config.disk_read_bytes_per_s),
           "dst": net if degraded else min(net, config.disk_write_bytes_per_s)}
    users: dict[tuple[str, int], list[_Flow]] = {}
    for fl in flows:
        fl.rate = 0.0   # open; a frozen flow's rate is at least 1e-9
        users.setdefault(("src", fl.src), []).append(fl)
        users.setdefault(("dst", fl.dst), []).append(fl)
    residual = {key: cap[key[0]] for key in users}
    live = {key: len(v) for key, v in users.items()}   # open flows

    def share(key: tuple[str, int]) -> float:
        return max(residual[key], 0.0) / live[key]

    while live:
        best = min(live, key=share)   # the first of equal shares
        rate = max(share(best), 1e-9)  # float-dust floor; reallocated next event
        for fl in users[best]:
            if fl.rate:
                continue
            fl.rate = rate
            for key in (("src", fl.src), ("dst", fl.dst)):
                residual[key] -= rate
                live[key] -= 1
                if not live[key]:
                    del live[key]


def _run(cluster: Cluster, failed: int, degraded: bool) -> SimReport:
    config = cluster.config
    scheme = config.scheme
    if not 0 <= failed < config.machines:
        raise ParameterError(f"failed machine {failed} outside cluster")
    rng = random.Random(f"{config.seed}:jobs")
    jobs = _make_jobs(cluster, failed, rng)
    assert all(len(job.sources) == scheme.helper_reads for job in jobs)

    priority = [rng.random() for _ in range(config.machines)]
    by_priority = sorted(range(config.machines), key=priority.__getitem__)
    inbound = [0] * config.machines
    pending = deque(jobs)
    flows: list[_Flow] = []
    running = 0   # dispatched jobs not yet finished
    t = 0.0
    while True:
        while pending and running < config.dispatch_window:
            members = pending[0].members
            # an idle target ends the scan, so it passes over at most the
            # set's members and the targets of running jobs
            dest, fewest = None, config.max_inbound_repairs
            for m in by_priority:
                if inbound[m] < fewest and m not in members:
                    dest, fewest = m, inbound[m]
                    if fewest == 0:
                        break
            if dest is None:
                break
            job = pending.popleft()
            job.dest, job.left = dest, len(job.sources)
            inbound[dest] += 1
            running += 1
            flows.extend(_Flow(src, dest, float(config.chunk_size), job)
                         for src in job.sources)
        if not flows:
            break
        _allocate(flows, config, degraded)
        dt = min(fl.remaining / fl.rate for fl in flows)
        t += dt
        still = []
        for fl in flows:
            fl.remaining -= fl.rate * dt
            if fl.remaining > 1e-3:
                still.append(fl)
                continue
            job = fl.job
            job.left -= 1
            if not job.left:
                job.finish = t
                inbound[job.dest] -= 1
                running -= 1
        flows = still
    if pending:
        raise RuntimeError("scheduler stalled with pending jobs")

    cs = config.chunk_size
    reads = sum(len(j.sources) for j in jobs)
    durations = tuple(j.finish for j in jobs)
    elapsed = max(durations) if durations else 0.0
    lost_bytes = len(jobs) * cs
    return SimReport(
        scheme=scheme.label,
        seed=config.seed,
        machines=config.machines,
        chunks_per_machine=config.chunks_per_machine,
        failed_machine=failed,
        degraded=degraded,
        lost_chunks=len(jobs),
        helper_reads_per_chunk=scheme.helper_reads,
        durations=durations,
        elapsed=elapsed,
        throughput=lost_bytes / elapsed if elapsed else 0.0,
        bytes_read=reads * cs,
        bytes_transferred=reads * cs,
        bytes_written=0 if degraded else lost_bytes,
        disk_accesses=sum(len(set(j.sources)) for j in jobs),
        data_loss=False,
    )


def run_node_failure(cluster: Cluster, failed: int) -> SimReport:
    """Fail one machine and repair every chunk it held."""
    return _run(cluster, failed, degraded=False)


def run_degraded_read(cluster: Cluster, failed: int) -> SimReport:
    """Serve reads of all the failed machine's chunks without writing the
    repaired data back."""
    return _run(cluster, failed, degraded=True)


def repair_time_cdf(report: SimReport) -> list[tuple[float, float]]:
    """Sorted (duration, percentile) points; percentile of the i-th of N
    sorted durations is (i+1)/N, so the last point is (max, 1.0)."""
    if not report.durations:
        return []
    times = sorted(report.durations)
    n = len(times)
    return [(d, (i + 1) / n) for i, d in enumerate(times)]


def cdf_csv(report: SimReport) -> str:
    lines = ["repair_time_s,percentile"]
    for d, p in repair_time_cdf(report):
        lines.append(f"{d!r},{p!r}")
    return "\n".join(lines)
