"""Markov MTTF estimation for redundancy sets and whole systems.

One redundancy set is a birth-death chain over its failed-member count:
state i fails at rate (n-i)*lambda (independent exponential member
lifetimes), repairs at rate mu for i >= 1 (one repair at a time), and
state n-k+1 is absorbing (data lost).  The expected absorption time from
the all-healthy state is computed with the standard first-step
recurrence

    delta_0 = 1/b_0,   delta_i = (1 + d_i * delta_{i-1}) / b_i,
    MTTF    = sum(delta_i),

which uses only positive terms and is numerically stable where a naive
linear solve loses digits to the huge lambda/mu ratio.

The modeled member is a storage node, and a set protects k * node_bytes
of useful data.  System MTTF divides the set MTTF by the number of
independent sets covering the stored data.  Repair times are whole-node
rebuild times from the simulator: 3-way replication is anchored at
15 minutes, and every other scheme takes 15 minutes times its simulated
rebuild time over replication's, on ClusterConfig's default cluster.
That cluster stores 4 GB per machine whatever node_bytes is: node_bytes
sets only the number of sets, so a tenfold node_bytes divides that
number, and multiplies system MTTF, by ten and leaves every repair time
as it is.  Simulating the given node size instead would make a run's
time grow without bound with node_bytes.

Pure functions; use from any number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError
from .metrics import render_table
from .sim import ClusterConfig, Scheme, build_cluster, run_node_failure

HOURS_PER_YEAR = 365 * 24
DISK_MTTF_HOURS = 5 * HOURS_PER_YEAR          # 5-year disk lifetime
DEFAULT_SYSTEM_BYTES = 10**15                 # 1 PB of useful data
DEFAULT_NODE_BYTES = ClusterConfig.data_bytes_per_machine
REPLICATION_REPAIR_HOURS = 0.25               # the one stated repair time


@dataclass(frozen=True)
class MarkovParams:
    n: int
    k: int
    repair_hours: float
    disk_mttf_hours: float = DISK_MTTF_HOURS
    system_bytes: float = DEFAULT_SYSTEM_BYTES
    node_bytes: float = DEFAULT_NODE_BYTES

    def __post_init__(self) -> None:
        if not 1 <= self.k < self.n:
            raise ParameterError(f"need 1 <= k < n, got n={self.n}, k={self.k}")
        # an infinite repair time is no repair at all
        finite = (self.disk_mttf_hours, self.system_bytes, self.node_bytes)
        if not (0 < self.repair_hours <= math.inf
                and all(0 < x < math.inf for x in finite)):
            raise ParameterError(
                "repair_hours must be positive; disk_mttf_hours, "
                "system_bytes and node_bytes positive and finite")

    @property
    def failure_rate(self) -> float:
        return 1.0 / self.disk_mttf_hours

    @property
    def repair_rate(self) -> float:
        return 1.0 / self.repair_hours

    @property
    def redundancy_set_count(self) -> float:
        """Independent sets covering the stored data; each set holds
        k * node_bytes of useful data."""
        return self.system_bytes / (self.k * self.node_bytes)


def absorption_time(birth: list[float], death: list[float]) -> float:
    """Expected time to absorption from state 0 of a birth-death chain.

    birth[i] is the rate out of transient state i toward i+1 for
    i = 0..m; death[i] the repair rate back to i-1 (death[0] unused);
    absorption happens past state m.
    """
    if len(birth) != len(death) or not birth:
        raise ParameterError("birth/death rate lists must match and be non-empty")
    if birth[0] <= 0:
        raise ParameterError("birth rate from state 0 must be positive")
    delta = 1.0 / birth[0]
    total = delta
    for i in range(1, len(birth)):
        if birth[i] <= 0:
            raise ParameterError(f"birth rate from state {i} must be positive")
        delta = (1.0 + death[i] * delta) / birth[i]
        total += delta
    return total


def mttf_redundancy_set(p: MarkovParams) -> float:
    """Hours until a set first loses data (more than n-k members down)."""
    lam, mu = p.failure_rate, p.repair_rate
    m = p.n - p.k  # last transient state
    birth = [(p.n - i) * lam for i in range(m + 1)]
    death = [0.0] + [mu] * m
    return absorption_time(birth, death)


def mttf_system(p: MarkovParams) -> float:
    """Hours until any of the system's redundancy sets loses data,
    assuming independent sets: set MTTF / set count."""
    return mttf_redundancy_set(p) / p.redundancy_set_count


def _rebuild_seconds(scheme: Scheme) -> float:
    """Simulated time to rebuild machine 0 on the default cluster."""
    return run_node_failure(build_cluster(ClusterConfig(scheme=scheme)),
                            0).elapsed


@dataclass(frozen=True)
class MttfRow:
    redundancy: Scheme
    repair_hours: float
    set_mttf_hours: float
    system_mttf_hours: float

    @property
    def scheme(self) -> str:
        return self.redundancy.label


def mttf_table(pairs: list[tuple[int, int]] | None = None,
               **overrides) -> list[MttfRow]:
    """Scheme x (n, k) sweep with simulated repair times.

    Replication appears once (it does not depend on (n, k)); RS and SRC
    (f=2) get one row per pair.  Default pairs: (10,6), (20,16), (50,46).
    A pair the default cluster cannot simulate is a usage error.
    """
    if pairs is None:
        pairs = [(10, 6), (20, 16), (50, 46)]
    schemes = ([Scheme.replication()] + [Scheme.rs(n, k) for n, k in pairs]
               + [Scheme.src(n, k, 2) for n, k in pairs])
    seconds = [_rebuild_seconds(s) for s in schemes]
    rows = []
    for s, secs in zip(schemes, seconds):
        hours = REPLICATION_REPAIR_HOURS * secs / seconds[0]
        p = MarkovParams(n=s.n, k=s.k, repair_hours=hours, **overrides)
        rows.append(MttfRow(s, hours, mttf_redundancy_set(p), mttf_system(p)))
    return rows


def format_mttf_table(rows: list[MttfRow]) -> str:
    return render_table(
        ["scheme", "repair_h", "set MTTF (h)", "system MTTF (h)"],
        [[r.scheme, f"{r.repair_hours:.4f}", f"{r.set_mttf_hours:.4e}",
          f"{r.system_mttf_hours:.4e}"] for r in rows])


def csv_mttf_table(rows: list[MttfRow]) -> str:
    lines = ["scheme,n,k,repair_hours,set_mttf_hours,system_mttf_hours"]
    for r in rows:
        lines.append(f'"{r.scheme}",{r.redundancy.n},{r.redundancy.k},'
                     f"{r.repair_hours!r},{r.set_mttf_hours!r},"
                     f"{r.system_mttf_hours!r}")
    return "\n".join(lines)
