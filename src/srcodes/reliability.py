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

The modeled member is a storage node: the stated repair times are
whole-node rebuild times (matching the simulator's node-failure runs),
and a set protects k * node_bytes of useful data.  System MTTF divides
the set MTTF by the number of independent sets covering the stored data.

Pure numeric functions; use from any number of threads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ParameterError
from .metrics import render_table

HOURS_PER_YEAR = 365 * 24
DISK_MTTF_HOURS = 5 * HOURS_PER_YEAR          # 5-year disk lifetime
DEFAULT_SYSTEM_BYTES = 10**15                 # 1 PB of useful data
DEFAULT_NODE_BYTES = 4_000_000_000            # simulator's scaled default

REPAIR_HOURS = {"replication": 0.25, "src": 0.5}
RS_REFERENCE_K = 6   # RS node repair scales with k, anchored to SRC at k=6


def scheme_repair_hours(kind: str, k: int) -> float:
    """Default node repair time: replication 15 min, SRC 30 min, RS
    growing linearly in k (30 min at k=6)."""
    if kind in REPAIR_HOURS:
        return REPAIR_HOURS[kind]
    if kind == "rs":
        return REPAIR_HOURS["src"] * k / RS_REFERENCE_K
    raise ParameterError(f"unknown scheme kind {kind!r}")


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
        if min(self.repair_hours, self.disk_mttf_hours,
               self.system_bytes, self.node_bytes) <= 0:
            raise ParameterError("all rates and sizes must be positive")

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


def params_for_scheme(kind: str, n: int, k: int, **overrides) -> MarkovParams:
    """MarkovParams with the per-scheme default repair time.

    Replication uses n copies tolerating n-1 losses (k=1); RS/SRC
    tolerate n-k losses.
    """
    if kind == "replication":
        p = MarkovParams(n=n, k=1, repair_hours=REPAIR_HOURS["replication"])
        return replace(p, **overrides) if overrides else p
    p = MarkovParams(n=n, k=k, repair_hours=scheme_repair_hours(kind, k))
    return replace(p, **overrides) if overrides else p


def params_from_sim_report(report, n: int, k: int, **overrides) -> MarkovParams:
    """MarkovParams whose repair time and node size come from a measured
    node-repair simulation instead of the stated defaults.

    The repair time is the run's elapsed time and node_bytes the failed
    machine's rebuilt data, so the Markov member matches the simulated one.
    """
    if report.degraded or not report.bytes_written:
        raise ParameterError("need a node-repair report, not a degraded read")
    fields = {"repair_hours": report.elapsed / 3600.0,
              "node_bytes": float(report.bytes_written)}
    fields.update(overrides)
    return MarkovParams(n=n, k=k, **fields)


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


@dataclass(frozen=True)
class MttfRow:
    scheme: str
    n: int
    k: int
    repair_hours: float
    set_mttf_hours: float
    system_mttf_hours: float


def mttf_table(pairs: list[tuple[int, int]] | None = None,
               **overrides) -> list[MttfRow]:
    """Scheme x (n, k) sweep with the stated defaults.

    Replication appears once (it does not depend on (n, k)); RS and SRC
    (f=2) get one row per pair.  Default pairs: (10,6), (20,16), (50,46).
    """
    if pairs is None:
        pairs = [(10, 6), (20, 16), (50, 46)]
    rows = []
    p = params_for_scheme("replication", 3, 1, **overrides)
    rows.append(MttfRow("3-way-replication", 3, 1, p.repair_hours,
                        mttf_redundancy_set(p), mttf_system(p)))
    for kind, label in (("rs", "RS"), ("src", "SRC")):
        for n, k in pairs:
            p = params_for_scheme(kind, n, k, **overrides)
            name = f"{label}({n},{k},2)" if kind == "src" else f"{label}({n},{k})"
            rows.append(MttfRow(name, n, k, p.repair_hours,
                                mttf_redundancy_set(p), mttf_system(p)))
    return rows


def format_mttf_table(rows: list[MttfRow]) -> str:
    return render_table(
        ["scheme", "repair_h", "set MTTF (h)", "system MTTF (h)"],
        [[r.scheme, f"{r.repair_hours:.4f}", f"{r.set_mttf_hours:.4e}",
          f"{r.system_mttf_hours:.4e}"] for r in rows])


def csv_mttf_table(rows: list[MttfRow]) -> str:
    lines = ["scheme,n,k,repair_hours,set_mttf_hours,system_mttf_hours"]
    for r in rows:
        lines.append(f'"{r.scheme}",{r.n},{r.k},{r.repair_hours!r},'
                     f"{r.set_mttf_hours!r},{r.system_mttf_hours!r}")
    return "\n".join(lines)
