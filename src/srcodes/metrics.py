"""Closed-form storage/repair metrics and scheme comparisons.

Conventions: a file of size M is split into k chunks of M/k, so storage
per node (alpha) and repair bandwidth (gamma) are expressed in units of
M/k; disk accesses (d) counts distinct surviving nodes touched by one
node rebuild; rate (R) is useful data over raw storage.  For every row
R == k / (n * alpha).

The MSR/MBR rows are formula evaluations for comparison only; no such
codes are constructed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import SrcParams
from .errors import ParameterError

REPLICATION_FACTOR = 3


@dataclass(frozen=True)
class MetricRow:
    scheme: str
    storage_per_node: float   # alpha, units of M/k
    repair_bandwidth: float   # gamma, units of M/k
    disk_accesses: int
    rate: float

    def __post_init__(self) -> None:
        assert 0 < self.rate <= 1 and self.storage_per_node >= 1
        assert self.disk_accesses >= 1

    @property
    def storage_cost(self) -> float:
        """Raw bytes stored per useful byte (1/R)."""
        return 1.0 / self.rate

    @property
    def normalized_cost(self) -> float:
        """Storage cost relative to 3-way replication."""
        return self.storage_cost / REPLICATION_FACTOR


def src_metrics(params: SrcParams) -> MetricRow:
    """alpha=(f+1)/f, gamma=f+1, d=min(2f, n-1), R=f*k/((f+1)*n)."""
    n, k, f = params.n, params.k, params.f
    return MetricRow(
        scheme=f"({n},{k},{f})-SRC",
        storage_per_node=(f + 1) / f,
        repair_bandwidth=float(f + 1),
        disk_accesses=min(2 * f, n - 1),
        rate=f * k / ((f + 1) * n),
    )


def comparison_table(n: int, k: int, f: int) -> list[MetricRow]:
    """The five-scheme comparison: MDS, MSR(d=n-1), MBR(d=k), MBR(d=n-1),
    SRC, all four metrics per row."""
    if not 1 <= k < n:
        raise ParameterError(f"need k < n, got n={n}, k={k}")
    if f + 1 > n:
        raise ParameterError(f"need f+1 <= n, got f={f}, n={n}")
    mbr_k_alpha = 2 * k / (k + 1)
    mbr_n_alpha = 2 * (n - 1) / (2 * (n - 1) - k + 1)
    rows = [
        MetricRow(f"({n},{k})-MDS", 1.0, float(k), k, k / n),
        MetricRow(f"({n},{k},d={n - 1})-MSR", 1.0, (n - 1) / (n - k), n - 1, k / n),
        MetricRow(f"({n},{k},d={k})-MBR", mbr_k_alpha, mbr_k_alpha, k,
                  k / (n * mbr_k_alpha)),
        MetricRow(f"({n},{k},d={n - 1})-MBR", mbr_n_alpha, mbr_n_alpha, n - 1,
                  k / (n * mbr_n_alpha)),
        src_metrics(SrcParams(n=n, k=k, f=f, chunk_size=1)),
    ]
    return rows


def replication_normalized_cost(n: int, k: int, f: int | None = None) -> float:
    """Storage cost vs 3-way replication: SRC when f is given, plain
    (n, k) MDS/RS otherwise."""
    rate = f * k / ((f + 1) * n) if f is not None else k / n
    return (1.0 / rate) / REPLICATION_FACTOR


@dataclass(frozen=True)
class AsymptoticRow:
    k: int
    f: float
    src_rate: float            # f/(f+1) * R
    bandwidth_ratio: float     # node-repair bandwidth vs MSR at d=n-1


def asymptotic_report(ks: list[int], rate: float,
                      log_base: float = 2.0) -> list[AsymptoticRow]:
    """Trend table for f growing as log(k) at fixed target rate R = k/n.

    Per k: f = log_base(k), SRC effective rate f/(f+1)*R, and the ratio
    of SRC node-repair bandwidth (f+1 chunks) to the MSR minimum
    ((n-1)/(n-k) with n = k/R).  Logarithm base defaults to 2 and is
    echoed in the CLI output.
    """
    if not 0 < rate < 1:
        raise ParameterError(f"rate must be in (0, 1), got {rate}")
    rows = []
    for k in ks:
        if k < 2:
            raise ParameterError("k values must be >= 2")
        f = math.log(k, log_base)
        msr_gamma = (k / rate - 1) / (k / rate - k)
        rows.append(AsymptoticRow(
            k=k, f=f,
            src_rate=f / (f + 1) * rate,
            bandwidth_ratio=(f + 1) / msr_gamma,
        ))
    return rows


def format_table(rows: list[MetricRow]) -> str:
    """Aligned text rendering of metric rows."""
    return render_table(
        ["scheme", "alpha(M/k)", "gamma(M/k)", "disks", "rate", "cost-vs-3rep"],
        [[r.scheme, f"{r.storage_per_node:.4f}", f"{r.repair_bandwidth:.4f}",
          str(r.disk_accesses), f"{r.rate:.4f}", f"{r.normalized_cost:.4f}"]
         for r in rows])


def render_table(header: list[str], body: list[list[str]]) -> str:
    """Header and rows as left-aligned columns two spaces apart."""
    widths = [max(len(row[i]) for row in [header] + body)
              for i in range(len(header))]
    fmt = "  ".join("{:<%d}" % w for w in widths)
    return "\n".join(fmt.format(*row) for row in [header] + body)


def csv_table(rows: list[MetricRow]) -> str:
    """Comma-separated rendering (for plotting); scheme labels are quoted
    because they contain commas."""
    lines = ["scheme,alpha,gamma,disks,rate,normalized_cost"]
    for r in rows:
        lines.append(f'"{r.scheme}",{r.storage_per_node!r},'
                     f"{r.repair_bandwidth!r},{r.disk_accesses},{r.rate!r},"
                     f"{r.normalized_cost!r}")
    return "\n".join(lines)
