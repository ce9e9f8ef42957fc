"""The calibrated closed queueing-network model behind Figures 8 and 9.

Why a model (see DESIGN.md): the paper runs on a 20-core Azure VM with 100
concurrent Benchcraft threads; pure Python under the GIL cannot exhibit
that concurrency natively. What our engine *can* produce faithfully is the
per-transaction **service demand** of each configuration — real parsing,
real crypto, real enclave evaluation — and the per-transaction round-trip
count of each connection mode. Those calibrated demands feed a classic
closed queueing network solved with approximate Mean Value Analysis:

* a **server CPU** center with ``server_cores`` servers (the DS15 v2's 20),
* an **enclave** center with ``enclave_threads`` servers (1 or 4 — the
  SQL-AE-RND-1 / SQL-AE-RND-4 distinction), present only for RND configs,
* a **network delay** center: round-trips per transaction × RTT (AE
  connections pay the extra ``sp_describe_parameter_encryption`` trip).

Multi-server centers use Seidmann's approximation (a c-server center of
demand D ≈ a single-server center of demand D/c plus a delay of
D·(c−1)/c), which is standard and accurate for these populations.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ServiceDemands:
    """Calibrated per-transaction demands for one configuration."""

    label: str
    host_cpu_s: float              # server CPU seconds per transaction
    enclave_cpu_s: float = 0.0     # enclave CPU seconds per transaction
    roundtrips: float = 0.0        # client↔server round-trips per transaction


@dataclass(frozen=True)
class ModelConfig:
    """Hardware / network parameters (paper defaults)."""

    server_cores: int = 20
    enclave_threads: int = 4
    rtt_s: float = 0.0005          # in-datacenter round-trip
    client_think_s: float = 0.0    # Benchcraft issues back-to-back


@dataclass
class _Center:
    demand: float                  # per-visit total demand (single-server equiv.)
    fixed_delay: float = 0.0       # Seidmann residual + any pure delay
    queue: float = 0.0             # MVA state


def _seidmann(demand: float, servers: int) -> tuple[float, float]:
    """(queueing demand, fixed delay) for a c-server center."""
    if servers <= 1:
        return demand, 0.0
    return demand / servers, demand * (servers - 1) / servers


def solve_throughput(
    demands: ServiceDemands, model: ModelConfig, clients: int
) -> float:
    """Closed-network throughput (txn/s) for ``clients`` concurrent threads."""
    centers: list[_Center] = []
    delay = model.client_think_s + demands.roundtrips * model.rtt_s

    cpu_demand, cpu_extra = _seidmann(demands.host_cpu_s, model.server_cores)
    centers.append(_Center(demand=cpu_demand))
    delay += cpu_extra

    if demands.enclave_cpu_s > 0:
        enclave_demand, enclave_extra = _seidmann(
            demands.enclave_cpu_s, model.enclave_threads
        )
        centers.append(_Center(demand=enclave_demand))
        delay += enclave_extra

    # Exact MVA over queueing centers + one delay center.
    throughput = 0.0
    for n in range(1, clients + 1):
        residence = delay
        for center in centers:
            center_r = center.demand * (1.0 + center.queue)
            residence += center_r
        throughput = n / residence if residence > 0 else float("inf")
        for center in centers:
            center.queue = throughput * center.demand * (1.0 + center.queue)
    return throughput


@dataclass
class ThroughputCurve:
    """X(N) for one configuration, plus normalization support."""

    label: str
    clients: list[int]
    throughput: list[float]

    def at(self, n: int) -> float:
        return self.throughput[self.clients.index(n)]

    def max_throughput(self) -> float:
        return max(self.throughput)


def sweep(
    demands: ServiceDemands,
    model: ModelConfig,
    client_counts: list[int],
) -> ThroughputCurve:
    """Throughput across client-thread counts (the Figure 8 x-axis)."""
    return ThroughputCurve(
        label=demands.label,
        clients=list(client_counts),
        throughput=[solve_throughput(demands, model, n) for n in client_counts],
    )


@dataclass
class NormalizedFigure:
    """A set of curves normalized to a baseline's maximum (as the paper's
    Figures 8 and 9 are)."""

    curves: list[ThroughputCurve]
    baseline_label: str
    normalized: dict[str, list[float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        baseline = next(c for c in self.curves if c.label == self.baseline_label)
        peak = baseline.max_throughput()
        for curve in self.curves:
            self.normalized[curve.label] = [x / peak for x in curve.throughput]

    def rows(self) -> list[tuple]:
        """(clients, value per curve...) rows for printing."""
        clients = self.curves[0].clients
        out = []
        for i, n in enumerate(clients):
            out.append(tuple([n] + [self.normalized[c.label][i] for c in self.curves]))
        return out
