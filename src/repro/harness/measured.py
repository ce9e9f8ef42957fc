"""Measured multi-client Figure 8: real threads, real locks, real enclave.

The modeled Figure 8 (:mod:`repro.harness.experiments`) calibrates
single-stream service demands and solves a queueing network, because pure
Python under the GIL cannot natively exhibit 100-thread concurrency. This
module produces the *measured* companion: N real client threads, each
with its own driver connection, driving the standard TPC-C mix through
the concurrent session layer (statements on each session's thread,
two-phase locking, shared plan cache, shared enclave sessions).

To make measured scaling meaningful despite the GIL, each driver
round-trip sleeps ``simulated_rtt_s`` (an in-datacenter RTT), restoring
the regime the paper measures in: a single client is RTT-bound, so
additional clients overlap their network waits and throughput rises until
the (GIL-serialized) server CPU saturates. The same RTT is fed to the
queueing model, so the modeled and measured curves are directly
comparable — EXPERIMENTS.md overlays them.

The run doubles as a concurrency-correctness gate: after the largest
client count, the TPC-C invariants
(:mod:`repro.workloads.tpcc.invariants`) are checked at quiesce, so a
lost update or index torn by concurrency fails the benchmark rather than
silently skewing the curve.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.harness.experiments import TpccScale, _config, calibrate_system
from repro.harness.perfmodel import ModelConfig, solve_throughput
from repro.workloads.tpcc.config import TRANSACTION_MIX, EncryptionMode
from repro.workloads.tpcc.driver import build_system, run_multi_client
from repro.workloads.tpcc.invariants import check_invariants

#: Real-thread client counts. The paper sweeps 10–100 Benchcraft threads;
#: real Python threads are meaningful up to the teens, past which the GIL
#: serializes everything and adds only scheduling noise.
MEASURED_CLIENT_COUNTS = (1, 2, 4, 8, 16)

#: Simulated in-datacenter RTT per driver round-trip. Large against the
#: per-statement CPU cost at small scale, so the single-client stream is
#: network-bound exactly as in the paper's setup.
MEASURED_RTT_S = 0.002

MEASURED_MODES = (
    EncryptionMode.PLAINTEXT,
    EncryptionMode.PLAINTEXT_AECONN,
    EncryptionMode.RND,
)


@dataclass
class MeasuredCurve:
    """Measured throughput for one configuration across client counts."""

    label: str
    clients: list[int]
    throughput: list[float]          # txn/s, wall-clock measured
    modeled: list[float]             # txn/s from the queueing model
    transactions: list[int]          # committed+rolled-back per point
    rollbacks: list[int]
    invariant_violations: list[str] = field(default_factory=list)

    def at(self, n: int) -> float:
        return self.throughput[self.clients.index(n)]


@dataclass
class Figure8MeasuredResult:
    rtt_s: float
    transactions_per_client: int
    curves: list[MeasuredCurve]

    def curve(self, label: str) -> MeasuredCurve:
        for curve in self.curves:
            if curve.label == label:
                return curve
        raise KeyError(label)

    def normalized(self) -> dict[str, list[float]]:
        """Each curve normalized to SQL-PT's peak, as Figure 8 plots."""
        peak = max(self.curve("SQL-PT").throughput)
        return {
            curve.label: [t / peak for t in curve.throughput]
            for curve in self.curves
        }

    def print_rows(self) -> str:
        labels = [c.label for c in self.curves]
        lines = [
            "clients  "
            + "  ".join(f"{label:>16s}" for label in labels)
            + "  (measured txn/s; modeled in parens)"
        ]
        counts = self.curves[0].clients
        for i, n in enumerate(counts):
            cells = [
                f"{c.throughput[i]:7.1f} ({c.modeled[i]:6.1f})"
                for c in self.curves
            ]
            lines.append(f"{n:7d}  " + "  ".join(f"{cell:>16s}" for cell in cells))
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "figure": "8-measured",
            "rtt_s": self.rtt_s,
            "transactions_per_client": self.transactions_per_client,
            "normalized": self.normalized(),
            "curves": [
                {
                    "label": c.label,
                    "clients": c.clients,
                    "throughput_txn_s": c.throughput,
                    "modeled_txn_s": c.modeled,
                    "transactions": c.transactions,
                    "rollbacks": c.rollbacks,
                    "invariant_violations": c.invariant_violations,
                }
                for c in self.curves
            ],
        }


def run_figure8_measured(
    scale: TpccScale | None = None,
    client_counts: tuple[int, ...] = MEASURED_CLIENT_COUNTS,
    transactions_per_client: int = 16,
    rtt_s: float = MEASURED_RTT_S,
    lock_timeout_s: float = 0.15,
    output_path: Path | str | None = None,
) -> Figure8MeasuredResult:
    """Measure TPC-C throughput with real concurrent clients per mode.

    For each of SQL-PT / SQL-PT-AEConn / SQL-AE-RND-4: build one system,
    warm its caches, then for each client count spawn that many real
    client threads (each with its own connection and simulated RTT) and
    measure wall-clock throughput. After the largest count the TPC-C
    invariants are audited at quiesce. The queueing model is solved with
    ``server_cores=1`` (the GIL) and the same RTT, giving the modeled
    curve the measured one should track in shape.
    """
    scale = scale or TpccScale(
        warehouses=8, districts_per_warehouse=2, customers_per_district=15, items=40
    )
    curves: list[MeasuredCurve] = []
    for mode in MEASURED_MODES:
        config = _config(mode, scale)
        # A short lock timeout keeps deadlock victims cheap: under real
        # contention a victim rolls back and retries in ~lock_timeout_s
        # instead of stalling the whole curve for the default 5 s.
        system = build_system(config, lock_timeout_s=lock_timeout_s)
        # Warm the plan cache / CEK cache / enclave sessions before timing.
        system.transactions.run_mix(8, TRANSACTION_MIX)

        calibration = calibrate_system(system, n_transactions=20)
        model = ModelConfig(
            server_cores=1,                    # the GIL is one core
            enclave_threads=config.enclave_threads,
            rtt_s=rtt_s,
        )
        demands = calibration.demands()

        throughput: list[float] = []
        modeled: list[float] = []
        transactions: list[int] = []
        rollbacks: list[int] = []
        for n in client_counts:
            result = run_multi_client(
                system,
                n_clients=n,
                transactions_per_client=transactions_per_client,
                simulated_rtt_s=rtt_s,
                seed=5000 + n,
            )
            throughput.append(result.throughput)
            modeled.append(solve_throughput(demands, model, n))
            transactions.append(result.transactions)
            rollbacks.append(
                sum(client.counts.rollbacks for client in result.clients)
            )
        violations = check_invariants(system)
        curves.append(
            MeasuredCurve(
                label=config.label,
                clients=list(client_counts),
                throughput=throughput,
                modeled=modeled,
                transactions=transactions,
                rollbacks=rollbacks,
                invariant_violations=violations,
            )
        )

    result = Figure8MeasuredResult(
        rtt_s=rtt_s,
        transactions_per_client=transactions_per_client,
        curves=curves,
    )
    if output_path is not None:
        path = Path(output_path)
        path.write_text(json.dumps(result.to_json(), indent=2, sort_keys=True))
    return result


__all__ = [
    "MEASURED_CLIENT_COUNTS",
    "MEASURED_RTT_S",
    "MeasuredCurve",
    "Figure8MeasuredResult",
    "run_figure8_measured",
]
