"""Experiment runners that regenerate the paper's Figures 8 and 9.

The pipeline per DESIGN.md Section 5:

1. **Calibrate** — run the real TPC-C mix single-stream on our engine for
   each configuration, measuring per-transaction wall time (= service
   demand), enclave CPU seconds (from the enclave's own accounting), and
   client↔server round-trips (from the driver's accounting).
2. **Model** — feed the demands into the closed queueing network
   (:mod:`repro.harness.perfmodel`) with the paper's hardware parameters
   (20 server cores; 1 or 4 enclave threads).
3. **Report** — normalized throughput exactly as the figures plot it.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field

from repro.harness.perfmodel import (
    ModelConfig,
    NormalizedFigure,
    ServiceDemands,
    sweep,
)
from repro.workloads.tpcc.config import TRANSACTION_MIX, EncryptionMode, TpccConfig
from repro.workloads.tpcc.driver import TpccSystem, build_system

FIGURE8_CLIENTS = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]


@dataclass
class Calibration:
    """Measured per-transaction demands for one configuration."""

    label: str
    wall_s_per_txn: float
    enclave_s_per_txn: float
    roundtrips_per_txn: float
    transactions_run: int

    def demands(self) -> ServiceDemands:
        return ServiceDemands(
            label=self.label,
            host_cpu_s=max(self.wall_s_per_txn - self.enclave_s_per_txn, 1e-9),
            enclave_cpu_s=self.enclave_s_per_txn,
            roundtrips=self.roundtrips_per_txn,
        )


def calibrate_system(system: TpccSystem, n_transactions: int = 60) -> Calibration:
    """Run the standard mix single-stream and extract demands."""
    txns = system.transactions
    # Warm up caches (plan cache; describe cache only if enabled; CEK cache).
    txns.run_mix(10, TRANSACTION_MIX)
    # Start every timed window from an empty collector backlog: otherwise a
    # full collection of whatever heap the process has built up can land
    # inside one configuration's window and not another's, and at small
    # scale that pause outweighs the demand differences being measured.
    gc.collect()

    rt_before = system.connection.stats.total_roundtrips
    enclave_before = system.enclave.counters.cpu_seconds if system.enclave else 0.0
    start = time.perf_counter()
    txns.run_mix(n_transactions, TRANSACTION_MIX)
    wall = time.perf_counter() - start
    rt_after = system.connection.stats.total_roundtrips
    enclave_after = system.enclave.counters.cpu_seconds if system.enclave else 0.0

    return Calibration(
        label=system.config.label,
        wall_s_per_txn=wall / n_transactions,
        enclave_s_per_txn=(enclave_after - enclave_before) / n_transactions,
        roundtrips_per_txn=(rt_after - rt_before) / n_transactions,
        transactions_run=n_transactions,
    )


@dataclass
class TpccScale:
    """Reduced calibration scale (the model maps it to the W=800 setting)."""

    warehouses: int = 1
    districts_per_warehouse: int = 2
    customers_per_district: int = 30
    items: int = 50


def _config(mode: EncryptionMode, scale: TpccScale, enclave_threads: int = 4) -> TpccConfig:
    return TpccConfig(
        warehouses=scale.warehouses,
        districts_per_warehouse=scale.districts_per_warehouse,
        customers_per_district=scale.customers_per_district,
        items=scale.items,
        mode=mode,
        enclave_threads=enclave_threads,
    )


@dataclass
class Figure8Result:
    figure: NormalizedFigure
    calibrations: dict[str, Calibration] = field(default_factory=dict)

    def print_rows(self) -> str:
        labels = [c.label for c in self.figure.curves]
        lines = ["clients  " + "  ".join(f"{label:>16s}" for label in labels)]
        for row in self.figure.rows():
            clients, *values = row
            lines.append(
                f"{clients:7d}  " + "  ".join(f"{v:16.3f}" for v in values)
            )
        return "\n".join(lines)


def run_figure8(
    scale: TpccScale | None = None,
    model: ModelConfig | None = None,
    n_transactions: int = 60,
    client_counts: list[int] | None = None,
) -> Figure8Result:
    """Figure 8: normalized throughput vs client threads for SQL-PT,
    SQL-PT-AEConn, and SQL-AE (RND, 4 enclave threads)."""
    scale = scale or TpccScale()
    model = model or ModelConfig()
    clients = client_counts or FIGURE8_CLIENTS

    calibrations: dict[str, Calibration] = {}
    curves = []
    for mode in (EncryptionMode.PLAINTEXT, EncryptionMode.PLAINTEXT_AECONN, EncryptionMode.RND):
        system = build_system(_config(mode, scale))
        calibration = calibrate_system(system, n_transactions)
        calibrations[calibration.label] = calibration
        curves.append(sweep(calibration.demands(), model, clients))
    figure = NormalizedFigure(curves=curves, baseline_label="SQL-PT")
    return Figure8Result(figure=figure, calibrations=calibrations)


@dataclass
class Figure9Result:
    """Normalized throughput at 100 clients for the four AE configurations."""

    normalized: dict[str, float]
    calibrations: dict[str, Calibration]
    enclave_vs_det_gap: float  # (DET - RND4) / DET, the paper's 12.3%

    def print_rows(self) -> str:
        lines = [f"{'configuration':>16s}  normalized"]
        for label, value in self.normalized.items():
            lines.append(f"{label:>16s}  {value:10.3f}")
        lines.append(
            f"enclave (RND-4) vs DET gap: {self.enclave_vs_det_gap * 100:.1f}% "
            "(paper: 12.3%)"
        )
        return "\n".join(lines)


def run_figure9(
    scale: TpccScale | None = None,
    model: ModelConfig | None = None,
    n_transactions: int = 60,
    clients: int = 100,
) -> Figure9Result:
    """Figure 9: SQL-PT-AEConn vs SQL-AE-DET vs SQL-AE-RND-1 vs SQL-AE-RND-4
    at 100 client threads (plus SQL-PT for normalization)."""
    scale = scale or TpccScale()
    model = model or ModelConfig()

    calibrations: dict[str, Calibration] = {}

    def measure(mode: EncryptionMode, threads: int = 4) -> Calibration:
        system = build_system(_config(mode, scale, enclave_threads=threads))
        calibration = calibrate_system(system, n_transactions)
        calibrations[calibration.label] = calibration
        return calibration

    pt = measure(EncryptionMode.PLAINTEXT)
    aeconn = measure(EncryptionMode.PLAINTEXT_AECONN)
    det = measure(EncryptionMode.DET)
    rnd = measure(EncryptionMode.RND)  # same demands serve RND-1 and RND-4

    from repro.harness.perfmodel import solve_throughput

    pt_peak = solve_throughput(pt.demands(), model, clients)
    results = {
        "SQL-PT": 1.0,
        "SQL-PT-AEConn": solve_throughput(aeconn.demands(), model, clients) / pt_peak,
        "SQL-AE-DET": solve_throughput(det.demands(), model, clients) / pt_peak,
        "SQL-AE-RND-1": solve_throughput(
            rnd.demands(), ModelConfig(model.server_cores, 1, model.rtt_s, model.client_think_s), clients
        ) / pt_peak,
        "SQL-AE-RND-4": solve_throughput(
            rnd.demands(), ModelConfig(model.server_cores, 4, model.rtt_s, model.client_think_s), clients
        ) / pt_peak,
    }
    det_x = results["SQL-AE-DET"]
    gap = (det_x - results["SQL-AE-RND-4"]) / det_x if det_x else 0.0
    return Figure9Result(normalized=results, calibrations=calibrations, enclave_vs_det_gap=gap)
