"""Measured sharded Figure 8: breaking the single-process ceiling.

The measured Figure 8 (:mod:`repro.harness.measured`) tops out where one
Python process tops out: with every shard of work behind one GIL, adding
clients past CPU saturation adds nothing. This module measures the same
multi-client TPC-C mix against the *sharded* deployment
(:mod:`repro.workloads.tpcc.sharded`): N engine shards as separate OS
processes behind the router process, the unmodified AE driver speaking
the binary wire protocol to one address.

The sweep keeps the single-process run's mix, per-round-trip RTT and
per-client transaction budget, with one deliberate difference:

* **Warehouses scale with the peak client count** (16), TPC-C's own
  scaling rule (one home warehouse per terminal). At the single-process
  run's 8 warehouses, 16 clients pair up two-per-warehouse and Payment's
  exclusive warehouse-row lock serializes each pair — the wire lengthens
  every lock-hold window by two hops, so the 8-warehouse sharded mix
  measures lock-convoy collapse, not deployment scaling. One warehouse
  per client removes cross-client contention from *both* systems being
  compared; the same scale is used for the same-host in-process
  reference measured alongside.

Whether sharding can *exceed* the in-process ceiling is a property of
the host, so the result records the host topology and a same-host
in-process reference. In-process execution saturates one core with zero
wire overhead; N shard processes need N cores to show parallel speedup.
On a multi-core host (≥4 effective CPUs) the ≥4-shard curve must clear
the in-process 16-client number by 1.5x; on a single-core host that is
arithmetically impossible for *any* multi-process design — every frame
costs CPU the in-process build does not spend — and the honest claim
becomes a bounded wire tax: the 4-shard deployment must stay within a
small factor of the same-host in-process ceiling. Both numbers ship in
``BENCH_figure8_sharded.json`` so the curve is interpretable wherever
it was produced.

Clients are pinned to home warehouses round-robin, so every shard serves
an equal slice of the client population (the partitioned-OLTP regime the
paper's TPC-C configuration assumes; cross-shard 2PC is exercised by
``tests/net/test_2pc_torture.py``, not the steady-state mix). After the
largest client count, every shard's TPC-C invariants are audited at
quiesce over the wire — a lost update on any shard fails the benchmark
rather than flattering the curve.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.harness.experiments import TpccScale, _config
from repro.harness.measured import MEASURED_CLIENT_COUNTS, MEASURED_RTT_S
from repro.workloads.tpcc.config import TRANSACTION_MIX, EncryptionMode
from repro.workloads.tpcc.driver import build_system, run_multi_client
from repro.workloads.tpcc.invariants import check_invariants
from repro.workloads.tpcc.sharded import start_sharded_system, wait_for_quiesce

#: Shard-process counts swept by the benchmark. 1 shard isolates the pure
#: wire/router overhead against the in-process baseline; 8 shards is past
#: the point where the client process or router becomes the bottleneck.
SHARD_COUNTS = (1, 2, 4, 8)

#: Home warehouses at the peak client count: one per client (TPC-C's
#: terminal-per-warehouse scaling rule). See the module docstring.
SHARDED_WAREHOUSES = 16


def default_sharded_scale() -> TpccScale:
    """The sweep's scale: one home warehouse per peak client."""
    return TpccScale(
        warehouses=SHARDED_WAREHOUSES,
        districts_per_warehouse=2,
        customers_per_district=15,
        items=40,
    )


def host_info() -> dict:
    """CPU topology the curve was measured on — scaling depends on it."""
    try:
        effective = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # non-Linux
        effective = os.cpu_count() or 1
    cpu_max = None
    try:
        cpu_max = Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "effective_cpus": effective,
        "cgroup_cpu_max": cpu_max,
    }


@dataclass
class ShardedCurve:
    """Measured throughput for one shard count across client counts."""

    n_shards: int
    clients: list[int]
    throughput: list[float]          # txn/s, wall-clock measured
    transactions: list[int]
    rollbacks: list[int]
    invariant_violations: list[str] = field(default_factory=list)
    mode: str = "SQL-PT"

    def at(self, n: int) -> float:
        return self.throughput[self.clients.index(n)]

    def to_json(self) -> dict:
        return {
            "n_shards": self.n_shards,
            "mode": self.mode,
            "clients": self.clients,
            "throughput_txn_s": self.throughput,
            "transactions": self.transactions,
            "rollbacks": self.rollbacks,
            "invariant_violations": self.invariant_violations,
        }


@dataclass
class Figure8ShardedResult:
    rtt_s: float
    transactions_per_client: int
    mode: str
    inprocess_baseline_txn_s: float | None   # archived artifact, 16 clients
    curves: list[ShardedCurve]
    host: dict = field(default_factory=host_info)
    inprocess_same_host_txn_s: float | None = None  # measured this run
    ae_curves: list[ShardedCurve] = field(default_factory=list)

    @property
    def scaling_gate_applicable(self) -> bool:
        """Can N processes beat one? Only with cores to run them on."""
        return (self.host.get("effective_cpus") or 1) >= 4

    def curve(self, n_shards: int) -> ShardedCurve:
        for curve in self.curves:
            if curve.n_shards == n_shards:
                return curve
        raise KeyError(n_shards)

    def speedup_over_inprocess(self, n_shards: int, n_clients: int) -> float | None:
        if not self.inprocess_baseline_txn_s:
            return None
        return self.curve(n_shards).at(n_clients) / self.inprocess_baseline_txn_s

    def wire_tax(self, n_shards: int, n_clients: int) -> float | None:
        """Sharded throughput over the *same-host* in-process ceiling."""
        if not self.inprocess_same_host_txn_s:
            return None
        return self.curve(n_shards).at(n_clients) / self.inprocess_same_host_txn_s

    def print_rows(self) -> str:
        lines = [
            "clients  "
            + "  ".join(f"{c.n_shards:>2d} shard(s)" for c in self.curves)
            + "  (measured txn/s)"
        ]
        counts = self.curves[0].clients
        for i, n in enumerate(counts):
            cells = [f"{c.throughput[i]:10.1f}" for c in self.curves]
            lines.append(f"{n:7d}  " + "  ".join(cells))
        if self.inprocess_same_host_txn_s:
            lines.append(
                f"same-host in-process 16-client ceiling: "
                f"{self.inprocess_same_host_txn_s:.1f} txn/s"
            )
        if self.inprocess_baseline_txn_s:
            lines.append(
                f"archived in-process 16-client baseline: "
                f"{self.inprocess_baseline_txn_s:.1f} txn/s"
            )
        lines.append(
            f"host: {self.host.get('effective_cpus')} effective CPU(s) "
            f"(scaling gate {'applies' if self.scaling_gate_applicable else 'off'})"
        )
        for curve in self.ae_curves:
            pts = ", ".join(
                f"{n} cl: {t:.1f}" for n, t in zip(curve.clients, curve.throughput)
            )
            lines.append(f"AE ({curve.mode}) {curve.n_shards} shard(s): {pts}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "figure": "8-sharded",
            "mode": self.mode,
            "rtt_s": self.rtt_s,
            "transactions_per_client": self.transactions_per_client,
            "host": self.host,
            "scaling_gate_applicable": self.scaling_gate_applicable,
            "inprocess_baseline_txn_s": self.inprocess_baseline_txn_s,
            "inprocess_same_host_txn_s": self.inprocess_same_host_txn_s,
            "speedup_over_inprocess_at_16": {
                str(c.n_shards): self.speedup_over_inprocess(c.n_shards, 16)
                for c in self.curves
                if 16 in c.clients
            },
            "wire_tax_at_16": {
                str(c.n_shards): self.wire_tax(c.n_shards, 16)
                for c in self.curves
                if 16 in c.clients
            },
            "curves": [c.to_json() for c in self.curves],
            "ae_curves": [c.to_json() for c in self.ae_curves],
        }


def _load_inprocess_baseline(path: Path | None) -> float | None:
    """PT 16-client txn/s from ``BENCH_figure8_measured.json``, if present."""
    if path is None or not path.exists():
        return None
    data = json.loads(path.read_text())
    for curve in data.get("curves", ()):
        if curve.get("label") == "SQL-PT":
            clients = curve["clients"]
            if 16 in clients:
                return curve["throughput_txn_s"][clients.index(16)]
    return None


def measure_inprocess_reference(
    scale: TpccScale,
    n_clients: int = 16,
    transactions_per_client: int = 16,
    rtt_s: float = MEASURED_RTT_S,
    lock_timeout_s: float = 0.15,
) -> float:
    """Same-host, same-scale in-process PT ceiling for the wire-tax ratio.

    Re-measured in the same run (rather than read from the archived
    artifact) because the ceiling is a property of the host executing the
    benchmark: comparing a sharded curve measured here against an
    in-process number measured on different hardware says nothing.
    """
    config = _config(EncryptionMode.PLAINTEXT, scale)
    system = build_system(config, lock_timeout_s=lock_timeout_s)
    system.transactions.run_mix(8, TRANSACTION_MIX)
    result = run_multi_client(
        system,
        n_clients=n_clients,
        transactions_per_client=transactions_per_client,
        simulated_rtt_s=rtt_s,
        seed=5000 + n_clients,
    )
    violations = check_invariants(system)
    if violations:
        raise AssertionError(
            f"in-process reference violated invariants: {violations}"
        )
    return result.throughput


def _measure_one_shard_count(
    n_shards: int,
    scale: TpccScale,
    client_counts: tuple[int, ...],
    transactions_per_client: int,
    rtt_s: float,
    lock_timeout_s: float,
    mode: EncryptionMode = EncryptionMode.PLAINTEXT,
) -> ShardedCurve:
    config = _config(mode, scale)
    system = start_sharded_system(
        config,
        n_shards=n_shards,
        lock_timeout_s=lock_timeout_s,
    )
    try:
        # Warm every shard's plan cache with one pinned client per shard
        # (seeds 0..n-1 map to warehouses 1..n, which round-robin onto
        # shards 0..n-1) so the timed window measures steady state.
        for shard_idx in range(n_shards):
            system.new_client(seed=shard_idx).run_mix(4, TRANSACTION_MIX)

        throughput: list[float] = []
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
            transactions.append(result.transactions)
            rollbacks.append(
                sum(client.counts.rollbacks for client in result.clients)
            )
        wait_for_quiesce(system)
        violations = system.audit()
        return ShardedCurve(
            n_shards=n_shards,
            clients=list(client_counts),
            throughput=throughput,
            transactions=transactions,
            rollbacks=rollbacks,
            invariant_violations=violations,
            mode=config.label,
        )
    finally:
        system.shutdown()


def run_figure8_sharded(
    scale: TpccScale | None = None,
    shard_counts: tuple[int, ...] = SHARD_COUNTS,
    client_counts: tuple[int, ...] = MEASURED_CLIENT_COUNTS,
    transactions_per_client: int = 16,
    rtt_s: float = MEASURED_RTT_S,
    lock_timeout_s: float = 0.15,
    baseline_path: Path | str | None = None,
    output_path: Path | str | None = None,
    measure_inprocess: bool = True,
    ae_shard_counts: tuple[int, ...] = (1, 4),
    ae_client_counts: tuple[int, ...] = (1, 16),
) -> Figure8ShardedResult:
    """Measure multi-process sharded TPC-C throughput per shard count.

    For each shard count: fork that many shard processes plus the router
    process, load the standard scale through the router, warm every
    shard, then sweep real client threads exactly as the single-process
    measured Figure 8 does (same RTT, same per-client budget, same
    seeds). Shards execute statements in parallel OS processes, so on a
    host with cores for them the curve keeps rising where the single
    process flattened; on a single-core host the result instead bounds
    the wire tax against a same-host in-process reference. A smaller AE
    (RND) sweep rides along so the encrypted configuration's sharded
    behavior is published next to plaintext's.
    """
    scale = scale or default_sharded_scale()
    curves = [
        _measure_one_shard_count(
            n_shards,
            scale,
            client_counts,
            transactions_per_client,
            rtt_s,
            lock_timeout_s,
        )
        for n_shards in shard_counts
    ]
    ae_curves = [
        _measure_one_shard_count(
            n_shards,
            scale,
            ae_client_counts,
            transactions_per_client,
            rtt_s,
            lock_timeout_s,
            mode=EncryptionMode.RND,
        )
        for n_shards in ae_shard_counts
    ]
    # Measured LAST: the reference builds a full engine in *this* process,
    # and no shard process may be forked from a copy of it.
    inprocess_same_host = (
        measure_inprocess_reference(
            scale,
            transactions_per_client=transactions_per_client,
            rtt_s=rtt_s,
            lock_timeout_s=lock_timeout_s,
        )
        if measure_inprocess
        else None
    )
    result = Figure8ShardedResult(
        rtt_s=rtt_s,
        transactions_per_client=transactions_per_client,
        mode="SQL-PT",
        inprocess_baseline_txn_s=_load_inprocess_baseline(
            Path(baseline_path) if baseline_path is not None else None
        ),
        curves=curves,
        inprocess_same_host_txn_s=inprocess_same_host,
        ae_curves=ae_curves,
    )
    if output_path is not None:
        path = Path(output_path)
        path.write_text(json.dumps(result.to_json(), indent=2, sort_keys=True))
    return result


__all__ = [
    "SHARD_COUNTS",
    "SHARDED_WAREHOUSES",
    "ShardedCurve",
    "Figure8ShardedResult",
    "default_sharded_scale",
    "host_info",
    "measure_inprocess_reference",
    "run_figure8_sharded",
]
