"""The Benchcraft-like TPC-C driver: system setup and measurement.

``build_system`` assembles the full stack for one configuration (enclave,
HGS, server, AE driver, schema, data). ``measure_service_times`` runs each
transaction type in a closed single-stream loop and reports per-type
service times — the calibration inputs of the Section 5 performance model
(see :mod:`repro.harness.perfmodel`).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.attestation.hgs import AttestationPolicy, HostGuardianService
from repro.attestation.tpm import HostMachine
from repro.client.driver import Connection, connect
from repro.crypto.rsa import RsaKeyPair
from repro.enclave import CallMode, Enclave, EnclaveBinary
from repro.keys import KeyProviderRegistry, default_registry
from repro.sqlengine.server import SqlServer
from repro.tools.provisioning import provision_cek, provision_cmk
from repro.workloads.tpcc.config import (
    TRANSACTION_MIX,
    EncryptionMode,
    TpccConfig,
)
from repro.workloads.tpcc.generator import TpccLoader
from repro.workloads.tpcc.schema import create_index_statements, create_table_statements
from repro.workloads.tpcc.transactions import TpccTransactions

CEK_NAME = "TpccCEK"
CMK_NAME = "TpccCMK"
CMK_PATH = "https://vault.azure.net/keys/tpcc-cmk"


@dataclass
class TpccSystem:
    """A fully assembled TPC-C system under one configuration."""

    config: TpccConfig
    server: SqlServer
    connection: Connection
    registry: KeyProviderRegistry
    enclave: Enclave | None = None
    transactions: TpccTransactions = field(init=False)

    def __post_init__(self) -> None:
        self.transactions = TpccTransactions(
            connection=self.connection, config=self.config,
            rng=random.Random(self.config.seed + 1),
        )

    def new_client(
        self, seed: int, simulated_rtt_s: float = 0.0
    ) -> TpccTransactions:
        """An additional independent client stream (own connection).

        ``simulated_rtt_s`` is slept once per driver↔server round-trip,
        restoring the RTT-dominated regime of the paper's measurements
        (see :mod:`repro.harness.measured`).
        """
        connection = connect(
            self.server,
            self.registry,
            column_encryption=self.config.ae_connection,
            attestation_policy=self.connection.attestation_policy,
            cache_describe_results=self.connection.options.cache_describe_results,
            simulated_rtt_s=simulated_rtt_s,
        )
        return TpccTransactions(
            connection=connection, config=self.config, rng=random.Random(seed)
        )


def build_system(
    config: TpccConfig,
    enclave_call_mode: CallMode = CallMode.QUEUED,
    cache_describe_results: bool = False,
    lock_timeout_s: float = 5.0,
    freshness_anchor: bool = False,
) -> TpccSystem:
    """Assemble server, enclave, attestation, driver, schema, and data.

    ``cache_describe_results`` defaults to False for benchmark fidelity:
    the paper's driver pays the sp_describe_parameter_encryption round-trip
    per execution (client-side caching is the improvement Section 5.4.1
    suggests but does not ship).

    ``freshness_anchor=True`` arms rollback detection: RND systems anchor
    in the enclave, enclave-less ones in the simulated TPM NV slot. Off
    by default so paper-mode calibration (Figures 8/9) is untouched.
    """
    enclave = None
    host = None
    hgs = None
    policy = None
    needs_enclave = config.mode is EncryptionMode.RND
    if needs_enclave:
        author = RsaKeyPair.generate(1024)
        binary = EnclaveBinary.build(author)
        enclave = Enclave(binary)
        host = HostMachine()
        hgs = HostGuardianService()
        hgs.register_host(host.boot_and_measure())
        policy = AttestationPolicy(trusted_author_ids=frozenset({binary.author_id}))

    freshness = None
    if freshness_anchor:
        from repro.attestation.tpm import TpmNvAnchor
        from repro.sqlengine.storage.freshness import (
            EnclaveAnchorBackend,
            FreshnessAnchor,
        )

        backend = EnclaveAnchorBackend(enclave) if enclave is not None else TpmNvAnchor()
        freshness = FreshnessAnchor(backend)

    server = SqlServer(
        enclave=enclave,
        host_machine=host,
        hgs=hgs,
        enclave_threads=config.enclave_threads,
        enclave_call_mode=enclave_call_mode,
        lock_timeout_s=lock_timeout_s,
        eval_batch_size=config.eval_batch_size,
        freshness=freshness,
    )
    registry = default_registry()
    connection = connect(
        server,
        registry,
        column_encryption=config.ae_connection,
        attestation_policy=policy,
        cache_describe_results=cache_describe_results,
    )

    if config.uses_encryption:
        provider = registry.get("AZURE_KEY_VAULT_PROVIDER")
        cmk = provision_cmk(
            connection,
            provider,
            CMK_NAME,
            CMK_PATH,
            allow_enclave_computations=needs_enclave,
        )
        provision_cek(connection, provider, cmk, CEK_NAME)

    for ddl in create_table_statements(config, CEK_NAME):
        connection.execute_ddl(ddl)
    system = TpccSystem(
        config=config,
        server=server,
        connection=connection,
        registry=registry,
        enclave=enclave,
    )
    TpccLoader(connection=connection, config=config).load()
    for ddl in create_index_statements(config):
        connection.execute_ddl(ddl)
    return system


def measure_service_times(
    system: TpccSystem, per_type: int = 20
) -> dict[str, float]:
    """Single-stream mean service time (seconds) per transaction type.

    This is the calibration run: with one client and no queueing, the
    measured wall time per transaction equals its service demand on our
    engine, including all crypto and enclave work for the configuration.
    """
    times: dict[str, float] = {}
    txns = system.transactions
    for kind in ("new_order", "payment", "order_status", "delivery", "stock_level"):
        # Warm up plan/describe caches so steady-state costs are measured.
        txns.run_one(kind)
        start = time.perf_counter()
        for __ in range(per_type):
            txns.run_one(kind)
        times[kind] = (time.perf_counter() - start) / per_type
    return times


def mixed_service_time(service_times: dict[str, float]) -> float:
    """Mix-weighted mean service time per transaction."""
    return sum(weight * service_times[kind] for kind, weight in TRANSACTION_MIX)


def run_throughput(system: TpccSystem, n_transactions: int = 100) -> float:
    """Measured single-stream throughput (txn/s) over the standard mix."""
    txns = system.transactions
    start = time.perf_counter()
    txns.run_mix(n_transactions, TRANSACTION_MIX)
    elapsed = time.perf_counter() - start
    return n_transactions / elapsed if elapsed > 0 else float("inf")


def run_concurrent(
    system: TpccSystem,
    n_clients: int,
    transactions_per_client: int,
    mix=None,
) -> tuple[float, list[TpccTransactions]]:
    """Run the mix from ``n_clients`` concurrent connections (real threads).

    Kept as the simple correctness-oriented entry point; see
    :func:`run_multi_client` for the measured-throughput variant with a
    start barrier and simulated network RTT.
    """
    result = run_multi_client(system, n_clients, transactions_per_client, mix=mix)
    return result.elapsed_s, result.clients


@dataclass
class MultiClientResult:
    """Outcome of one measured multi-client run."""

    elapsed_s: float
    clients: list[TpccTransactions]

    @property
    def transactions(self) -> int:
        return sum(client.counts.total for client in self.clients)

    @property
    def throughput(self) -> float:
        if self.elapsed_s <= 0:
            return float("inf")
        return self.transactions / self.elapsed_s


def run_multi_client(
    system: TpccSystem,
    n_clients: int,
    transactions_per_client: int,
    mix=None,
    simulated_rtt_s: float = 0.0,
    seed: int = 1000,
) -> MultiClientResult:
    """Drive the mix from ``n_clients`` real client threads, measured.

    Every client opens its own driver connection (its own describe cache,
    CEK cache, and — under RND — attestation handshake), synchronizes on a
    barrier, and the wall clock covers only the barrier-to-join window.
    ``simulated_rtt_s`` puts each round-trip to sleep, which is what lets
    N Python threads overlap their waiting and produce real measured
    scaling despite the GIL. Client errors propagate to the caller.
    """
    import threading

    mix = mix or TRANSACTION_MIX
    clients = [
        system.new_client(seed=seed + i, simulated_rtt_s=simulated_rtt_s)
        for i in range(n_clients)
    ]
    errors: list[Exception] = []
    barrier = threading.Barrier(n_clients + 1)

    def work(client: TpccTransactions) -> None:
        barrier.wait()
        try:
            client.run_mix(transactions_per_client, mix)
        except Exception as exc:  # surfaced to the caller below
            errors.append(exc)

    threads = [
        threading.Thread(target=work, args=(c,), name=f"tpcc-client-{i}")
        for i, c in enumerate(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    return MultiClientResult(elapsed_s=elapsed, clients=clients)
