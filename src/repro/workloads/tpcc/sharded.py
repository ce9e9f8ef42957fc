"""Sharded TPC-C: N engine processes behind the wire router.

This is the multi-process companion to :func:`~repro.workloads.tpcc.driver.
build_system`: each shard is a full :class:`SqlServer` (its own WAL,
buffer pool, lock manager, enclave + HGS under RND, and its own
:class:`FreshnessAnchor` trust root) served by a :class:`WireServer`,
partitioned by warehouse. A :class:`~repro.net.router.Router` — its own
process in the measured configuration — fronts them all, so the unmodified
AE driver connects to one address and cannot tell the deployments apart.

Two deployment shapes share all setup logic:

* :func:`start_sharded_system` — real OS processes (``fork``), the
  configuration the sharded Figure 8 benchmark measures. Each shard
  process escapes the parent's GIL, which is the entire point.
* :func:`start_sharded_inprocess` — every shard and the router as threads
  in this process. Used by tests that need to reach into a shard's engine
  (fault arming, crash/recover torture) which a process boundary hides.

Setup order mirrors the single-process builder, with two sharding twists:

1. CMK/CEK provisioning and table DDL go **through the router** — DDL
   broadcasts, and because ``CREATE COLUMN ENCRYPTION KEY`` embeds the
   ciphertext bytes, every shard stores the *identical* CEK.
2. Index DDL under RND goes to **each shard directly**: ``CUSTOMER_NC1``
   covers randomized columns, so building it needs the client's CEK
   inside that shard's enclave — each shard gets its own attested AE
   connection for the build. (The attestation policy trusts the union of
   the shards' enclave author ids, reported at shard start.)

Every client from :meth:`ShardedTpccSystem.new_client` is pinned to a
home warehouse: its control plane, enclave session, and all its
statements land on ``shard_of(home)``, the deployment the paper's
partitioned-OLTP regime assumes. Cross-shard transactions (2PC) are
exercised by the dedicated torture tests, not the steady-state mix.
"""

from __future__ import annotations

import multiprocessing
import random
import time
from dataclasses import dataclass, field

from repro.client.driver import Connection, connect
from repro.keys import KeyProviderRegistry, default_registry
from repro.net.remote import RemoteServer
from repro.net.router import CommitDecisionLog, Router
from repro.net.wireserver import WireServer
from repro.sqlengine.server import SqlServer
from repro.tools.provisioning import provision_cek, provision_cmk
from repro.workloads.tpcc.config import EncryptionMode, TpccConfig
from repro.workloads.tpcc.driver import CEK_NAME, CMK_NAME, CMK_PATH
from repro.workloads.tpcc.generator import TpccLoader
from repro.workloads.tpcc.invariants import check_invariants
from repro.workloads.tpcc.schema import (
    create_index_statements,
    create_table_statements,
)
from repro.workloads.tpcc.transactions import TpccTransactions

__all__ = [
    "ShardedTpccSystem",
    "build_shard_server",
    "start_sharded_inprocess",
    "start_sharded_system",
]


@dataclass
class _AuditShim:
    """The ``system`` duck-type :func:`check_invariants` wants, shard-local."""

    connection: Connection
    config: TpccConfig
    server: SqlServer


def _shard_audit(server: SqlServer, config: TpccConfig) -> list[str]:
    """Audit one shard's slice of the database at quiesce.

    Every invariant is per-warehouse (or per-row referential), so each
    check closes over data the shard actually owns; the plaintext audit
    connection never touches an encrypted column.
    """
    conn = connect(server, default_registry(), column_encryption=False)
    try:
        return check_invariants(_AuditShim(conn, config, server))
    finally:
        conn.close()


def build_shard_server(
    config: TpccConfig,
    lock_timeout_s: float = 5.0,
    freshness_anchor: bool = False,
) -> tuple[SqlServer, bytes | None]:
    """One shard's engine: server (+ enclave/HGS under RND) + trust anchor.

    Returns ``(server, enclave_author_id)`` — the author id feeds the
    client's attestation policy, which trusts the union over shards.
    """
    from repro.attestation.hgs import HostGuardianService
    from repro.attestation.tpm import HostMachine
    from repro.crypto.rsa import RsaKeyPair
    from repro.enclave import Enclave, EnclaveBinary

    enclave = None
    host = None
    hgs = None
    author_id = None
    if config.mode is EncryptionMode.RND:
        author = RsaKeyPair.generate(1024)
        binary = EnclaveBinary.build(author)
        enclave = Enclave(binary)
        host = HostMachine()
        hgs = HostGuardianService()
        hgs.register_host(host.boot_and_measure())
        author_id = binary.author_id

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
        lock_timeout_s=lock_timeout_s,
        eval_batch_size=config.eval_batch_size,
        freshness=freshness,
    )
    return server, author_id


def _shard_process_main(
    shard_idx: int,
    n_shards: int,
    config: TpccConfig,
    lock_timeout_s: float,
    freshness_anchor: bool,
    pipe,
) -> None:
    """Entry point of one shard OS process: build, serve, wait for shutdown."""
    server, author_id = build_shard_server(
        config,
        lock_timeout_s=lock_timeout_s,
        freshness_anchor=freshness_anchor,
    )
    wire = WireServer(
        server,
        name=f"shard{shard_idx}",
        shard_count=n_shards,
        audit_hook=lambda: _shard_audit(server, config),
    ).start()
    pipe.send((wire.port, author_id))
    pipe.close()
    # AdminShutdown flips the stopping event; park until then.
    wire._stopping.wait()
    wire.stop()


def _router_process_main(shard_addresses, decision_log_path, pipe) -> None:
    """Entry point of the router OS process (stateless but for the log)."""
    router = Router(
        shard_addresses,
        decision_log=CommitDecisionLog(decision_log_path),
    ).start()
    pipe.send(router.port)
    pipe.close()
    router._stopping.wait()
    router.stop()


@dataclass
class ShardedTpccSystem:
    """A running sharded deployment, from the client's side of the wire.

    ``shard_admins`` are direct (router-bypassing) connections to each
    shard, used for crash/recover/audit orchestration; ``processes`` is
    empty for the in-process shape.
    """

    config: TpccConfig
    n_shards: int
    router_address: tuple[str, int]
    shard_addresses: list[tuple[str, int]]
    registry: KeyProviderRegistry
    connection: Connection                     # setup/loader connection (via router)
    remote: RemoteServer                       # its underlying wire stub
    attestation_policy: object | None = None
    processes: list = field(default_factory=list)
    inprocess: dict = field(default_factory=dict)   # name -> WireServer/Router
    _clients: list[Connection] = field(default_factory=list)

    # ------------------------------------------------------------------ clients

    def shard_admin(self, shard_idx: int) -> RemoteServer:
        return RemoteServer(*self.shard_addresses[shard_idx])

    def new_client(
        self,
        seed: int,
        simulated_rtt_s: float = 0.0,
        home_warehouse: int | None = None,
    ) -> TpccTransactions:
        """One pinned client stream: its own socket(s), home-warehouse affinity."""
        if home_warehouse is None:
            home_warehouse = seed % self.config.warehouses + 1
        remote = RemoteServer(*self.router_address, affinity=home_warehouse)
        connection = connect(
            remote,
            self.registry,
            column_encryption=self.config.ae_connection,
            attestation_policy=self.attestation_policy,
            simulated_rtt_s=simulated_rtt_s,
        )
        self._clients.append(connection)
        return TpccTransactions(
            connection=connection,
            config=self.config,
            rng=random.Random(seed),
            home_warehouse=home_warehouse,
        )

    def audit(self) -> list[str]:
        """Run every shard's invariant audit (must be quiesced)."""
        violations: list[str] = []
        for idx in range(self.n_shards):
            admin = self.shard_admin(idx)
            try:
                violations.extend(f"shard{idx}: {v}" for v in admin.audit())
            finally:
                admin.close()
        return violations

    # ---------------------------------------------------------------- teardown

    def shutdown(self, timeout_s: float = 10.0) -> None:
        for conn in self._clients:
            try:
                conn.close()
            except Exception:
                pass
        try:
            self.connection.close()
        except Exception:
            pass
        try:
            self.remote.shutdown()        # stops the router
        except Exception:
            pass
        for idx in range(self.n_shards):
            try:
                self.shard_admin(idx).shutdown()
            except Exception:
                pass
        for proc in self.processes:
            proc.join(timeout=timeout_s)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=timeout_s)
        for runner in self.inprocess.values():
            runner.stop()


def _provision_and_load(system: ShardedTpccSystem) -> None:
    """CMK/CEK + schema + data + indexes, router-first (see module doc)."""
    config = system.config
    connection = system.connection
    if config.uses_encryption:
        provider = system.registry.get("AZURE_KEY_VAULT_PROVIDER")
        cmk = provision_cmk(
            connection,
            provider,
            CMK_NAME,
            CMK_PATH,
            allow_enclave_computations=config.mode is EncryptionMode.RND,
        )
        provision_cek(connection, provider, cmk, CEK_NAME)
    for ddl in create_table_statements(config, CEK_NAME):
        connection.execute_ddl(ddl)
    TpccLoader(connection=connection, config=config).load()

    index_statements = list(create_index_statements(config))
    if config.mode is EncryptionMode.RND:
        # Each shard's enclave must hold the CEK to build indexes over
        # randomized columns: attest to every shard directly and build.
        for address in system.shard_addresses:
            shard_remote = RemoteServer(*address)
            shard_conn = connect(
                shard_remote,
                system.registry,
                column_encryption=True,
                attestation_policy=system.attestation_policy,
            )
            try:
                for ddl in index_statements:
                    shard_conn.execute_ddl(ddl)
            finally:
                shard_conn.close()
                shard_remote.close()
    else:
        for ddl in index_statements:
            connection.execute_ddl(ddl)     # broadcast


def _assemble(
    config: TpccConfig,
    n_shards: int,
    router_address: tuple[str, int],
    shard_addresses: list[tuple[str, int]],
    author_ids: list[bytes | None],
    processes: list,
    inprocess: dict,
) -> ShardedTpccSystem:
    policy = None
    if config.mode is EncryptionMode.RND:
        from repro.attestation.hgs import AttestationPolicy

        policy = AttestationPolicy(
            trusted_author_ids=frozenset(a for a in author_ids if a is not None)
        )
    registry = default_registry()
    remote = RemoteServer(*router_address, affinity=1)
    connection = connect(
        remote,
        registry,
        column_encryption=config.ae_connection,
        attestation_policy=policy,
    )
    system = ShardedTpccSystem(
        config=config,
        n_shards=n_shards,
        router_address=router_address,
        shard_addresses=shard_addresses,
        registry=registry,
        connection=connection,
        remote=remote,
        attestation_policy=policy,
        processes=processes,
        inprocess=inprocess,
    )
    _provision_and_load(system)
    return system


def start_sharded_system(
    config: TpccConfig,
    n_shards: int,
    lock_timeout_s: float = 5.0,
    freshness_anchor: bool = False,
    decision_log_path: str | None = None,
    start_timeout_s: float = 60.0,
) -> ShardedTpccSystem:
    """N shard OS processes + one router OS process, loaded and ready."""
    ctx = multiprocessing.get_context("fork")
    processes = []
    shard_addresses: list[tuple[str, int]] = []
    author_ids: list[bytes | None] = []
    pipes = []
    for shard_idx in range(n_shards):
        parent_end, child_end = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_shard_process_main,
            args=(
                shard_idx,
                n_shards,
                config,
                lock_timeout_s,
                freshness_anchor,
                child_end,
            ),
            name=f"tpcc-shard-{shard_idx}",
            daemon=True,
        )
        proc.start()
        child_end.close()
        processes.append(proc)
        pipes.append(parent_end)
    for parent_end in pipes:
        if not parent_end.poll(start_timeout_s):
            raise TimeoutError("shard process did not report its port")
        port, author_id = parent_end.recv()
        shard_addresses.append(("127.0.0.1", port))
        author_ids.append(author_id)

    parent_end, child_end = ctx.Pipe(duplex=False)
    router_proc = ctx.Process(
        target=_router_process_main,
        args=(shard_addresses, decision_log_path, child_end),
        name="tpcc-router",
        daemon=True,
    )
    router_proc.start()
    child_end.close()
    processes.append(router_proc)
    if not parent_end.poll(start_timeout_s):
        raise TimeoutError("router process did not report its port")
    router_port = parent_end.recv()

    return _assemble(
        config,
        n_shards,
        ("127.0.0.1", router_port),
        shard_addresses,
        author_ids,
        processes,
        inprocess={},
    )


def start_sharded_inprocess(
    config: TpccConfig,
    n_shards: int,
    lock_timeout_s: float = 5.0,
    freshness_anchor: bool = False,
    decision_log_path: str | None = None,
) -> tuple[ShardedTpccSystem, list[SqlServer], Router]:
    """Same topology, all threads in this process (tests reach the engines)."""
    servers: list[SqlServer] = []
    wires: list[WireServer] = []
    author_ids: list[bytes | None] = []
    for shard_idx in range(n_shards):
        server, author_id = build_shard_server(
            config,
            lock_timeout_s=lock_timeout_s,
            freshness_anchor=freshness_anchor,
        )
        servers.append(server)
        author_ids.append(author_id)
        wires.append(
            WireServer(
                server,
                name=f"shard{shard_idx}",
                shard_count=n_shards,
                audit_hook=(
                    lambda s=server: _shard_audit(s, config)
                ),
            ).start()
        )
    router = Router(
        [(w.host, w.port) for w in wires],
        decision_log=CommitDecisionLog(decision_log_path),
    ).start()
    system = _assemble(
        config,
        n_shards,
        (router.host, router.port),
        [(w.host, w.port) for w in wires],
        author_ids,
        processes=[],
        inprocess={"router": router, **{f"shard{i}": w for i, w in enumerate(wires)}},
    )
    return system, servers, router


def wait_for_quiesce(system: ShardedTpccSystem, timeout_s: float = 5.0) -> None:
    """Give in-flight session teardown a moment before auditing."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            if system.remote.ping():
                return
        except Exception:
            pass
        time.sleep(0.05)
