"""The benchmark's workloads: set-up, one closed-loop op, correctness checks.

Every workload is built from ``--seed`` alone and drives the program only
through its public API (``build_system``, ``connect``, ``Connection``).
Each workload has one client, a closed loop: it sends its next op only
after the reply to the previous one. See ``NOTES.md`` for why each
workload exists.
"""

from __future__ import annotations

import random
import string
import time

from repro.attestation.hgs import AttestationPolicy, HostGuardianService
from repro.attestation.tpm import HostMachine
from repro.client.driver import connect
from repro.crypto.rsa import RsaKeyPair
from repro.enclave import Enclave, EnclaveBinary
from repro.keys import default_registry
from repro.sqlengine.server import SqlServer
from repro.tools.provisioning import provision_cek, provision_cmk
from repro.workloads.tpcc.config import EncryptionMode, TpccConfig
from repro.workloads.tpcc.driver import build_system
from repro.workloads.tpcc.invariants import check_invariants

#: The ROADMAP baseline recipe's TPC-C scale.
TPCC_SCALE = dict(
    warehouses=1, districts_per_warehouse=2, customers_per_district=30, items=50
)
TPCC_WARMUP_OPS = 10
#: The mix as a deck of cards (TPC-C clause 5.2.4.2): each terminal deals
#: its transactions from a shuffled deck of 10 New-Order, 10 Payment and
#: one of each other type, so every 23 ops hold the exact mix and run-to-
#: run spread does not come from sampling the mix.
_DECK = ["new_order"] * 10 + ["payment"] * 10 + ["order_status", "delivery", "stock_level"]

SCAN_ROWS = 1000
SCAN_WARMUP_OPS = 4
#: rnd-scan deals its queries from a shuffled deck: one LIKE full scan per
#: seven index range probes (12.5%), so p95 sits inside the scan mode and
#: every run holds the same share of each.
_SCAN_DECK = ["like"] + ["range"] * 7
SCAN_RANGE_WIDTH = 200  # balance units; ~20 of SCAN_ROWS rows qualify
_SYLLABLES = ("BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING")
_ALGO = "AEAD_AES_256_CBC_HMAC_SHA_256"


class TimedConnection:
    """Times every driver round-trip of one connection and counts the
    rollbacks the workload code issues.

    Wraps the connection object itself (instance attributes shadow the
    class methods), so the program's classes stay untouched.
    """

    def __init__(self, conn):
        self.conn = conn
        self.stmt_s: list[float] = []
        self.rollbacks = 0
        for name in ("execute", "begin", "commit", "rollback"):
            setattr(conn, name, self._timed(name))

    def _timed(self, name: str):
        conn = self.conn
        cls = type(conn)
        samples = self.stmt_s
        clock = time.perf_counter
        is_rollback = name == "rollback"

        def timed(*args, **kwargs):
            if is_rollback:
                self.rollbacks += 1
            # Looked up per call, so a traced run's class-level wrapper runs.
            method = getattr(cls, name)
            started = clock()
            try:
                return method(conn, *args, **kwargs)
            finally:
                samples.append(clock() - started)

        return timed


class TpccClient:
    """One TPC-C terminal: ``op`` runs one transaction of the standard mix.

    Op latency is sampled on New-Order only (``latency_sample``), as TPC-C
    reports response time per transaction type and centres on New-Order:
    over the whole mix the median falls in the gap between the Payment
    and New-Order latency modes and jumps between runs.
    """

    def __init__(self, transactions, seed: int):
        self.transactions = transactions
        self.timed = TimedConnection(transactions.connection)
        self.rng = random.Random(seed)
        self.spec_rollbacks = 0
        self._deck: list[str] = []
        self.latency_sample = False

    def op(self) -> None:
        if not self._deck:
            self._deck = list(_DECK)
            self.rng.shuffle(self._deck)
        kind = self._deck.pop()
        self.latency_sample = kind == "new_order"
        rollbacks_before = self.timed.rollbacks
        self.transactions.run_one(kind)
        # A rollback inside a transaction that returned normally is the
        # spec's intentional one (New-Order 1%, Payment name miss).
        self.spec_rollbacks += self.timed.rollbacks - rollbacks_before


class TpccRun:
    """A built TPC-C system plus its measured client."""

    def __init__(self, system, client: TpccClient):
        self.system = system
        self.client = client

    def check(self) -> list[str]:
        return check_invariants(self.system)

    def resident_pages(self) -> int:
        return len(self.system.server.engine.pool.cached_page_ids())

    def close(self) -> None:
        self.system.connection.close()
        _shutdown_server(self.system.server)


def _shutdown_server(server: SqlServer) -> None:
    server.scheduler.shutdown()
    if server.gateway is not None:
        server.gateway.shutdown()


def build_tpcc(seed: int, mode: EncryptionMode) -> TpccRun:
    config = TpccConfig(mode=mode, seed=seed, **TPCC_SCALE)
    system = build_system(config)
    client = TpccClient(system.transactions, seed=seed * 1000)
    # Warm-up: plan, describe and CEK caches, enclave program registration.
    for __ in range(TPCC_WARMUP_OPS):
        client.op()
    return TpccRun(system, client)


# -- rnd-scan -----------------------------------------------------------------


def scan_rows(seed: int) -> list[tuple[int, str, int, int]]:
    """The generated ACCOUNTS rows: (id, name, balance, branch)."""
    rng = random.Random(seed)
    balances = rng.sample(range(SCAN_ROWS * 10), SCAN_ROWS)
    rows = []
    for a_id in range(1, SCAN_ROWS + 1):
        name = "".join(rng.choice(_SYLLABLES) for __ in range(3))
        name += "".join(rng.choice(string.ascii_uppercase) for __ in range(4))
        rows.append((a_id, name, balances[a_id - 1], rng.randint(1, 20)))
    return rows


class ScanClient:
    """One read-only client over ACCOUNTS. Every decrypted result is
    compared with the answer computed from the plaintext copy."""

    RANGE = (
        "SELECT A_ID, A_NAME, A_BALANCE FROM ACCOUNTS "
        "WHERE A_BALANCE >= @lo AND A_BALANCE < @hi"
    )
    LIKE = "SELECT A_ID, A_BALANCE FROM ACCOUNTS WHERE A_NAME LIKE @pat"

    def __init__(self, conn, rows, seed: int):
        self.timed = TimedConnection(conn)
        self.conn = conn
        self.rows = rows
        self.rng = random.Random(seed)
        self.violations: list[str] = []
        self.spec_rollbacks = 0
        self._deck: list[str] = []
        self.latency_sample = True

    def op(self) -> None:
        if not self._deck:
            self._deck = list(_SCAN_DECK)
            self.rng.shuffle(self._deck)
        if self._deck.pop() == "like":
            needle = self.rng.choice(_SYLLABLES) + self.rng.choice(string.ascii_uppercase)
            pattern = f"%{needle}%"
            result = self.conn.execute(self.LIKE, {"pat": pattern})
            expected = sorted((r[0], r[2]) for r in self.rows if needle in r[1])
            what = f"LIKE {pattern!r}"
        else:
            lo = self.rng.randrange(SCAN_ROWS * 10 - SCAN_RANGE_WIDTH)
            hi = lo + SCAN_RANGE_WIDTH
            result = self.conn.execute(self.RANGE, {"lo": lo, "hi": hi})
            expected = sorted(r[:3] for r in self.rows if lo <= r[2] < hi)
            what = f"range [{lo}, {hi})"
        if sorted(result.rows) != expected:
            self.violations.append(
                f"{what}: {len(result.rows)} rows returned, {len(expected)} expected"
            )


class ScanRun:
    def __init__(self, server, conn, client: ScanClient):
        self.server = server
        self.conn = conn
        self.client = client

    def check(self) -> list[str]:
        return list(self.client.violations)

    def resident_pages(self) -> int:
        return len(self.server.engine.pool.cached_page_ids())

    def close(self) -> None:
        self.conn.close()
        _shutdown_server(self.server)


def build_scan(seed: int) -> ScanRun:
    author = RsaKeyPair.generate(1024)
    binary = EnclaveBinary.build(author)
    host, hgs = HostMachine(), HostGuardianService()
    hgs.register_host(host.boot_and_measure())
    # Server defaults: QUEUED gateway, 4 enclave threads, eval_batch_size=64.
    server = SqlServer(enclave=Enclave(binary), host_machine=host, hgs=hgs)
    registry = default_registry()
    policy = AttestationPolicy(trusted_author_ids=frozenset({binary.author_id}))
    conn = connect(server, registry, attestation_policy=policy,
                   cache_describe_results=False)
    vault = registry.get("AZURE_KEY_VAULT_PROVIDER")
    cmk = provision_cmk(conn, vault, "ScanCMK", "https://vault.azure.net/keys/scan-cmk")
    provision_cek(conn, vault, cmk, "ScanCEK")
    enc = (
        "ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = ScanCEK, "
        f"ENCRYPTION_TYPE = Randomized, ALGORITHM = '{_ALGO}')"
    )
    conn.execute_ddl(
        "CREATE TABLE ACCOUNTS (A_ID int NOT NULL, "
        f"A_NAME varchar(24) {enc}, A_BALANCE int {enc}, "
        "A_BRANCH int, A_NOTE varchar(400), PRIMARY KEY (A_ID))"
    )
    # Attest and ship the CEK up front, as the first enclave query would:
    # until then every describe would offer a fresh DH key.
    conn.install_enclave_ceks(["ScanCEK"])
    rows = scan_rows(seed)
    note = "n" * 400  # pads a row to ~14 per 8 KiB page
    conn.begin()
    for a_id, name, balance, branch in rows:
        conn.execute(
            "INSERT INTO ACCOUNTS (A_ID, A_NAME, A_BALANCE, A_BRANCH, A_NOTE) "
            "VALUES (@id, @name, @bal, @branch, @note)",
            {"id": a_id, "name": name, "bal": balance, "branch": branch, "note": note},
        )
    conn.commit()
    conn.execute_ddl("CREATE INDEX ACCOUNTS_BAL ON ACCOUNTS(A_BALANCE)")
    client = ScanClient(conn, rows, seed=seed * 1000)
    for __ in range(SCAN_WARMUP_OPS):
        client.op()
    return ScanRun(server, conn, client)


#: name -> (builder(seed), set-ups per untraced run). SQL-PT sets up in
#: a fraction of a second, so it takes more set-ups for a steadier median.
WORKLOADS = {
    # SQL-PT: engine only; plain connection, build_system defaults.
    "tpcc-pt": (lambda seed: build_tpcc(seed, EncryptionMode.PLAINTEXT), 5),
    # SQL-AE-RND-4 in paper mode: eval_batch_size=1 (TpccConfig default),
    # QUEUED gateway, describe caching off (build_system defaults).
    "tpcc-rnd": (lambda seed: build_tpcc(seed, EncryptionMode.RND), 3),
    "rnd-scan": (build_scan, 3),
}
