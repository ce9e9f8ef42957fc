"""Shared fixtures: key material, enclave stack, and server factories.

RSA key generation dominates setup cost, so key pairs and the provider
registry are session-scoped; anything mutable (server, enclave, catalog)
is rebuilt per test from the cached keys.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import pytest

from repro.attestation.hgs import AttestationPolicy, HostGuardianService
from repro.attestation.tpm import HostMachine
from repro.client.driver import Connection, connect
from repro.crypto.aead import generate_cek_material
from repro.crypto.rsa import RsaKeyPair
from repro.enclave.runtime import Enclave, EnclaveBinary
from repro.keys.cek import ColumnEncryptionKey
from repro.keys.cmk import ColumnMasterKey
from repro.keys.providers import KeyProviderRegistry, default_registry
from repro.sqlengine.server import SqlServer

ALGO = "AEAD_AES_256_CBC_HMAC_SHA_256"

VAULT_PATH_ENCLAVE = "https://vault.azure.net/keys/test-enclave-cmk"
VAULT_PATH_PLAIN = "https://vault.azure.net/keys/test-plain-cmk"


#: Thread-name prefixes of server threads that must not outlive the test
#: that started them: wire-server and router accept/connection threads,
#: and statement workers.
LEAK_CHECKED_THREAD_PREFIXES = ("wire-", "router-", "stmt-worker-")


@pytest.fixture(autouse=True)
def no_leaked_server_threads():
    """Fail a test that leaves a wire/router/statement thread running.

    A connection thread exits just after its socket is closed, so the
    check polls briefly; a thread still blocked after that was never
    stopped.
    """
    before = set(threading.enumerate())
    yield

    def leaked() -> list[str]:
        return sorted(
            t.name
            for t in threading.enumerate()
            if t not in before
            and t.is_alive()
            and t.name.startswith(LEAK_CHECKED_THREAD_PREFIXES)
        )

    deadline = time.monotonic() + 2.0
    while leaked() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not leaked(), f"server threads outlived the test: {leaked()}"


@pytest.fixture(scope="session")
def author_key() -> RsaKeyPair:
    return RsaKeyPair.generate(1024)


@pytest.fixture(scope="session")
def enclave_binary(author_key) -> EnclaveBinary:
    return EnclaveBinary.build(author_key)


@pytest.fixture(scope="session")
def host_machine() -> HostMachine:
    return HostMachine()


@pytest.fixture(scope="session")
def registry() -> KeyProviderRegistry:
    reg = default_registry()
    vault = reg.get("AZURE_KEY_VAULT_PROVIDER")
    vault.create_key(VAULT_PATH_ENCLAVE, bits=1024)
    vault.create_key(VAULT_PATH_PLAIN, bits=1024)
    return reg


@pytest.fixture(scope="session")
def enclave_cmk(registry) -> ColumnMasterKey:
    vault = registry.get("AZURE_KEY_VAULT_PROVIDER")
    return ColumnMasterKey.create(
        "TestCMK", vault, VAULT_PATH_ENCLAVE, allow_enclave_computations=True
    )


@pytest.fixture(scope="session")
def plain_cmk(registry) -> ColumnMasterKey:
    vault = registry.get("AZURE_KEY_VAULT_PROVIDER")
    return ColumnMasterKey.create(
        "PlainCMK", vault, VAULT_PATH_PLAIN, allow_enclave_computations=False
    )


@pytest.fixture(scope="session")
def cek_material() -> bytes:
    return generate_cek_material()


@pytest.fixture(scope="session")
def enclave_cek(registry, enclave_cmk, cek_material) -> ColumnEncryptionKey:
    vault = registry.get("AZURE_KEY_VAULT_PROVIDER")
    cek, __ = ColumnEncryptionKey.create(
        "TestCEK", enclave_cmk, vault, key_material=cek_material
    )
    return cek


@pytest.fixture(scope="session")
def plain_cek(registry, plain_cmk, cek_material) -> ColumnEncryptionKey:
    vault = registry.get("AZURE_KEY_VAULT_PROVIDER")
    cek, __ = ColumnEncryptionKey.create(
        "PlainCEK", plain_cmk, vault, key_material=cek_material
    )
    return cek


@pytest.fixture()
def enclave(enclave_binary) -> Enclave:
    return Enclave(enclave_binary)


@pytest.fixture()
def hgs(host_machine) -> HostGuardianService:
    service = HostGuardianService()
    service.register_host(host_machine.boot_and_measure())
    return service


@pytest.fixture()
def attestation_policy(enclave_binary) -> AttestationPolicy:
    return AttestationPolicy(trusted_author_ids=frozenset({enclave_binary.author_id}))


@pytest.fixture()
def server(enclave, host_machine, hgs) -> SqlServer:
    return SqlServer(
        enclave=enclave, host_machine=host_machine, hgs=hgs, lock_timeout_s=0.3
    )


@pytest.fixture()
def plain_server() -> SqlServer:
    return SqlServer(lock_timeout_s=0.3)


@pytest.fixture()
def ae_connection(server, registry, attestation_policy, enclave_cmk, enclave_cek) -> Connection:
    """An AE connection to a server pre-populated with the test keys."""
    server.catalog.create_cmk(enclave_cmk)
    server.catalog.create_cek(enclave_cek)
    return connect(server, registry, attestation_policy=attestation_policy)


@pytest.fixture()
def det_connection(server, registry, plain_cmk, plain_cek) -> Connection:
    """An AE connection with an enclave-disabled (DET-capable) CEK."""
    server.catalog.create_cmk(plain_cmk)
    server.catalog.create_cek(plain_cek)
    return connect(server, registry)


def make_encrypted_table(connection: Connection, name: str = "T", cek: str = "TestCEK",
                         scheme: str = "Randomized") -> None:
    connection.execute_ddl(
        f"CREATE TABLE {name}(id int PRIMARY KEY, "
        f"value int ENCRYPTED WITH (COLUMN_ENCRYPTION_KEY = {cek}, "
        f"ENCRYPTION_TYPE = {scheme}, ALGORITHM = '{ALGO}'))"
    )


@pytest.fixture()
def encrypted_table(ae_connection) -> Connection:
    """Connection with table T(id, value RND-encrypted) and 10 rows."""
    make_encrypted_table(ae_connection)
    for i in range(10):
        ae_connection.execute(
            "INSERT INTO T (id, value) VALUES (@id, @v)", {"id": i, "v": i * 10}
        )
    return ae_connection


@dataclass
class RotationStack:
    """A full AE stack with several independently-keyed CEKs — the raw
    material of the online key-lifecycle suites. ``materials`` holds the
    plaintext key bytes so tests can probe which CEK a stored envelope is
    under without going through a driver."""

    server: SqlServer
    conn: Connection
    registry: KeyProviderRegistry
    policy: AttestationPolicy
    materials: dict[str, bytes] = field(default_factory=dict)

    def fresh_conn(self, **options) -> Connection:
        """A new client connection (own caches, own attestation session)."""
        return connect(
            self.server, self.registry, attestation_policy=self.policy, **options
        )


@pytest.fixture()
def rotation_stack_factory(registry, enclave_binary, host_machine, enclave_cmk):
    """Build an enclave-backed server with N distinct-material CEKs.

    Unlike the shared ``enclave_cek``/``plain_cek`` pair (which reuse one
    key material), every CEK here gets fresh material — a cell can only
    ever MAC-verify under exactly one of them, which is the core
    invariant the rotation suites check.
    """
    vault = registry.get("AZURE_KEY_VAULT_PROVIDER")
    policy = AttestationPolicy(
        trusted_author_ids=frozenset({enclave_binary.author_id})
    )

    def make(
        cek_names=("RotOldCEK", "RotNewCEK", "RotThirdCEK"),
        freshness: bool = False,
        lock_timeout_s: float = 0.3,
    ) -> RotationStack:
        hgs = HostGuardianService()
        hgs.register_host(host_machine.boot_and_measure())
        enclave = Enclave(enclave_binary)
        anchor = None
        if freshness:
            from repro.sqlengine.storage.freshness import (
                EnclaveAnchorBackend,
                FreshnessAnchor,
            )

            anchor = FreshnessAnchor(EnclaveAnchorBackend(enclave))
        server = SqlServer(
            enclave=enclave,
            host_machine=host_machine,
            hgs=hgs,
            lock_timeout_s=lock_timeout_s,
            freshness=anchor,
        )
        server.catalog.create_cmk(enclave_cmk)
        materials: dict[str, bytes] = {}
        for name in cek_names:
            material = generate_cek_material()
            cek, __ = ColumnEncryptionKey.create(
                name, enclave_cmk, vault, key_material=material
            )
            server.catalog.create_cek(cek)
            materials[name] = material
        stack = RotationStack(
            server=server,
            conn=connect(server, registry, attestation_policy=policy),
            registry=registry,
            policy=policy,
            materials=materials,
        )
        return stack

    return make
