"""The runtime half of the metrics lint.

Usage:  PYTHONPATH=src python -m repro.analysis.dynamic_metrics [-v]

The static half lives in the :mod:`site-metric
<repro.analysis.rules.consistency>` rule family — it validates every
metric-name *literal* without importing anything. This module keeps the
original dynamic check: boot a full encrypted-query stack (driver →
server → executor → storage → enclave), run DDL, DML, point lookups, an
enclave range predicate, and a crash/recovery cycle so every instrumented
code path registers its metrics, then validate the registry's contents.
Kind conflicts raise inside the registry at registration time, so merely
surviving the workload proves there are none; the name sweep then catches
convention violations that only exist at runtime (dynamically composed
names the static rule cannot see).

Exit status: 0 clean, 1 violations found, 2 the workload itself broke.
"""

from __future__ import annotations

import sys
import traceback


def run_workload() -> None:
    """Touch every instrumented layer so all metrics register."""
    from repro.attestation.hgs import AttestationPolicy, HostGuardianService
    from repro.attestation.tpm import HostMachine
    from repro.client.driver import connect
    from repro.crypto.aead import generate_cek_material
    from repro.crypto.rsa import RsaKeyPair
    from repro.enclave import Enclave, EnclaveBinary
    from repro.keys.cek import ColumnEncryptionKey
    from repro.keys.cmk import ColumnMasterKey
    from repro.keys.providers import default_registry
    from repro.sqlengine.server import SqlServer

    author = RsaKeyPair.generate(1024)
    binary = EnclaveBinary.build(author)
    host = HostMachine()
    hgs = HostGuardianService()
    hgs.register_host(host.boot_and_measure())
    policy = AttestationPolicy(trusted_author_ids=frozenset({binary.author_id}))

    key_registry = default_registry()
    vault = key_registry.get("AZURE_KEY_VAULT_PROVIDER")
    key_path = "https://vault.azure.net/keys/lint-cmk"
    vault.create_key(key_path, bits=1024)
    cmk = ColumnMasterKey.create(
        "LintCMK", vault, key_path, allow_enclave_computations=True
    )
    cek, __ = ColumnEncryptionKey.create(
        "LintCEK", cmk, vault, key_material=generate_cek_material()
    )

    server = SqlServer(enclave=Enclave(binary), host_machine=host, hgs=hgs)
    server.catalog.create_cmk(cmk)
    server.catalog.create_cek(cek)
    conn = connect(server, key_registry, attestation_policy=policy)

    conn.execute_ddl(
        "CREATE TABLE L(id int PRIMARY KEY, value int ENCRYPTED WITH ("
        "COLUMN_ENCRYPTION_KEY = LintCEK, ENCRYPTION_TYPE = Randomized, "
        "ALGORITHM = 'AEAD_AES_256_CBC_HMAC_SHA_256'))"
    )
    for i in range(8):
        conn.execute(
            "INSERT INTO L (id, value) VALUES (@id, @v)", {"id": i, "v": i * 10}
        )
    # Enclave predicate (TM_EVAL), point lookup, range, update, delete.
    conn.execute("SELECT id FROM L WHERE value = @v", {"v": 30})
    conn.execute("SELECT id FROM L WHERE value > @lo AND value < @hi", {"lo": 10, "hi": 60})
    conn.execute("UPDATE L SET value = @v WHERE id = @id", {"v": 999, "id": 0})
    conn.execute("DELETE FROM L WHERE id = @id", {"id": 7})
    # Explicit transaction exercises the lock manager + WAL commit path.
    conn.begin()
    conn.execute("INSERT INTO L (id, value) VALUES (@id, @v)", {"id": 100, "v": 1})
    conn.commit()
    # Crash/recovery touches recovery-side counters.
    server.crash()
    server.recover()


def check_names(verbose: bool = False) -> list[str]:
    from repro.obs.metrics import METRIC_NAME_RE, get_registry

    registry = get_registry()
    problems: list[str] = []
    for name in registry.names():
        kind = registry.kind_of(name).value
        if verbose:
            print(f"  {name:40s} {kind}")
        if not METRIC_NAME_RE.match(name):
            problems.append(
                f"{name!r} ({kind}) violates the component.noun_verb convention"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    verbose = "-v" in argv or "--verbose" in argv
    try:
        run_workload()
    except Exception:
        print("metrics lint: workload failed (kind conflict or regression?):")
        traceback.print_exc()
        return 2

    from repro.obs.metrics import get_registry

    if verbose:
        print("registered metrics:")
    problems = check_names(verbose=verbose)
    count = len(get_registry().names())
    if problems:
        print(f"metrics lint: {len(problems)} naming violation(s) in {count} metrics:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(f"metrics lint: OK ({count} metrics, all names conform)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
