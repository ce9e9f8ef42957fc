"""Multi-process sharded smoke: real OS processes, real sockets.

Boots a router plus two shard *processes* (fork), loads a tiny TPC-C
scale through the wire, runs a short multi-client slice, audits every
shard's invariants remotely, and shuts the whole tree down cleanly.
The in-process equivalents in test_router.py / test_2pc_torture.py
cover the routing and 2PC logic cheaply; this test exists to prove the
process boundary itself (fork, port handoff, cross-process attestation
under the plaintext mode, AdminShutdown teardown).
"""

from __future__ import annotations

from repro.workloads.tpcc.config import TRANSACTION_MIX, TpccConfig
from repro.workloads.tpcc.sharded import start_sharded_system, wait_for_quiesce

TINY = TpccConfig(
    warehouses=4, districts_per_warehouse=2, customers_per_district=6, items=20
)


def test_multiprocess_sharded_tpcc_slice():
    system = start_sharded_system(TINY, n_shards=2, lock_timeout_s=1.0)
    try:
        assert len(system.processes) == 3  # 2 shards + router
        assert all(p.is_alive() for p in system.processes)
        clients = [system.new_client(seed=s) for s in (3, 8)]
        for client in clients:
            client.run_mix(12, TRANSACTION_MIX)
        committed = sum(c.counts.total for c in clients)
        assert committed >= 12, f"only {committed} transactions ran"
        wait_for_quiesce(system)
        assert system.audit() == []
    finally:
        system.shutdown()
    assert all(not p.is_alive() for p in system.processes)
