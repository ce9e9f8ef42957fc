"""Concurrency invariant stress: N threads of mixed TPC-C, audited at quiesce.

This is the serializability gate for the concurrent session layer. Real
client threads run the standard mix against one server (shared plan
cache, lock manager, buffer pool, enclave gateway), and after every thread
joins, :func:`repro.workloads.tpcc.invariants.check_invariants` audits
the quiesced database:

* money conservation (W_YTD / D_YTD deltas == Σ H_AMOUNT) — catches lost
  updates on the RMW balance columns;
* order-id allocation (D_NEXT_O_ID vs order count, no duplicate ids) —
  catches torn atomic increments;
* stock flow (Σ S_YTD == new order-line quantity) — catches partially
  applied NewOrders;
* index-vs-heap agreement — catches B-tree entries lost to concurrent
  splits or un-relocated rows.

Runs are seeded: each client's transaction stream is deterministic, only
the interleaving varies — and the invariants must hold for *every*
interleaving.
"""

from repro.workloads.tpcc import EncryptionMode, TpccConfig, build_system
from repro.workloads.tpcc.config import TRANSACTION_MIX
from repro.workloads.tpcc.driver import run_multi_client
from repro.workloads.tpcc.invariants import check_invariants

SCALE = dict(warehouses=2, districts_per_warehouse=2, customers_per_district=10, items=20)


def _stress(mode: EncryptionMode, n_clients: int, per_client: int, seed: int):
    system = build_system(
        TpccConfig(mode=mode, seed=seed, **SCALE),
        lock_timeout_s=0.15,
    )
    result = run_multi_client(
        system,
        n_clients=n_clients,
        transactions_per_client=per_client,
        seed=seed,
    )
    return system, result


class TestConcurrencyStress:
    def test_plaintext_invariants_hold_under_contention(self):
        system, result = _stress(
            EncryptionMode.PLAINTEXT, n_clients=8, per_client=15, seed=91
        )
        assert result.transactions >= 8 * 15 * 0.9  # retries may give up a few
        assert check_invariants(system) == []

    def test_det_invariants_hold_under_contention(self):
        system, result = _stress(
            EncryptionMode.DET, n_clients=4, per_client=8, seed=92
        )
        assert result.transactions > 0
        assert check_invariants(system) == []

    def test_single_stream_baseline_matches_oracle_counts(self):
        """The same seeded stream single-threaded also passes the audit —
        so a multi-threaded failure isolates to concurrency, not to the
        workload or checker."""
        system = build_system(
            TpccConfig(mode=EncryptionMode.PLAINTEXT, seed=91, **SCALE)
        )
        client = system.new_client(seed=91)
        client.run_mix(40, TRANSACTION_MIX)
        assert check_invariants(system) == []
