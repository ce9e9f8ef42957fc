"""Router behavior: partitioning, broadcast, and distributed commit.

Two in-process wire shards behind one :class:`Router`. Covers the
routing matrix (warehouse-keyed DML, DDL broadcast, replicated keyless
writes, affinity reads), lazy transaction enlistment, single-shard
commit fast path, cross-shard 2PC, and the coordinator's failure
behaviors: presumed abort when the decision never lands (an armed
"router.commit_decision" fault) and decision-log replay when it did.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import TransactionError, TransientFault
from repro.faults.actions import RaiseTransient
from repro.faults.schedules import OnNth
from repro.net.remote import RemoteServer
from repro.net.router import CommitDecisionLog, Router, shard_of
from repro.net.wireserver import WireServer
from repro.sqlengine.server import SqlServer

DDL = "CREATE TABLE T (ID INT PRIMARY KEY, W INT, VAL VARCHAR(32))"
INSERT = "INSERT INTO T (ID, W, VAL) VALUES (@id, @w, @v)"
UPDATE = "UPDATE T SET VAL = @v WHERE ID = @id AND W = @w"
SELECT_VAL = "SELECT VAL FROM T WHERE ID = @id AND W = @w"


@pytest.fixture()
def cluster(tmp_path):
    shards = [SqlServer(lock_timeout_s=0.5) for _ in range(2)]
    wires = [WireServer(s, name=f"shard{i}", shard_count=2).start() for i, s in enumerate(shards)]
    router = Router(
        [(w.host, w.port) for w in wires],
        name="R",
        decision_log=CommitDecisionLog(str(tmp_path / "decisions.log")),
    ).start()
    client = RemoteServer(router.host, router.port, affinity=1)
    yield shards, wires, router, client
    client.close()
    router.stop()
    for wire in wires:
        wire.stop()


def _alive(name: str) -> bool:
    return any(t.name == name and t.is_alive() for t in threading.enumerate())


def test_stop_wakes_the_blocked_accept_threads():
    """stop() returns only after its accept thread has exited, even though
    that thread was blocked in accept() when stop() was called."""
    wire = WireServer(SqlServer(), name="stoptest").start()
    router = Router([(wire.host, wire.port)], name="stoptest").start()
    # One round trip each proves both accept loops are back in accept().
    RemoteServer(router.host, router.port).close()
    router.stop()
    assert not _alive("router-accept-stoptest")
    RemoteServer(wire.host, wire.port).close()
    wire.stop()
    assert not _alive("wire-accept-stoptest")


def test_shard_of_partitioning():
    assert [shard_of(w, 2) for w in (1, 2, 3, 4)] == [0, 1, 0, 1]
    assert [shard_of(w, 4) for w in (1, 2, 3, 4, 5)] == [0, 1, 2, 3, 0]


def test_ddl_broadcast_and_keyed_routing(cluster):
    shards, _wires, _router, client = cluster
    session = client.connect()
    session.execute(DDL, {})
    session.execute(INSERT, {"id": 1, "w": 1, "v": "a"})
    session.execute(INSERT, {"id": 2, "w": 2, "v": "b"})
    rows0 = shards[0].connect().execute("SELECT ID FROM T", {}).rows
    rows1 = shards[1].connect().execute("SELECT ID FROM T", {}).rows
    assert [r[0] for r in rows0] == [1]
    assert [r[0] for r in rows1] == [2]


def test_keyless_write_broadcasts_keyless_read_uses_affinity(cluster):
    shards, _wires, _router, client = cluster
    session = client.connect()
    session.execute("CREATE TABLE ITEM (I_ID INT PRIMARY KEY, N VARCHAR(10))", {})
    session.execute("INSERT INTO ITEM (I_ID, N) VALUES (@id, @n)", {"id": 1, "n": "x"})
    for shard in shards:
        rows = shard.connect().execute("SELECT I_ID FROM ITEM", {}).rows
        assert [r[0] for r in rows] == [1]
    # Keyless read answered by exactly one shard (the affinity shard).
    assert len(session.execute("SELECT I_ID FROM ITEM", {}).rows) == 1


def test_single_shard_commit_skips_2pc(cluster):
    shards, _wires, router, client = cluster
    session = client.connect()
    session.execute(DDL, {})
    session.execute("BEGIN TRANSACTION", {})
    session.execute(INSERT, {"id": 1, "w": 1, "v": "a"})
    session.execute("COMMIT", {})
    assert router.decisions.gtids() == frozenset()      # no 2PC needed
    assert shards[0].indoubt_gtids() == []


def test_cross_shard_commit_runs_2pc(cluster):
    shards, _wires, router, client = cluster
    session = client.connect()
    session.execute(DDL, {})
    session.execute("BEGIN TRANSACTION", {})
    session.execute(INSERT, {"id": 1, "w": 1, "v": "a"})
    session.execute(INSERT, {"id": 2, "w": 2, "v": "b"})
    assert session.in_transaction
    session.execute("COMMIT", {})
    assert not session.in_transaction
    assert len(router.decisions.gtids()) == 1
    for shard, key, w in ((shards[0], 1, 1), (shards[1], 2, 2)):
        rows = shard.connect().execute(SELECT_VAL, {"id": key, "w": w}).rows
        assert len(rows) == 1
        assert shard.indoubt_gtids() == []


def test_cross_shard_rollback_reverts_both_branches(cluster):
    shards, _wires, _router, client = cluster
    session = client.connect()
    session.execute(DDL, {})
    session.execute("BEGIN TRANSACTION", {})
    session.execute(INSERT, {"id": 1, "w": 1, "v": "a"})
    session.execute(INSERT, {"id": 2, "w": 2, "v": "b"})
    session.execute("ROLLBACK", {})
    for shard in shards:
        assert shard.connect().execute("SELECT ID FROM T", {}).rows == []


def test_transaction_verbs_require_open_transaction(cluster):
    _shards, _wires, _router, client = cluster
    session = client.connect()
    with pytest.raises(TransactionError):
        session.execute("COMMIT", {})
    with pytest.raises(TransactionError):
        session.execute("ROLLBACK", {})


def test_coordinator_fault_before_decision_presumed_abort(cluster, clean_fault_registry):
    """Fault at "router.commit_decision": both branches prepared, no
    decision recorded — the commit must fail and abort everywhere."""
    shards, _wires, router, client = cluster
    session = client.connect()
    session.execute(DDL, {})
    session.execute(INSERT, {"id": 1, "w": 1, "v": "a"})
    session.execute(INSERT, {"id": 2, "w": 2, "v": "b"})
    clean_fault_registry.arm(
        "router.commit_decision", OnNth(1), RaiseTransient("coordinator died")
    )
    session.execute("BEGIN TRANSACTION", {})
    session.execute(UPDATE, {"id": 1, "w": 1, "v": "x"})
    session.execute(UPDATE, {"id": 2, "w": 2, "v": "y"})
    with pytest.raises(TransientFault):
        session.execute("COMMIT", {})
    assert not session.in_transaction
    assert router.decisions.gtids() == frozenset()
    for shard, key, w, original in ((shards[0], 1, 1, "a"), (shards[1], 2, 2, "b")):
        assert shard.indoubt_gtids() == []
        rows = shard.connect().execute(SELECT_VAL, {"id": key, "w": w}).rows
        assert rows[0][0] == original


def test_decision_log_survives_coordinator_restart(cluster, tmp_path):
    """In-doubt branches resolve by decision-log membership after the
    coordinator process is rebuilt from its durable log."""
    shards, wires, router, client = cluster
    session = client.connect()
    session.execute(DDL, {})
    session.execute(INSERT, {"id": 1, "w": 1, "v": "a"})
    session.execute(INSERT, {"id": 2, "w": 2, "v": "b"})

    # Drive the branches by hand so the "crash" lands between the
    # decision record and the commit fan-out.
    d0 = RemoteServer(wires[0].host, wires[0].port)
    d1 = RemoteServer(wires[1].host, wires[1].port)
    b0, b1 = d0.connect(), d1.connect()
    b0.execute("BEGIN TRANSACTION", {})
    b1.execute("BEGIN TRANSACTION", {})
    b0.execute(UPDATE, {"id": 1, "w": 1, "v": "C1"})
    b1.execute(UPDATE, {"id": 2, "w": 2, "v": "C2"})
    committed_gtid, lost_gtid = "R:100", "R:101"
    b0.prepare_transaction(committed_gtid)
    b1.prepare_transaction(committed_gtid)
    router.decisions.record(committed_gtid)

    # A second transaction prepares on shard0 but never gets a decision.
    b0b = d0.connect()
    b0b.execute("BEGIN TRANSACTION", {})
    b0b.execute(INSERT, {"id": 3, "w": 1, "v": "z"})
    b0b.prepare_transaction(lost_gtid)

    # Both shards crash; recovery reinstates the in-doubt branches.
    for shard in shards:
        shard.crash()
    reports = [shard.recover() for shard in shards]
    assert reports[0].indoubt == [committed_gtid, lost_gtid]
    assert reports[1].indoubt == [committed_gtid]

    # A fresh coordinator (same log file) resolves by membership.
    restarted = Router(
        [(w.host, w.port) for w in wires],
        name="R2",
        decision_log=CommitDecisionLog(router.decisions.path),
    )
    try:
        outcomes = restarted.resolve_indoubt()
    finally:
        restarted.stop()
    assert outcomes == {committed_gtid: "commit", lost_gtid: "abort"}
    assert shards[0].connect().execute(SELECT_VAL, {"id": 1, "w": 1}).rows[0][0] == "C1"
    assert shards[1].connect().execute(SELECT_VAL, {"id": 2, "w": 2}).rows[0][0] == "C2"
    assert shards[0].connect().execute("SELECT ID FROM T WHERE W = @w", {"w": 1}).rows == [(1,)]
    d0.close()
    d1.close()


def test_audit_aggregates_all_shards(cluster):
    _shards, _wires, router, _client = cluster
    assert router.audit() == []     # empty DB: trivially consistent
