"""Cross-thread trace-context propagation, end to end.

Two concurrent sessions drive encrypted statements, each on its own
thread, through the QUEUED enclave gateway, and every flight-recorder
event emitted on *any* thread — the session's thread, an enclave
worker — must carry the statement identity of the statement that caused
it. A context that leaked across sessions (or was dropped at a thread
hop) is the orphaned-span bug these tests pin."""

from __future__ import annotations

import threading

import pytest

from repro.client.driver import connect
from repro.obs.flightrec import get_recorder
from repro.obs.leakage import get_leakage_accountant
from repro.obs.tracing import TraceOrphanError, Tracer, get_tracer
from repro.sqlengine.server import SqlServer
from tests.conftest import make_encrypted_table

POINT_LOOKUP = "SELECT id, value FROM T WHERE value = @v"

#: Events caused by statement execution — if one of these carries a
#: statement id, it must be the id of the statement that caused it.
STATEMENT_SCOPED = (
    "stmt.begin", "stmt.end", "enclave.ecall", "enclave.transition",
    "leak.det_equality", "leak.rnd_comparison", "leak.index_touch",
    "lock.wait", "lock.timeout", "span.end",
)


@pytest.fixture()
def recorder():
    rec = get_recorder()
    rec.clear()
    yield rec
    rec.clear()
    get_leakage_accountant().reset()


def test_concurrent_sessions_partition_events_by_statement(
    recorder, server, registry, attestation_policy, enclave_cmk, enclave_cek
):
    """Two sessions on two threads, one queued enclave gateway: the
    recording must attribute every statement-scoped event to the
    statement that caused it, with zero cross-session bleed."""
    server.catalog.create_cmk(enclave_cmk)
    server.catalog.create_cek(enclave_cek)
    conn_a = connect(server, registry, attestation_policy=attestation_policy)
    conn_b = connect(server, registry, attestation_policy=attestation_policy)
    make_encrypted_table(conn_a)
    for i in range(6):
        conn_a.execute(
            "INSERT INTO T (id, value) VALUES (@id, @v)", {"id": i, "v": i * 10}
        )
    # Warm both connections (describe, attestation, CEK install) so the
    # recorded window contains only the two concurrent statements.
    conn_a.execute(POINT_LOOKUP, {"v": 30})
    conn_b.execute(POINT_LOOKUP, {"v": 30})

    recorder.clear()
    barrier = threading.Barrier(2)
    results: dict[str, object] = {}

    def client(name: str, conn, v: int) -> None:
        barrier.wait()
        results[name] = conn.execute(POINT_LOOKUP, {"v": v})

    threads = [
        threading.Thread(target=client, args=("a", conn_a, 30)),
        threading.Thread(target=client, args=("b", conn_b, 40)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert results["a"].rows and results["b"].rows
    stmt_a = results["a"].stats.statement_id
    stmt_b = results["b"].stats.statement_id
    assert stmt_a != stmt_b
    session_of = {
        stmt_a: conn_a.session.session_id,
        stmt_b: conn_b.session.session_id,
    }
    assert len(set(session_of.values())) == 2

    events = recorder.events()
    seen: dict[int, list] = {stmt_a: [], stmt_b: []}
    for event in events:
        if event.statement_id is None:
            continue
        # No bleed: only the two statements we ran may appear, and each
        # event's session id must be the session that owns its statement.
        assert event.statement_id in session_of, event
        assert event.session_id == session_of[event.statement_id], event
        assert event.kind in STATEMENT_SCOPED, event
        seen[event.statement_id].append(event)

    for stmt_id, stmt_events in seen.items():
        kinds = {e.kind for e in stmt_events}
        # The encrypted point lookup crosses the enclave boundary, so the
        # recording must show the boundary under this statement's trace.
        assert "stmt.begin" in kinds and "stmt.end" in kinds
        assert "enclave.ecall" in kinds
        # Cross-thread propagation: the statement's events span more than
        # one thread (the session's thread submits, enclave worker evaluates),
        # and every one of them still carries the statement id.
        threads_used = {e.thread for e in stmt_events}
        assert len(threads_used) >= 2, (stmt_id, threads_used)
        assert any(t.startswith("enclave-worker") for t in threads_used)


def test_statements_on_scheduler_workers_are_never_orphaned(recorder, registry):
    """Strict orphan mode stays silent for the whole dispatch path: the
    statement's trace is established before any span opens."""
    tracer = get_tracer()
    assert not tracer.strict
    tracer.strict = True
    try:
        server = SqlServer(lock_timeout_s=1.0)
        conn = connect(server, registry, column_encryption=False)
        conn.execute_ddl("CREATE TABLE O(id int PRIMARY KEY, v int)")
        result = conn.execute(
            "INSERT INTO O (id, v) VALUES (@i, @v)", {"i": 1, "v": 1}
        )
        assert result.stats.statement_id is not None
    finally:
        tracer.strict = False
    stmt_events = [e for e in recorder.events() if e.statement_id is not None]
    assert stmt_events, "dispatched statement recorded no events"
    assert {e.statement_id for e in stmt_events} == {result.stats.statement_id}


def test_strict_mode_rejects_spans_on_unpropagated_workers():
    """An adopted worker whose submitter failed to capture its trace is
    an orphan factory; strict mode turns that silent mis-parenting into
    an error."""
    tracer = Tracer()
    tracer.strict = True
    empty = tracer.capture()          # no active trace: empty capture
    failures: list[Exception] = []

    def worker():
        with tracer.adopt(empty):
            try:
                with tracer.span("orphan.work"):
                    pass
            except TraceOrphanError as exc:
                failures.append(exc)

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join()
    assert len(failures) == 1
