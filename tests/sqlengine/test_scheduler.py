"""StatementScheduler and SqlServer session-limit behaviour."""

from __future__ import annotations

import threading
import time

import pytest

from repro.client.driver import connect
from repro.errors import ServerBusyError, SqlError
from repro.obs.metrics import get_registry
from repro.sqlengine.scheduler import StatementScheduler
from repro.sqlengine.server import ServerSession, SqlServer


class TestStatementScheduler:
    def test_submit_returns_result(self):
        scheduler = StatementScheduler()
        assert scheduler.submit(lambda: 41 + 1) == 42

    def test_passthrough_mode_runs_on_calling_thread(self):
        scheduler = StatementScheduler()
        caller = threading.current_thread()
        ran_on: list[threading.Thread] = []
        scheduler.submit(lambda: ran_on.append(threading.current_thread()))
        assert ran_on == [caller]

    def test_errors_propagate_to_submitter(self):
        scheduler = StatementScheduler()

        def boom():
            raise ValueError("expected")

        with pytest.raises(ValueError, match="expected"):
            scheduler.submit(boom)

    def test_shutdown_rejects_new_work(self):
        scheduler = StatementScheduler()
        scheduler.shutdown()
        with pytest.raises(RuntimeError):
            scheduler.submit(lambda: None)


class TestStatementThread:
    def test_statements_run_on_the_executing_sessions_thread(self, monkeypatch):
        """Every DML statement runs on the thread that called
        ``ServerSession.execute``, whichever thread that is."""
        server = SqlServer()
        setup = server.connect()
        setup.execute("CREATE TABLE TT(id int PRIMARY KEY, v int)")
        ran_on: list[tuple[str, threading.Thread]] = []
        run_statement = ServerSession._run_statement

        def spy(session, query_text, params):
            ran_on.append((query_text, threading.current_thread()))
            return run_statement(session, query_text, params)

        monkeypatch.setattr(ServerSession, "_run_statement", spy)
        callers: dict[str, threading.Thread] = {}

        def client(i: int) -> None:
            insert = f"INSERT INTO TT (id, v) VALUES ({i}, {i})"
            select = f"SELECT v FROM TT WHERE id = {i}"
            callers[insert] = callers[select] = threading.current_thread()
            session = server.connect()
            session.execute(insert)
            session.execute(select)

        client(0)
        threads = [threading.Thread(target=client, args=(i,)) for i in (1, 2, 3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert len(ran_on) == 8
        for query_text, thread in ran_on:
            assert thread is callers[query_text], query_text

    def test_lock_holder_is_not_starved_by_its_waiters(self):
        """A transaction holding a row lock must be able to run its next
        statement while more sessions than a small statement pool would
        have threads sit blocked on that lock; otherwise the holder queues
        behind its own waiters until they time out."""
        n_waiters = 5
        server = SqlServer(lock_timeout_s=5.0)
        holder = server.connect()
        holder.execute("CREATE TABLE R(id int PRIMARY KEY, v int)")
        holder.execute("INSERT INTO R (id, v) VALUES (1, 0)")
        holder.execute("BEGIN TRANSACTION")
        holder.execute("UPDATE R SET v = @v WHERE id = 1", {"v": -1})

        registry = get_registry()
        waits_before = registry.value("locks.waits")
        errors: list[Exception] = []

        def waiter(i: int) -> None:
            session = server.connect()
            try:
                session.execute("UPDATE R SET v = @v WHERE id = 1", {"v": i})
            except Exception as exc:
                errors.append(exc)
            finally:
                session.close()

        threads = [
            threading.Thread(target=waiter, args=(i,)) for i in range(n_waiters)
        ]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 10.0
        while (
            registry.value("locks.waits") - waits_before < n_waiters
            and time.monotonic() < deadline
        ):
            time.sleep(0.005)
        assert registry.value("locks.waits") - waits_before >= n_waiters

        holder.execute("INSERT INTO R (id, v) VALUES (2, 0)")
        holder.execute("COMMIT")
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert errors == []
        assert holder.execute("SELECT v FROM R WHERE id = 1").rows[0][0] in range(
            n_waiters
        )


class TestSessionLimits:
    def test_max_sessions_enforced(self, registry):
        server = SqlServer(max_sessions=2)
        connect(server, registry, column_encryption=False)
        connect(server, registry, column_encryption=False)
        with pytest.raises(ServerBusyError):
            connect(server, registry, column_encryption=False)

    def test_close_frees_a_session_slot(self, registry):
        server = SqlServer(max_sessions=1)
        conn = connect(server, registry, column_encryption=False)
        conn.close()
        connect(server, registry, column_encryption=False)  # slot reusable

    def test_closed_session_rejects_statements(self, registry):
        server = SqlServer()
        conn = connect(server, registry, column_encryption=False)
        conn.execute_ddl("CREATE TABLE C(id int PRIMARY KEY)")
        conn.close()
        with pytest.raises(SqlError):
            conn.execute("SELECT id FROM C", {})

    def test_close_aborts_open_transaction(self, registry):
        server = SqlServer()
        conn_a = connect(server, registry, column_encryption=False)
        conn_a.execute_ddl("CREATE TABLE D(id int PRIMARY KEY)")
        conn_a.begin()
        conn_a.execute("INSERT INTO D (id) VALUES (@i)", {"i": 1})
        conn_a.close()                        # implicit rollback
        conn_b = connect(server, registry, column_encryption=False)
        assert conn_b.execute("SELECT id FROM D", {}).rows == []

    def test_connection_context_manager_closes(self, registry):
        server = SqlServer(max_sessions=1)
        with connect(server, registry, column_encryption=False) as conn:
            conn.execute_ddl("CREATE TABLE E(id int PRIMARY KEY)")
        connect(server, registry, column_encryption=False)

    def test_sessions_gauge_tracks_open_sessions(self, registry):
        from repro.obs.metrics import get_registry

        # The gauge holds the absolute open-session count of the server
        # that last touched it; with this fresh server acting alone it
        # reads 1 while the connection is open and 0 after close.
        server = SqlServer()
        conn = connect(server, registry, column_encryption=False)
        assert get_registry().value("server.sessions_open") == 1
        conn.close()
        assert get_registry().value("server.sessions_open") == 0
