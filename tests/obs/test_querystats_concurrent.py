"""Per-statement stats stay exact when statements run concurrently.

The regression this file pins: QueryStats used to be computed as global
registry deltas (value-after minus value-before), which is only correct
when one statement runs at a time — two concurrent statements would bleed
their counter increments into each other's stats. Attribution contexts
(:class:`repro.obs.metrics.AttributionContext`) fix this: each collector
pushes a thread-local context, every ``Counter.inc`` lands in the active
contexts of *its* thread, and the enclave gateway carries the submitting
statement's contexts across the queued-worker boundary.
"""

from __future__ import annotations

import threading

from repro.client.driver import connect
from repro.obs.metrics import AttributionContext, get_registry
from repro.sqlengine.server import SqlServer
from tests.conftest import make_encrypted_table

POINT_LOOKUP = "SELECT id, value FROM T WHERE value = @v"


class TestAttributionContext:
    def test_context_captures_only_its_own_threads_increments(self):
        registry = get_registry()
        counter = registry.counter("ctxtest.hits")
        ctx = AttributionContext()
        registry.push_context(ctx)
        try:
            counter.inc()                     # this thread: attributed

            def other_thread():
                counter.inc(5)                # no context there: unattributed

            thread = threading.Thread(target=other_thread)
            thread.start()
            thread.join()
        finally:
            registry.pop_context(ctx)
        counter.inc()                         # after pop: unattributed
        assert ctx.value("ctxtest.hits") == 1

    def test_adopt_contexts_attributes_worker_increments(self):
        registry = get_registry()
        counter = registry.counter("ctxtest.adopted")
        ctx = AttributionContext()
        registry.push_context(ctx)
        contexts = registry.current_contexts()
        registry.pop_context(ctx)

        def worker():
            with registry.adopt_contexts(contexts):
                counter.inc(3)
            counter.inc()                     # outside adoption: unattributed

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert ctx.value("ctxtest.adopted") == 3

    def test_nested_contexts_both_receive(self):
        registry = get_registry()
        counter = registry.counter("ctxtest.nested")
        outer, inner = AttributionContext(), AttributionContext()
        registry.push_context(outer)
        registry.push_context(inner)
        try:
            counter.inc(2)
        finally:
            registry.pop_context(inner)
            registry.pop_context(outer)
        assert outer.value("ctxtest.nested") == 2
        assert inner.value("ctxtest.nested") == 2


class TestConcurrentStatementStats:
    def test_concurrent_inserts_report_exact_wal_records(self, registry):
        """Two sessions inserting at the same instant each see exactly the
        WAL records of *their* statement — the global-delta bug would give
        one of them (up to) both statements' records."""
        server = SqlServer(lock_timeout_s=1.0)
        conn_a = connect(server, registry, column_encryption=False)
        conn_b = connect(server, registry, column_encryption=False)
        conn_a.execute_ddl("CREATE TABLE W(id int PRIMARY KEY, v int)")

        # Baseline: what one single-row autocommit INSERT costs alone.
        baseline = conn_a.execute(
            "INSERT INTO W (id, v) VALUES (@i, @v)", {"i": 0, "v": 0}
        ).stats.wal_records
        assert baseline > 0

        barrier = threading.Barrier(2)
        results: dict[str, object] = {}

        def client(name: str, conn, row_id: int) -> None:
            barrier.wait()
            results[name] = conn.execute(
                "INSERT INTO W (id, v) VALUES (@i, @v)", {"i": row_id, "v": 1}
            )

        threads = [
            threading.Thread(target=client, args=("a", conn_a, 1)),
            threading.Thread(target=client, args=("b", conn_b, 2)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert results["a"].stats.wal_records == baseline
        assert results["b"].stats.wal_records == baseline

    def test_concurrent_enclave_queries_partition_ecalls_exactly(
        self, server, registry, attestation_policy, enclave_cmk, enclave_cek
    ):
        """Queued-gateway ecalls executed on the enclave worker thread are
        attributed to the submitting statement; two concurrent statements
        partition the registry delta with nothing lost or double-counted."""
        server.catalog.create_cmk(enclave_cmk)
        server.catalog.create_cek(enclave_cek)
        conn_a = connect(server, registry, attestation_policy=attestation_policy)
        conn_b = connect(server, registry, attestation_policy=attestation_policy)
        make_encrypted_table(conn_a)
        for i in range(6):
            conn_a.execute(
                "INSERT INTO T (id, value) VALUES (@id, @v)", {"id": i, "v": i * 10}
            )
        # Warm both connections (describe, attestation, CEK install).
        conn_a.execute(POINT_LOOKUP, {"v": 30})
        conn_b.execute(POINT_LOOKUP, {"v": 30})

        metrics = get_registry()
        before = metrics.value("enclave.ecalls")
        barrier = threading.Barrier(2)
        results: dict[str, object] = {}

        def client(name: str, conn) -> None:
            barrier.wait()
            results[name] = conn.execute(POINT_LOOKUP, {"v": 30})

        threads = [
            threading.Thread(target=client, args=("a", conn_a)),
            threading.Thread(target=client, args=("b", conn_b)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        after = metrics.value("enclave.ecalls")

        stats_a = results["a"].stats
        stats_b = results["b"].stats
        assert stats_a.ecalls > 0
        assert stats_b.ecalls > 0
        assert stats_a.ecalls + stats_b.ecalls == after - before

    def test_concurrent_statements_get_their_own_span_trees(self, registry):
        server = SqlServer(lock_timeout_s=1.0)
        conn_a = connect(server, registry, column_encryption=False)
        conn_b = connect(server, registry, column_encryption=False)
        conn_a.execute_ddl("CREATE TABLE S(id int PRIMARY KEY, v int)")
        for i in range(4):
            conn_a.execute(
                "INSERT INTO S (id, v) VALUES (@i, @v)", {"i": i, "v": i}
            )

        barrier = threading.Barrier(2)
        results: dict[str, object] = {}

        def client(name: str, conn, v: int) -> None:
            barrier.wait()
            results[name] = conn.execute(
                "SELECT id FROM S WHERE v = @v", {"v": v}
            )

        threads = [
            threading.Thread(target=client, args=("a", conn_a, 1)),
            threading.Thread(target=client, args=("b", conn_b, 2)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        span_a = results["a"].stats.root_span
        span_b = results["b"].stats.root_span
        assert span_a is not None and span_b is not None
        assert span_a is not span_b
        assert results["a"].rows == [(1,)]
        assert results["b"].rows == [(2,)]
