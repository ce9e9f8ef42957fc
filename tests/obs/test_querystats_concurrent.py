"""Per-statement stats stay exact when statements run concurrently.

The regression this file pins: QueryStats used to be computed as global
registry deltas (value-after minus value-before), which is only correct
when one statement runs at a time — two concurrent statements would bleed
their counter increments into each other's stats. Per-statement
attribution records fix this: each collector installs a thread-local
``dict`` (:meth:`repro.obs.metrics.MetricsRegistry.swap_record`), every
``Counter.inc`` lands in the record of *its* thread, and the enclave
gateway carries the submitting statement's record across the
queued-worker boundary inside the ``Tracer.capture``/``Tracer.adopt``
hand-off.
"""

from __future__ import annotations

import sys
import threading

from repro.client.driver import connect
from repro.obs.metrics import get_registry
from repro.obs.querystats import QueryStatsCollector
from repro.obs.tracing import get_tracer
from repro.sqlengine.server import SqlServer
from tests.conftest import make_encrypted_table

POINT_LOOKUP = "SELECT id, value FROM T WHERE value = @v"


class TestAttributionContext:
    """A collector's record receives exactly its statement's increments."""

    def test_context_captures_only_its_own_threads_increments(self):
        counter = get_registry().counter("executor.rows_scanned")
        collector = QueryStatsCollector()
        try:
            counter.inc()                     # this thread: attributed

            def other_thread():
                counter.inc(5)                # no record there: unattributed

            thread = threading.Thread(target=other_thread)
            thread.start()
            thread.join()
        finally:
            stats = collector.finish()
        counter.inc()                         # after finish: unattributed
        assert stats.rows_scanned == 1
        assert get_registry().thread_record() is None

    def test_adopt_contexts_attributes_worker_increments(self):
        counter = get_registry().counter("executor.rows_scanned")
        tracer = get_tracer()
        collector = QueryStatsCollector()
        captured = tracer.capture()

        def worker():
            with tracer.adopt(captured):
                counter.inc(3)
            counter.inc()                     # outside adoption: unattributed

        # The submitter blocks while the worker writes its record, as the
        # enclave gateway's submitter does in ``item.done.wait()``.
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert collector.finish().rows_scanned == 3

    def test_nested_contexts_both_receive(self):
        counter = get_registry().counter("wal.records_appended")
        outer = QueryStatsCollector()
        counter.inc()
        inner = QueryStatsCollector()
        counter.inc(2)
        inner_stats = inner.finish()
        counter.inc(4)
        outer_stats = outer.finish()
        assert inner_stats.wal_records == 2
        assert outer_stats.wal_records == 7


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
        partitioned = {
            "enclave.ecalls": "ecalls",
            "enclave.batched_rows": "enclave_batched_rows",
            "worker.boundary_transitions": "boundary_transitions",
        }
        before = {name: metrics.value(name) for name in partitioned}
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
        after = {name: metrics.value(name) for name in partitioned}

        stats_a = results["a"].stats
        stats_b = results["b"].stats
        assert stats_a.ecalls > 0
        assert stats_b.ecalls > 0
        for name, attr in partitioned.items():
            assert (
                getattr(stats_a, attr) + getattr(stats_b, attr)
                == after[name] - before[name]
            ), name

    def test_queued_attribution_is_exact_under_thread_churn(
        self, server, registry, attestation_policy, enclave_cmk, enclave_cek
    ):
        """More sessions than cores, with the interpreter switching threads
        as often as it can: every statement still reads back exactly the
        enclave work of one lookup, and the statements partition the
        registry deltas. A lost update on an attribution record shared
        between a session and an enclave worker would break either."""
        server.catalog.create_cmk(enclave_cmk)
        server.catalog.create_cek(enclave_cek)
        conns = [
            connect(server, registry, attestation_policy=attestation_policy)
            for __ in range(4)
        ]
        make_encrypted_table(conns[0])
        for i in range(6):
            conns[0].execute(
                "INSERT INTO T (id, value) VALUES (@id, @v)", {"id": i, "v": i * 10}
            )
        for conn in conns:
            conn.execute(POINT_LOOKUP, {"v": 30})
        alone = conns[0].execute(POINT_LOOKUP, {"v": 30}).stats
        assert alone.ecalls > 0
        # Transitions depend on whether a worker was still spinning, so
        # they are checked only as a partition of the global delta.
        partitioned = {
            "enclave.ecalls": "ecalls",
            "enclave.batched_rows": "enclave_batched_rows",
            "worker.boundary_transitions": "boundary_transitions",
        }
        metrics = get_registry()
        before = {name: metrics.value(name) for name in partitioned}

        results: list = []

        def client(conn) -> None:
            for __ in range(5):
                results.append(conn.execute(POINT_LOOKUP, {"v": 30}).stats)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(c,)) for c in conns]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 20
        for stats in results:
            assert stats.ecalls == alone.ecalls
            assert stats.enclave_batched_rows == alone.enclave_batched_rows
        for name, attr in partitioned.items():
            assert (
                sum(getattr(stats, attr) for stats in results)
                == metrics.value(name) - before[name]
            ), name

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
