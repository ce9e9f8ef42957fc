"""Span recorder that wraps the program's public functions from outside.

``Tracer.install`` replaces each function named in :data:`LAYER_SPANS`
(a class attribute, or a module-level function together with every
module that imported it by name) with a wrapper that records a span:
name, start, end, parent span and statement id. ``uninstall`` puts the
originals back. Nothing under ``src/`` is edited.

Self time is a span's duration minus the part its child spans cover. It is
computed as spans close: each open frame accumulates its children's
durations. Aggregates are kept per thread, keyed by
``(name, parent name, inside-enclave)``, and merged when the run ends.
Full span records are kept in memory up to :data:`MAX_KEPT_SPANS` and
written out at the end.

Two hand-offs cross threads: a statement submitted to the scheduler runs
on a worker thread, and a QUEUED enclave call runs on an enclave worker
thread. The submit wrapper wraps the callable it receives, so the
statement's frame is parented to the submit span. An enclave entry point
that opens on a thread with no open frame is parented to the gateway
span in flight (at most one per client), i.e. matched by interval.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time

MAX_KEPT_SPANS = 50_000

# Span names that start a driver round-trip: each gets a new statement id.
ROUNDTRIP_SPANS = frozenset({"driver.execute", "driver.begin", "driver.commit", "driver.rollback"})
# Frames that only carry structure; their self time is "unattributed".
CONTAINER_SPANS = frozenset({"server.execute", "dispatch.run"})


def _len_arg(position: int, keyword: str):
    def units(args, kwargs, result):
        value = kwargs[keyword] if keyword in kwargs else args[position]
        return len(value)
    return units


def _rows_returned(args, kwargs, result):
    return len(result.rows) if result is not None else 0


def _cache_hit(args, kwargs, result):
    return int(result is not None)


def _wal_bytes(args, kwargs, result):
    before = kwargs.get("before", args[5] if len(args) > 5 else None)
    after = kwargs.get("after", args[6] if len(args) > 6 else None)
    return len(before or b"") + len(after or b"")


#: (module, qualified attribute, span name, kind, units | None).
#: kind: "call" (plain function or method), "gen" (generator function:
#: each resume is timed, the call counted once), "submit" (scheduler
#: hand-off). ``units(args, kwargs, result)`` gives the work one call did
#: (rows, compares, bytes, cache hits); None means 1.
LAYER_SPANS = [
    # driver
    ("repro.client.driver", "Connection.execute", "driver.execute", "call", None),
    ("repro.client.driver", "Connection.begin", "driver.begin", "call", None),
    ("repro.client.driver", "Connection.commit", "driver.commit", "call", None),
    ("repro.client.driver", "Connection.rollback", "driver.rollback", "call", None),
    ("repro.sqlengine.server", "SqlServer.describe_parameter_encryption",
     "driver.describe", "call", None),
    ("repro.client.caches", "CekCache.get", "driver.cek_cache_get", "call", _cache_hit),
    # dispatch
    ("repro.sqlengine.scheduler", "StatementScheduler.submit", "dispatch.submit", "submit", None),
    # parse and plan
    ("repro.sqlengine.server", "ServerSession.execute", "server.execute", "call", None),
    ("repro.sqlengine.server", "SqlServer._plan", "plan.lookup", "call", None),
    ("repro.sqlengine.sqlparser", "parse", "plan.parse", "call", None),
    ("repro.sqlengine.typededuce", "deduce", "plan.deduce", "call", None),
    # expression
    ("repro.sqlengine.expression.compiler", "compile_expression", "expr.compile", "call", None),
    ("repro.sqlengine.expression.vm", "StackMachine.eval", "expr.vm", "call", None),
    ("repro.sqlengine.expression.vm", "StackMachine.eval_batch", "expr.vm", "call", None),
    ("repro.sqlengine.expression.vm", "StackMachine.eval_predicate", "expr.vm", "call", None),
    ("repro.sqlengine.expression.vm", "StackMachine.eval_predicate_batch", "expr.vm", "call", None),
    # executor
    ("repro.sqlengine.exec.executor", "Executor.execute", "exec.execute", "call", _rows_returned),
    ("repro.sqlengine.exec.planner", "choose_access_path", "exec.access_path", "call", None),
    # index
    ("repro.sqlengine.index.btree", "BPlusTree.search_eq", "index.search_eq", "call", None),
    ("repro.sqlengine.index.btree", "BPlusTree.range_scan", "index.range_scan", "gen", None),
    ("repro.sqlengine.index.btree", "BPlusTree.insert", "index.insert", "call", None),
    ("repro.sqlengine.index.btree", "BPlusTree.delete", "index.delete", "call", None),
    # The engine's trees always hold a CompositeComparator; the cell and
    # plaintext/enclave comparators below it run inside this span.
    ("repro.sqlengine.index.comparators", "CompositeComparator.compare",
     "index.compare", "call", None),
    ("repro.sqlengine.index.comparators", "CompositeComparator.compare_one_to_many",
     "index.compare", "call", _len_arg(2, "keys")),
    # storage
    ("repro.sqlengine.storage.record", "serialize_row", "serde.serialize", "call", None),
    ("repro.sqlengine.storage.record", "deserialize_row", "serde.deserialize", "call", None),
    ("repro.sqlengine.storage.heap", "HeapFile.insert", "heap.insert", "call", None),
    ("repro.sqlengine.storage.bufferpool", "BufferPool.get", "bufferpool.get", "call", None),
    ("repro.sqlengine.storage.bufferpool", "BufferPool.allocate_page",
     "bufferpool.allocate", "call", None),
    ("repro.sqlengine.storage.disk", "Disk.read_page", "disk.read", "call", None),
    ("repro.sqlengine.storage.wal", "WriteAheadLog.append", "wal.append", "call", _wal_bytes),
    ("repro.sqlengine.storage.wal", "WriteAheadLog.flush", "wal.flush", "call", None),
    # engine
    ("repro.sqlengine.engine", "StorageEngine.commit", "engine.commit", "call", None),
    ("repro.sqlengine.engine", "StorageEngine.abort", "engine.abort", "call", None),
    ("repro.sqlengine.engine", "StorageEngine.insert", "engine.dml", "call", None),
    ("repro.sqlengine.engine", "StorageEngine.update", "engine.dml", "call", None),
    ("repro.sqlengine.engine", "StorageEngine.delete", "engine.dml", "call", None),
    # locks
    ("repro.sqlengine.txn.locks", "LockManager.acquire", "locks.acquire", "call", None),
    # enclave gateway and enclave
    ("repro.enclave.worker", "EnclaveCallGateway.eval", "gateway.eval", "call", None),
    ("repro.enclave.worker", "EnclaveCallGateway.eval_batch", "gateway.eval", "call", None),
    ("repro.enclave.runtime", "Enclave.eval", "enclave.eval", "call", None),
    ("repro.enclave.runtime", "Enclave.eval_batch", "enclave.eval", "call", _len_arg(2, "rows")),
    ("repro.enclave.runtime", "Enclave.compare", "enclave.compare", "call", None),
    ("repro.enclave.runtime", "Enclave.compare_batch", "enclave.compare", "call",
     _len_arg(3, "candidates")),
    # crypto (driver side or enclave side, split by ancestor)
    ("repro.crypto.aead", "CellCipher.encrypt", "crypto.encrypt", "call", None),
    ("repro.crypto.aead", "CellCipher.decrypt", "crypto.decrypt", "call", None),
    # telemetry
    ("repro.obs.metrics", "Counter.inc", "obs.counter", "call", None),
    ("repro.obs.metrics", "Gauge.set", "obs.gauge", "call", None),
    ("repro.obs.metrics", "Histogram.observe", "obs.histogram", "call", None),
    ("repro.obs.metrics", "StatsView.inc", "obs.statsview", "call", None),
    ("repro.obs.tracing", "Tracer.span", "obs.span", "call", None),
    ("repro.obs.tracing", "_SpanContext.__enter__", "obs.span_enter", "call", None),
    ("repro.obs.tracing", "_SpanContext.__exit__", "obs.span_exit", "call", None),
    ("repro.obs.flightrec", "record_event", "obs.event", "call", None),
    ("repro.obs.querystats", "QueryStatsCollector.__init__", "obs.querystats", "call", None),
    ("repro.obs.querystats", "QueryStatsCollector.finish", "obs.querystats", "call", None),
]


def layer_of(name: str) -> str:
    """The layer a span name belongs to (its prefix; crypto and driver
    spans keep their own prefixes)."""
    return name.split(".", 1)[0]


class _Frame:
    __slots__ = ("span_id", "name", "parent", "start", "child_s", "stmt", "enclave")

    def __init__(self, span_id, name, parent, stmt, enclave):
        self.span_id = span_id
        self.name = name
        self.parent = parent
        self.stmt = stmt
        self.enclave = enclave
        self.child_s = 0.0
        self.start = 0.0


class Tracer:
    """Records spans around the functions in :data:`LAYER_SPANS`."""

    def __init__(self):
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._stmt_ids = itertools.count(1)
        self._aggs: list[dict] = []
        self._aggs_lock = threading.Lock()
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.dispatch_wait_s: list[float] = []
        self._gateway_inflight: list[_Frame] = []
        self._patches: list[tuple[object, str, object, object]] | None = None

    # -- recording ----------------------------------------------------------

    def _agg(self) -> dict:
        agg = getattr(self._tls, "agg", None)
        if agg is None:
            agg = self._tls.agg = {}
            with self._aggs_lock:
                self._aggs.append(agg)
        return agg

    def _open(self, name: str) -> _Frame:
        tls = self._tls
        parent = getattr(tls, "top", None)
        if parent is None and name.startswith("enclave.") and self._gateway_inflight:
            # A QUEUED ecall running on an enclave worker thread.
            parent = self._gateway_inflight[-1]
        if name in ROUNDTRIP_SPANS and (parent is None or parent.stmt is None):
            stmt = next(self._stmt_ids)
        else:
            stmt = parent.stmt if parent is not None else None
        enclave = name.startswith("enclave.") or (parent is not None and parent.enclave)
        frame = _Frame(next(self._ids), name, parent, stmt, enclave)
        if name == "gateway.eval":
            self._gateway_inflight.append(frame)
        tls.top = frame
        frame.start = time.perf_counter()
        return frame

    def _close(self, frame: _Frame, saved_top, units, error: bool) -> None:
        end = time.perf_counter()
        self._tls.top = saved_top
        if frame.name == "gateway.eval":
            self._gateway_inflight.remove(frame)
        duration = end - frame.start
        parent = frame.parent
        if parent is not None:
            parent.child_s += duration
        key = (frame.name, parent.name if parent is not None else None, frame.enclave)
        agg = self._agg()
        entry = agg.get(key)
        if entry is None:
            entry = agg[key] = [0, 0, 0.0, 0.0, 0]
        entry[0] += 1
        entry[1] += units
        entry[2] += duration
        entry[3] += duration - frame.child_s
        entry[4] += error
        if len(self.spans) < MAX_KEPT_SPANS:
            self.spans.append((
                frame.span_id, frame.name, frame.start, end,
                parent.span_id if parent is not None else None, frame.stmt,
            ))
        else:
            self.dropped_spans += 1

    def _wrap_call(self, name, fn, units_fn):
        tracer = self

        def traced(*args, **kwargs):
            saved = getattr(tracer._tls, "top", None)
            frame = tracer._open(name)
            error = True
            result = None
            try:
                result = fn(*args, **kwargs)
                error = False
                return result
            finally:
                units = 1 if units_fn is None else units_fn(args, kwargs, result)
                tracer._close(frame, saved, units, error)

        return traced

    def _wrap_gen(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            first = True
            while True:
                saved = getattr(tracer._tls, "top", None)
                frame = tracer._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    tracer._close(frame, saved, int(first), False)
                    return
                except BaseException:
                    tracer._close(frame, saved, int(first), True)
                    raise
                tracer._close(frame, saved, int(first), False)
                first = False
                yield item

        return traced

    def _wrap_submit(self, name, fn):
        tracer = self

        def submit(scheduler, statement):
            # Runs inside the submit span, which the outer wrapper opened.
            parent = tracer._tls.top
            submitted = time.perf_counter()

            def run():
                tls = tracer._tls
                saved = getattr(tls, "top", None)
                tracer.dispatch_wait_s.append(time.perf_counter() - submitted)
                tls.top = parent
                frame = tracer._open("dispatch.run")
                error = True
                try:
                    result = statement()
                    error = False
                    return result
                finally:
                    tracer._close(frame, saved, 1, error)

            return fn(scheduler, run)

        return self._wrap_call(name, submit, None)

    # -- installing ---------------------------------------------------------

    def _targets(self):
        """(owner, attribute, original, wrapper) for every patch site."""
        patches = []
        for module_name, qualname, name, kind, units_fn in LAYER_SPANS:
            module = importlib.import_module(module_name)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                sites = [(owner, attr)]
            else:
                attr = qualname
                original = getattr(module, attr)
                sites = [
                    (mod, key)
                    for mod_name, mod in list(sys.modules.items())
                    if mod_name.startswith("repro") and mod is not None
                    for key, value in list(vars(mod).items())
                    if value is original
                ]
            if kind == "gen":
                wrapper = self._wrap_gen(name, original)
            elif kind == "submit":
                wrapper = self._wrap_submit(name, original)
            else:
                wrapper = self._wrap_call(name, original, units_fn)
            patches.extend((owner, attr, original, wrapper) for owner, attr in sites)
        return patches

    def install(self) -> None:
        if self._patches is None:
            self._patches = self._targets()
        for owner, attr, __, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, __ in self._patches or ():
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def aggregate(self) -> dict:
        """(name, parent name, inside enclave) -> [calls, units, total s,
        self s, errors], merged over threads."""
        merged: dict = {}
        with self._aggs_lock:
            aggs = list(self._aggs)
        for agg in aggs:
            for key, entry in list(agg.items()):
                into = merged.setdefault(key, [0, 0, 0.0, 0.0, 0])
                for i, value in enumerate(entry):
                    into[i] += value
        return merged
