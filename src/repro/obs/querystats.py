"""Per-statement execution statistics.

The engine attaches a :class:`QueryStats` to every statement result: the
registry deltas accumulated while the statement ran, plus (when tracing is
on) the statement's span tree. This is the repro's ``SET STATISTICS``
equivalent — and the measurement substrate the paper's claims are checked
against: ecalls per query (Section 4.6), pages touched per index seek over
ciphertext (Section 3.1.2), and driver cache effectiveness (Section 4.1).

The collector installs a fresh attribution record — a plain ``dict`` —
as the executing thread's record for the duration of the statement
(:meth:`~repro.obs.metrics.MetricsRegistry.swap_record`): every counter
increment made by that thread, and by an enclave-gateway worker acting on
its behalf (the record travels in the :class:`~repro.obs.tracing.CapturedTrace`
the worker adopts), also lands in the record. Concurrent statements
therefore read back exactly their own counts instead of folding into each
other's deltas — what ``tests/obs/test_querystats_concurrent.py`` pins
down. When a collector ends it restores the record it replaced and adds
its counts into it, so an enclosing collector (the driver's, around an
in-process server statement) still sees everything that ran inside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.tracing import ECALL, Span

# Counter names diffed into QueryStats. Keys are QueryStats field names.
_SERVER_DELTA_FIELDS: dict[str, str] = {
    "ecalls": "enclave.ecalls",
    "enclave_evals": "enclave.evals",
    "enclave_eval_batches": "enclave.eval_batches",
    "enclave_batched_rows": "enclave.batched_rows",
    "enclave_comparisons": "enclave.comparisons",
    "boundary_transitions": "worker.boundary_transitions",
    "rows_scanned": "executor.rows_scanned",
    "index_node_visits": "index.nodes_visited",
    "page_hits": "bufferpool.page_hits",
    "page_misses": "bufferpool.page_misses",
    "pages_evicted": "bufferpool.pages_evicted",
    "wal_records": "wal.records_appended",
    "wal_bytes": "wal.bytes_written",
    "lock_waits": "locks.waits",
    "latch_waits": "latch.waits",
    "latch_wait_seconds": "latch.wait_seconds",
    "plan_cache_hits": "server.plan_cache_hits",
    "faults_injected": "faults.injected",
}

#: Per-level latch counters (``latch.l07_wait_seconds``) are dynamic —
#: one pair per contended hierarchy level — so they are harvested from
#: the record by prefix instead of a fixed field map.
_LATCH_LEVEL_PREFIX = "latch.l"

_DRIVER_DELTA_FIELDS: dict[str, str] = {
    "cek_cache_hits": "driver.cek_cache_hits",
    "cek_cache_misses": "driver.cek_cache_misses",
    "describe_roundtrips": "driver.describe_roundtrips",
    "retries": "driver.retries",
}


@dataclass
class QueryStats:
    """What one statement cost, in the units the paper argues in."""

    query_text: str = ""
    plan_info: str = ""
    elapsed_s: float = 0.0
    rows_returned: int = 0

    # Trace identity (filled by the server; 0 = not assigned).
    statement_id: int = 0
    session_id: int = 0

    # Server-side registry deltas.
    ecalls: int = 0
    enclave_evals: int = 0
    enclave_eval_batches: int = 0
    enclave_batched_rows: int = 0
    enclave_comparisons: int = 0
    boundary_transitions: int = 0
    rows_scanned: int = 0
    index_node_visits: int = 0
    page_hits: int = 0
    page_misses: int = 0
    pages_evicted: int = 0
    wal_records: int = 0
    wal_bytes: int = 0
    lock_waits: int = 0
    latch_waits: int = 0
    latch_wait_seconds: float = 0.0
    plan_cache_hits: int = 0
    faults_injected: int = 0

    #: Per-hierarchy-level latch waits this statement caused:
    #: ``{"latch.l07_waits": 2, "latch.l07_wait_seconds": 0.003, ...}``.
    latch_level_waits: dict[str, int | float] = field(default_factory=dict)

    # Driver-side registry deltas (filled by the client driver).
    cek_cache_hits: int = 0
    cek_cache_misses: int = 0
    describe_roundtrips: int = 0
    retries: int = 0

    # The statement's span tree when tracing was enabled.
    root_span: Span | None = None

    @property
    def pages_read(self) -> int:
        """Pages touched through the buffer pool (hits + misses)."""
        return self.page_hits + self.page_misses

    @property
    def ecall_spans(self) -> int:
        """Boundary-crossing spans in the trace (0 when tracing is off)."""
        if self.root_span is None:
            return 0
        return self.root_span.count(ECALL)

    def as_dict(self) -> dict:
        out = {
            "query_text": self.query_text,
            "plan_info": self.plan_info,
            "elapsed_s": self.elapsed_s,
            "rows_returned": self.rows_returned,
            "pages_read": self.pages_read,
        }
        for attr in (*_SERVER_DELTA_FIELDS, *_DRIVER_DELTA_FIELDS):
            out[attr] = getattr(self, attr)
        return out


class _RecordScope:
    """Owns one attribution record on the calling thread.

    Construction installs a fresh record and remembers the one it
    replaced; :meth:`_close` puts that one back and adds this scope's
    counts into it, so nested scopes compose.
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry or get_registry()
        self._record: dict[str, int | float] = {}
        self._saved = self.registry.swap_record(self._record)

    def _close(self) -> dict[str, int | float]:
        self.registry.swap_record(self._saved)
        if self._saved is not None:
            for name, amount in self._record.items():
                self._saved[name] = self._saved.get(name, 0) + amount
        return self._record

    def cancel(self) -> None:
        """End the scope without building stats (statement failed)."""
        self._close()


class QueryStatsCollector(_RecordScope):
    """Record-based collector wrapped around one statement execution.

    :meth:`finish` (success path) or :meth:`cancel` (exception path) ends
    it. The collector must be created and ended on the thread that
    executes the statement.
    """

    def __init__(self, registry: MetricsRegistry | None = None, query_text: str = ""):
        super().__init__(registry)
        self.query_text = query_text

    def finish(
        self,
        elapsed_s: float | None = None,
        rows_returned: int = 0,
        plan_info: str = "",
        root_span: Span | None = None,
    ) -> QueryStats:
        record = self._close()
        if root_span is not None and root_span.end_s is None:
            # The disabled-tracer null span (never finished): drop it.
            root_span = None
        if elapsed_s is None:
            elapsed_s = root_span.duration_s if root_span is not None else 0.0
        stats = QueryStats(
            query_text=self.query_text,
            plan_info=plan_info,
            elapsed_s=elapsed_s,
            rows_returned=rows_returned,
            root_span=root_span,
        )
        for attr, name in _SERVER_DELTA_FIELDS.items():
            setattr(stats, attr, record.get(name, 0))
        stats.latch_level_waits = {
            name: value
            for name, value in record.items()
            if name.startswith(_LATCH_LEVEL_PREFIX)
        }
        return stats


class DriverStatsCollector(_RecordScope):
    """The driver-side half: cache and round-trip counts around execute()."""

    def apply(self, stats: QueryStats | None) -> None:
        record = self._close()
        if stats is None:
            return
        for attr, name in _DRIVER_DELTA_FIELDS.items():
            setattr(stats, attr, record.get(name, 0))


def format_explain_stats(stats: QueryStats) -> str:
    """The ``EXPLAIN STATS`` pretty-printer: one statement's cost profile."""
    rows = [
        ("query", stats.query_text or "<unknown>"),
        ("plan", stats.plan_info or "<n/a>"),
        ("elapsed_ms", f"{stats.elapsed_s * 1000:.3f}"),
        ("rows_returned", stats.rows_returned),
        ("rows_scanned", stats.rows_scanned),
        ("pages_read", stats.pages_read),
        ("  page_hits", stats.page_hits),
        ("  page_misses", stats.page_misses),
        ("pages_evicted", stats.pages_evicted),
        ("index_node_visits", stats.index_node_visits),
        ("wal_records", stats.wal_records),
        ("wal_bytes", stats.wal_bytes),
        ("ecalls", stats.ecalls),
        ("  enclave_evals", stats.enclave_evals),
        ("  enclave_eval_batches", stats.enclave_eval_batches),
        ("  enclave_batched_rows", stats.enclave_batched_rows),
        ("  enclave_comparisons", stats.enclave_comparisons),
        ("boundary_transitions", stats.boundary_transitions),
        ("lock_waits", stats.lock_waits),
        ("latch_waits", stats.latch_waits),
        ("latch_wait_ms", f"{stats.latch_wait_seconds * 1000:.3f}"),
        ("plan_cache_hits", stats.plan_cache_hits),
        ("faults_injected", stats.faults_injected),
        ("cek_cache_hits", stats.cek_cache_hits),
        ("cek_cache_misses", stats.cek_cache_misses),
        ("describe_roundtrips", stats.describe_roundtrips),
        ("retries", stats.retries),
    ]
    for name in sorted(stats.latch_level_waits):
        if name.endswith("_waits") and stats.latch_level_waits[name]:
            seconds = stats.latch_level_waits.get(
                name.replace("_waits", "_wait_seconds"), 0.0
            )
            rows.append(
                (f"  {name}", f"{stats.latch_level_waits[name]} "
                              f"({seconds * 1000:.3f}ms)")
            )
    width = max(len(str(label)) for label, __ in rows)
    lines = ["EXPLAIN STATS"]
    lines += [f"  {str(label).ljust(width)}  {value}" for label, value in rows]
    if stats.root_span is not None:
        lines.append("  span tree:")
        for line in stats.root_span.format_tree().splitlines():
            lines.append("    " + line)
    return "\n".join(lines)


def format_explain_analyze(stats: QueryStats) -> str:
    """The ``EXPLAIN ANALYZE`` timeline view: the statement's span tree as
    a waterfall (offset from statement start, duration, self-evident
    nesting) plus its contention profile — where this statement waited.
    """
    lines = [
        "EXPLAIN ANALYZE",
        f"  statement #{stats.statement_id} (session {stats.session_id})  "
        f"{stats.elapsed_s * 1000:.3f}ms  rows={stats.rows_returned}",
        f"  query: {stats.query_text or '<unknown>'}",
    ]
    root = stats.root_span
    if root is not None:
        lines.append("  timeline:")

        def walk(span, depth: int) -> None:
            offset_ms = (span.start_s - root.start_s) * 1000
            attrs = ""
            if span.attrs:
                attrs = "  " + " ".join(f"{k}={v}" for k, v in span.attrs.items())
            lines.append(
                f"    +{offset_ms:9.3f}ms {'  ' * depth}{span.name} "
                f"({span.kind}) {span.duration_s * 1000:.3f}ms{attrs}"
            )
            for child in span.children:
                walk(child, depth + 1)
            if span.dropped_children:
                lines.append(
                    f"    {'  ' * (depth + 1)}... {span.dropped_children} "
                    "more spans (capped)"
                )

        walk(root, 0)
    else:
        lines.append("  timeline: <tracing disabled>")
    lines.append("  waits:")
    lines.append(
        f"    lock_waits={stats.lock_waits}  latch_waits={stats.latch_waits}  "
        f"latch_wait_ms={stats.latch_wait_seconds * 1000:.3f}"
    )
    for name in sorted(stats.latch_level_waits):
        if name.endswith("_waits") and stats.latch_level_waits[name]:
            seconds = stats.latch_level_waits.get(
                name.replace("_waits", "_wait_seconds"), 0.0
            )
            lines.append(
                f"    {name}={stats.latch_level_waits[name]} "
                f"({seconds * 1000:.3f}ms)"
            )
    lines.append(
        f"  enclave: ecalls={stats.ecalls} "
        f"transitions={stats.boundary_transitions} "
        f"batched_rows={stats.enclave_batched_rows}"
    )
    return "\n".join(lines)
