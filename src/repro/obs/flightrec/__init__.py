"""The flight recorder: a bounded, thread-safe structured event log.

Every instrumentation point in the stack — spans closing, ecall
observations, lock and latch waits, fault injections, WAL flushes,
leakage observations — feeds one process-global :class:`FlightRecorder`.
The recorder is a ring buffer: it never grows without bound, and
eviction is *counted*, never silent.

Event kinds are a closed registry (:data:`EVENT_KINDS`), mirroring the
``ECALL_SURFACE`` pattern: instrumentation may only record declared
kinds, the static analyzer validates every ``record_event("...")``
literal against this registry, and the JSONL schema validator rejects
files carrying undeclared kinds. Kind names follow the same
``component.noun`` convention as metric names (:data:`EVENT_NAME_RE`).

Events carry the emitting thread's :class:`~repro.obs.tracing.TraceContext`
(statement id, session id) when one is active, which is what lets the
exporters parent every ecall and lock-wait under the correct statement —
the cross-thread propagation PR this recorder ships with.

Recording is near-free when disabled: ``recorder.enabled = False`` or
``get_registry().enabled = False`` both reduce :func:`record_event` to an
attribute check and return.
"""

from __future__ import annotations

import re
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.obs.metrics import get_registry
from repro.obs.tracing import Span, TraceContext, get_tracer

#: Shares the metric-name convention: lowercase dot-separated segments.
EVENT_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")

SCHEMA_NAME = "repro-flightrec"
SCHEMA_VERSION = 1

#: The closed registry of event kinds: name → description. The analyzer's
#: site-metric rule validates every ``record_event`` literal against this
#: map, so an undeclared kind fails ``python -m repro.analysis --strict``
#: before it can fail at runtime.
EVENT_KINDS: dict[str, str] = {
    "stmt.begin": "a statement started executing on the server",
    "stmt.end": "a statement finished (attrs: elapsed_s, rows, ok)",
    "span.end": "a tracer span closed (attrs: name, span_kind, duration_s)",
    "enclave.ecall": "one enclave boundary crossing (attrs: name)",
    "enclave.transition": "measured ecall wall time (attrs: rows, duration_s)",
    "lock.wait": "a txn lock wait ended (attrs: resource, duration_s)",
    "lock.timeout": "a txn lock wait timed out (attrs: resource, duration_s)",
    "latch.wait": "a contended latch acquisition (attrs: latch, level, duration_s)",
    "wal.flush": "the WAL forced to disk (attrs: flushed_lsn)",
    "fault.injected": "an armed fault fired (attrs: site)",
    "leak.det_equality": "adversary-observable DET equality reveal (attrs: column)",
    "leak.rnd_comparison": "adversary-observable RND comparison verdict (attrs: column)",
    "leak.index_touch": "adversary-observable index traversal touch (attrs: column)",
    "anchor.advance": "freshness anchor advanced (attrs: epoch, position, kind)",
    "anchor.verify": "recovery-time freshness check passed (attrs: epoch, anchored_lsn)",
    "anchor.mismatch": "stale restore detected at recovery (attrs: epoch, violations)",
    "rotation.begin": "an online key-lifecycle job started (attrs: rotation_id, job)",
    "rotation.batch": "one rotation batch committed (attrs: rotation_id, rows, watermark)",
    "rotation.resume": "recovery reinstated a mid-flight rotation (attrs: rotation_id, watermark)",
    "rotation.end": "an online key-lifecycle job completed (attrs: rotation_id, rows, version)",
}

DEFAULT_CAPACITY = 65536


class FlightRecorderError(ValueError):
    """Undeclared event kind or malformed recorder input."""


@dataclass
class Event:
    """One recorded event. ``ts_s`` is ``time.perf_counter()`` based, the
    same clock spans use, so span and event timelines interleave exactly."""

    seq: int
    ts_s: float
    kind: str
    thread: str
    trace_id: int | None = None
    statement_id: int | None = None
    session_id: int | None = None
    attrs: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out: dict = {"seq": self.seq, "ts_s": self.ts_s, "kind": self.kind,
                     "thread": self.thread}
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
            out["statement_id"] = self.statement_id
            out["session_id"] = self.session_id
        if self.attrs:
            out["attrs"] = self.attrs
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "Event":
        return cls(
            seq=payload["seq"],
            ts_s=payload["ts_s"],
            kind=payload["kind"],
            thread=payload.get("thread", "?"),
            trace_id=payload.get("trace_id"),
            statement_id=payload.get("statement_id"),
            session_id=payload.get("session_id"),
            attrs=dict(payload.get("attrs", {})),
        )


class FlightRecorder:
    """Bounded in-memory event log with drop accounting.

    ``capacity`` bounds memory: the oldest events are evicted when the
    ring fills and ``dropped`` counts them, so a consumer always knows
    whether it is looking at a complete recording.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY, registry=None, tracer=None):
        if capacity < 1:
            raise FlightRecorderError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        self.enabled = True
        self._registry = registry or get_registry()
        self._tracer = tracer or get_tracer()
        # The ring holds raw tuples, not Event objects — the record() hot
        # path sits inside every instrumented code path, so it builds one
        # tuple; Event dataclasses materialize only at snapshot time.
        self._events: deque[tuple] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0
        self.dropped = 0
        # Registry counters are batched: record() tallies plain ints under
        # the ring lock and _sync_counters() (called by every reader)
        # settles them, so the hot path never touches the metric locks.
        self._pending_recorded = 0
        self._pending_dropped = 0
        self._recorded_counter = self._registry.counter(
            "flightrec.events_recorded", help="events accepted by the flight recorder"
        )
        self._dropped_counter = self._registry.counter(
            "flightrec.events_dropped", help="events evicted from the bounded ring"
        )

    # -- state -------------------------------------------------------------

    @property
    def recording(self) -> bool:
        """Both switches must be on: the recorder's own and the registry's
        (so one global kill switch silences metrics *and* events)."""
        return self.enabled and self._registry.enabled

    def clear(self) -> None:
        self._sync_counters()
        with self._lock:
            self._events.clear()
            self.dropped = 0
            self._seq = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    # -- recording ---------------------------------------------------------

    def record(self, kind: str, **attrs) -> None:
        """Record one event of a *declared* kind; trace identity is read
        from the calling thread's tracer context."""
        if not (self.enabled and self._registry.enabled):
            return
        if kind not in EVENT_KINDS:
            raise FlightRecorderError(
                f"event kind {kind!r} is not declared in "
                "repro.obs.flightrec.EVENT_KINDS; declare it there (and let "
                "the analyzer validate call sites) before recording it"
            )
        # Inlined current_trace(): this path runs inside every instrumented
        # hot loop, so it reads the tracer's thread-local directly.
        context = getattr(self._tracer._local, "trace", None)
        thread = threading.current_thread().name
        with self._lock:
            if len(self._events) == self.capacity:
                self.dropped += 1
                self._pending_dropped += 1
            self._seq += 1
            self._pending_recorded += 1
            self._events.append(
                (self._seq, time.perf_counter(), kind, thread, context, attrs)
            )

    def _sync_counters(self) -> None:
        """Settle batched tallies into the registry counters. Called from
        every reader, so exported counts are exact whenever observed."""
        with self._lock:
            recorded, self._pending_recorded = self._pending_recorded, 0
            dropped, self._pending_dropped = self._pending_dropped, 0
        if recorded:
            self._recorded_counter.inc(recorded)
        if dropped:
            self._dropped_counter.inc(dropped)

    def events(self) -> list[Event]:
        """A consistent snapshot of the ring, oldest first."""
        self._sync_counters()
        with self._lock:
            raw = list(self._events)
        return [
            Event(
                seq=seq,
                ts_s=ts_s,
                kind=kind,
                thread=thread,
                trace_id=context.trace_id if context else None,
                statement_id=context.statement_id if context else None,
                session_id=context.session_id if context else None,
                attrs=attrs,
            )
            for seq, ts_s, kind, thread, context, attrs in raw
        ]

    # -- span sink ---------------------------------------------------------

    def _span_sink(self, span: Span, context: TraceContext | None) -> None:
        """Installed on the tracer: every closing span becomes a
        ``span.end`` event (the exporters rebuild complete spans from it).
        ``context`` is already the closing thread's trace, but the event
        re-reads it via ``record`` — same value, one code path."""
        self.record(
            "span.end",
            name=span.name,
            span_kind=span.kind,
            duration_s=span.duration_s,
        )

    def install(self) -> None:
        """Attach the recorder to the tracer's span stream."""
        self._tracer.add_span_sink(self._span_sink)

    def uninstall(self) -> None:
        self._tracer.remove_span_sink(self._span_sink)


# --------------------------------------------------------------------------
# The process-global recorder, installed on the global tracer at import.

_global_recorder = FlightRecorder()
_global_recorder.install()


def get_recorder() -> FlightRecorder:
    """The process-global flight recorder every component records into."""
    return _global_recorder


#: The instrumentation hook: record one event at a *literal* kind. Call
#: sites must pass the kind as a string literal (outside
#: ``repro.obs``/``repro.faults``) — the static analyzer audits every
#: literal against :data:`EVENT_KINDS`, exactly like fault sites. Bound
#: directly to the global recorder's method so the hot path pays no
#: wrapper-call or kwargs re-expansion cost.
record_event = _global_recorder.record
