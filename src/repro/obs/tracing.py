"""Query-scoped span traces.

A span is one timed region of work (a statement, an operator, an enclave
crossing) with attributes. Spans nest through a thread-local stack, so
instrumented code never threads a context object around:

    with tracer.span("exec.index_seek", table="T") as span:
        ...

The dedicated :data:`ECALL` span kind makes enclave boundary transitions
first-class in every query's trace — the quantity Section 4.6 of the
paper optimizes and the one every perf PR here must report.

Spans with no enclosing parent are returned to the caller but retained
nowhere, so tracing a hot loop without an active statement trace cannot
leak memory. Child lists are capped (:data:`MAX_CHILDREN_PER_SPAN`); the
overflow is *counted*, never silently dropped.

Cross-thread propagation: a statement establishes a :class:`TraceContext`
on its session's thread; when it ships work to the QUEUED enclave
gateway, submitting code calls :meth:`Tracer.capture` and the receiving
thread wraps the work in :meth:`Tracer.adopt`, so spans and
flight-recorder events emitted on the worker parent under the submitting
statement's trace instead of silently rooting a fresh one. The capture
also carries the statement's metrics attribution record (see
:meth:`~repro.obs.metrics.MetricsRegistry.swap_record`), so counters the
worker increments land in the submitting statement's QueryStats. With
``tracer.strict`` set (tests), an adopted thread opening a span with no
inherited context raises :class:`TraceOrphanError` — the loud failure
mode for broken propagation.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass, field

from repro.obs.metrics import MetricsRegistry, get_registry

# Span kinds. Plain strings so instrumentation can invent operator kinds
# freely; ECALL is special-cased by QueryStats and the pretty-printer.
INTERNAL = "internal"
STATEMENT = "statement"
OPERATOR = "operator"
ECALL = "enclave.ecall"

MAX_CHILDREN_PER_SPAN = 512

# Guards cross-thread child attachment: gateway workers append children
# onto a span owned by the (blocked) submitting thread.
_CHILD_LOCK = threading.Lock()


class TraceOrphanError(RuntimeError):
    """A worker-thread span had no adopted trace context (strict mode)."""


@dataclass(frozen=True)
class TraceContext:
    """Identity of the statement a trace belongs to.

    ``trace_id`` currently equals ``statement_id`` (one trace per
    statement); they are separate fields so multi-statement traces can
    exist later without a schema change.
    """

    trace_id: int
    statement_id: int
    session_id: int = 0


@dataclass(frozen=True)
class CapturedTrace:
    """What :meth:`Tracer.capture` snapshots for hand-off to a worker."""

    context: TraceContext | None = None
    parent: "Span | None" = None
    #: The submitting statement's metrics attribution record.
    record: dict | None = None


#: Shared empty capture so hot submit paths allocate nothing.
EMPTY_CAPTURE = CapturedTrace()


@dataclass
class Span:
    """One timed region of work."""

    name: str
    kind: str = INTERNAL
    attrs: dict = field(default_factory=dict)
    start_s: float = 0.0
    end_s: float | None = None
    children: list["Span"] = field(default_factory=list)
    dropped_children: int = 0

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def add_child(self, child: "Span") -> None:
        # Adopted parents receive children from whichever worker thread is
        # doing the statement's work; the submitter is blocked meanwhile,
        # but gateway workers can interleave, so attachment is serialized.
        with _CHILD_LOCK:
            if len(self.children) >= MAX_CHILDREN_PER_SPAN:
                self.dropped_children += 1
                return
            self.children.append(child)

    def count(self, kind: str | None = None) -> int:
        """Spans in this subtree (excluding self), optionally by kind."""
        total = 0
        for child in self.children:
            if kind is None or child.kind == kind:
                total += 1
            total += child.count(kind)
        return total

    def format_tree(self, indent: int = 0) -> str:
        pad = "  " * indent
        attrs = ""
        if self.attrs:
            attrs = " " + " ".join(f"{k}={v}" for k, v in self.attrs.items())
        line = f"{pad}{self.name} ({self.kind}) {self.duration_s * 1000:.3f}ms{attrs}"
        lines = [line]
        for child in self.children:
            lines.append(child.format_tree(indent + 1))
        if self.dropped_children:
            lines.append(f"{pad}  ... {self.dropped_children} more spans (capped)")
        return "\n".join(lines)


class _SpanContext:
    """Context manager handed out by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_span", "_parent")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span
        self._parent: Span | None = None

    def __enter__(self) -> Span:
        self._span.start_s = time.perf_counter()
        stack = self._tracer._stack()
        self._parent = stack[-1] if stack else None
        stack.append(self._span)
        return self._span

    def __exit__(self, *exc_info) -> None:
        span = self._span
        span.end_s = time.perf_counter()
        stack = self._tracer._stack()
        # Pop this span plus anything still stacked above it: a generator
        # suspended at a yield inside a span never runs its __exit__ when
        # an exception unwinds past it in the *consumer*, so an ancestor
        # exiting must sweep those abandoned descendants or the
        # thread-local stack leaks for the life of the thread.
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] is span:
                del stack[i:]
                break
        if self._parent is not None:
            self._parent.add_child(span)
        tracer = self._tracer
        if tracer._sinks:
            context = tracer.current_trace()
            for sink in tuple(tracer._sinks):
                sink(span, context)


class _NullSpanContext:
    """Returned when tracing is disabled: one shared, do-nothing object."""

    __slots__ = ()

    def __enter__(self) -> Span:
        return _NULL_SPAN

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = Span(name="disabled", kind=INTERNAL)
_NULL_CONTEXT = _NullSpanContext()


class Tracer:
    """Produces nested spans; one instance is process-global (:func:`get_tracer`)."""

    def __init__(self, registry: MetricsRegistry | None = None, enabled: bool = True):
        self.enabled = enabled
        #: Fail loudly when an adopted worker thread opens a span with no
        #: inherited trace context or parent (tests flip this on).
        self.strict = False
        self.registry = registry or get_registry()
        self._local = threading.local()
        #: Span sinks: callables ``(span, trace_context)`` invoked when a
        #: span closes — how the flight recorder sees spans without the
        #: tracer importing it (that would be a cycle).
        self._sinks: list = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    # -- trace-context propagation ----------------------------------------

    def current_trace(self) -> TraceContext | None:
        """The trace context active on the calling thread, if any."""
        return getattr(self._local, "trace", None)

    @contextlib.contextmanager
    def trace(self, context: TraceContext):
        """Establish ``context`` as the thread's trace for the duration."""
        previous = getattr(self._local, "trace", None)
        self._local.trace = context
        try:
            yield context
        finally:
            self._local.trace = previous

    def capture(self) -> CapturedTrace:
        """Snapshot the calling thread's trace state and attribution record
        for worker hand-off."""
        context = self.current_trace()
        parent = self.current()
        record = self.registry.thread_record()
        if context is None and parent is None and record is None:
            return EMPTY_CAPTURE
        return CapturedTrace(context=context, parent=parent, record=record)

    @contextlib.contextmanager
    def adopt(self, captured: CapturedTrace):
        """Run the body under a captured trace on a *different* thread.

        The captured parent span (if any) is pushed onto this thread's
        stack so spans opened here nest under it; it is popped — without
        re-attaching, it belongs to the submitter's stack — at exit. The
        captured attribution record is installed as this thread's record
        for the duration. Safe because the submitting thread blocks on
        the work's completion while its span and record are shared.
        """
        local = self._local
        previous_trace = getattr(local, "trace", None)
        previously_adopted = getattr(local, "adopted", False)
        local.trace = captured.context
        local.adopted = True
        previous_record = self.registry.swap_record(captured.record)
        stack = self._stack()
        pushed = captured.parent is not None
        if pushed:
            stack.append(captured.parent)
        try:
            yield
        finally:
            if pushed:
                # Pop the foreign parent plus any spans abandoned above it
                # (same sweep rationale as _SpanContext.__exit__).
                for i in range(len(stack) - 1, -1, -1):
                    if stack[i] is captured.parent:
                        del stack[i:]
                        break
            self.registry.swap_record(previous_record)
            local.trace = previous_trace
            local.adopted = previously_adopted

    # -- span sinks --------------------------------------------------------

    def add_span_sink(self, sink) -> None:
        """``sink(span, trace_context)`` is called at every span close."""
        if sink not in self._sinks:
            self._sinks.append(sink)

    def remove_span_sink(self, sink) -> None:
        if sink in self._sinks:
            self._sinks.remove(sink)

    def span(
        self, name: str, kind: str = INTERNAL, **attrs
    ) -> _SpanContext | _NullSpanContext:
        """Open a span; ``attrs`` are recorded on it."""
        if not self.enabled:
            return _NULL_CONTEXT
        if (
            self.strict
            and getattr(self._local, "adopted", False)
            and self.current() is None
            and self.current_trace() is None
        ):
            raise TraceOrphanError(
                f"span {name!r} opened on an adopted worker thread with no "
                "trace context or parent span — the submitting side failed "
                "to capture/propagate its trace"
            )
        return _SpanContext(self, Span(name=name, kind=kind, attrs=attrs))

    def ecall_span(self, name: str, **attrs) -> _SpanContext | _NullSpanContext:
        """A span for one enclave boundary crossing."""
        return self.span(name, kind=ECALL, **attrs)


_global_tracer = Tracer()


def get_tracer() -> Tracer:
    return _global_tracer
