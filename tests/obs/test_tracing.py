"""Span tracer tests: nesting, ordering, the child cap, and the disabled
no-op path."""

from __future__ import annotations

import threading

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import (
    ECALL,
    MAX_CHILDREN_PER_SPAN,
    OPERATOR,
    STATEMENT,
    Span,
    Tracer,
)


def make_tracer() -> tuple[Tracer, MetricsRegistry]:
    registry = MetricsRegistry()
    return Tracer(registry=registry), registry


def test_span_nesting_and_ordering():
    tracer, __ = make_tracer()
    with tracer.span("root", kind=STATEMENT) as root:
        with tracer.span("child_a", kind=OPERATOR):
            with tracer.span("grandchild"):
                pass
        with tracer.span("child_b", kind=OPERATOR):
            pass
    assert [c.name for c in root.children] == ["child_a", "child_b"]
    assert [c.name for c in root.children[0].children] == ["grandchild"]
    assert root.end_s is not None
    assert root.duration_s >= root.children[0].duration_s


def test_current_tracks_innermost_span():
    tracer, __ = make_tracer()
    assert tracer.current() is None
    with tracer.span("outer") as outer:
        assert tracer.current() is outer
        with tracer.span("inner") as inner:
            assert tracer.current() is inner
        assert tracer.current() is outer
    assert tracer.current() is None


def test_abandoned_generator_span_swept_by_ancestor_exit():
    """A generator suspended at a yield inside a span never runs its
    __exit__ when the *consumer* raises past it; the enclosing span's
    exit must sweep the abandoned descendant off the thread-local stack
    or it leaks for the life of the thread (regression: a tampered-cell
    IntegrityError mid-scan left exec.table_scan open forever)."""
    tracer, __ = make_tracer()

    def producer():
        with tracer.span("producer"):
            yield 1
            yield 2

    try:
        with tracer.span("consumer"):
            for __ in producer():
                raise RuntimeError("consumer fails mid-iteration")
    except RuntimeError:
        pass
    assert tracer.current() is None
    assert tracer._stack() == []


def test_root_span_is_not_retained():
    """Spans without a parent must not accumulate anywhere (hot loops)."""
    tracer, __ = make_tracer()
    for __ in range(100):
        with tracer.span("loop_iteration"):
            pass
    assert tracer.current() is None
    assert tracer._stack() == []


def test_span_count_by_kind():
    tracer, __ = make_tracer()
    with tracer.span("stmt", kind=STATEMENT) as root:
        with tracer.span("seek", kind=OPERATOR):
            with tracer.ecall_span("enclave.eval"):
                pass
            with tracer.ecall_span("enclave.eval"):
                pass
    assert root.count(ECALL) == 2
    assert root.count(OPERATOR) == 1
    assert root.count() == 3


def test_child_cap_counts_overflow():
    tracer, __ = make_tracer()
    with tracer.span("root") as root:
        for __ in range(MAX_CHILDREN_PER_SPAN + 25):
            with tracer.span("child"):
                pass
    assert len(root.children) == MAX_CHILDREN_PER_SPAN
    assert root.dropped_children == 25
    assert "25 more spans (capped)" in root.format_tree()


def test_disabled_tracer_is_noop():
    tracer, __ = make_tracer()
    tracer.enabled = False
    with tracer.span("ignored") as span:
        pass
    assert span.end_s is None  # the shared null span, never finished
    assert tracer.current() is None


def test_ecall_span_kind():
    tracer, __ = make_tracer()
    with tracer.ecall_span("enclave.eval", mode="queued") as span:
        pass
    assert span.kind == ECALL
    assert span.attrs == {"mode": "queued"}


def test_spans_are_thread_local():
    tracer, __ = make_tracer()
    seen = {}

    def worker():
        with tracer.span("worker_root") as span:
            seen["worker"] = tracer.current() is span

    with tracer.span("main_root") as root:
        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert tracer.current() is root
    assert seen["worker"] is True
    assert root.children == []  # the other thread's span is not our child


def test_format_tree_shows_attrs_and_duration():
    span = Span(name="n", kind=OPERATOR, attrs={"table": "T"})
    span.start_s, span.end_s = 0.0, 0.001
    text = span.format_tree()
    assert "table=T" in text
    assert "1.000ms" in text
