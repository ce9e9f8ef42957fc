"""The server's statement entry point: statements run on the session's thread.

A session's DML statement executes start-to-finish on the thread that
called :meth:`~repro.sqlengine.server.ServerSession.execute`. Under the
GIL a hand-off to a separate worker thread buys no parallelism; it adds
thread switches to every statement and lets a lock holder's next
statement queue behind workers blocked on that holder's locks. Statement
concurrency is bounded by session admission (``SqlServer.max_sessions``),
one statement per session at a time.

Running on the caller's thread is also what makes per-statement
observability correct under concurrency: the span tracer is thread-local,
and the :class:`~repro.obs.querystats.QueryStatsCollector` pushes its
attribution context on the thread that executes the statement.
"""

from __future__ import annotations

from typing import Callable


class StatementScheduler:
    """Runs statement closures inline; refuses new work after shutdown."""

    def __init__(self) -> None:
        self._shutdown = False

    def submit(self, fn: Callable[[], object]) -> object:
        """Run ``fn`` on the calling thread and return its result."""
        if self._shutdown:
            raise RuntimeError("statement scheduler is shut down")
        return fn()

    def shutdown(self) -> None:
        """Stop accepting statements."""
        self._shutdown = True
