"""The enclave worker-queue optimization (Section 4.6).

Calling the enclave synchronously pays a security-boundary transition on
every expression evaluation — and expression evaluation is the inner loop
of query processing. The paper's optimization: pin enclave worker threads
that consume work from a queue, spinning for a fixed duration after each
item before exiting the enclave and sleeping. Under heavy enclave use the
workers stay hot and the transition cost is amortized away; under light
use they sleep and release resources.

The simulation is faithful in mechanism: real worker threads, a real queue,
real spin-then-sleep. The boundary-transition cost itself (a hypervisor
context switch on VBS) has no native analog in-process, so it is charged
explicitly as a configurable busy-wait — the knob the A1 ablation bench
sweeps.

Work shipped to a QUEUED worker carries the submitting statement's
:class:`~repro.obs.tracing.CapturedTrace` — its trace identity, open
span and metrics attribution record. The worker runs the item under
``Tracer.adopt``, so its spans, flight-recorder events and counter
increments all attribute to that statement.
"""

from __future__ import annotations

import enum
import queue
import threading
import time
from dataclasses import dataclass, field

from repro.enclave.runtime import Enclave
from repro.errors import EnclaveError
from repro.obs.flightrec import record_event
from repro.obs.metrics import StatsView, get_registry
from repro.obs.tracing import EMPTY_CAPTURE, CapturedTrace, get_tracer
from repro.obs.transition_cost import get_transition_cost_model


class CallMode(enum.Enum):
    SYNCHRONOUS = "sync"     # every call pays the boundary transition
    QUEUED = "queued"        # worker threads amortize transitions


class WorkerStats(StatsView):
    """Per-gateway view over the global ``worker.*`` counters.

    calls / boundary_transitions (times the transition cost was paid) /
    worker_wakeups (queue workers transitioning sleep→hot) / spin_hits
    (work picked up while spinning, no cost).
    """

    FIELDS = {
        "calls": "worker.calls",
        "boundary_transitions": "worker.boundary_transitions",
        "worker_wakeups": "worker.wakeups",
        "spin_hits": "worker.spin_hits",
    }


def _busy_wait(duration_s: float) -> None:
    if duration_s <= 0:
        return
    deadline = time.perf_counter() + duration_s
    while time.perf_counter() < deadline:
        pass


#: Bucket edges for the ``worker.batch_size`` histogram: powers of two up
#: to well past the default executor chunk size (64).
_BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


@dataclass
class _WorkItem:
    handle: int
    inputs: list
    done: threading.Event = field(default_factory=threading.Event)
    result: list | None = None
    error: Exception | None = None
    #: When True, ``inputs`` is a list of rows and the item routes through
    #: ``Enclave.eval_batch`` — one queue slot, one transition per chunk.
    batch: bool = False
    #: The submitting thread's trace state and attribution record; the
    #: worker adopts it so flight-recorder events emitted inside the
    #: enclave (ecall observations, measured transitions) carry the
    #: statement identity and enclave counters land in its QueryStats.
    trace: CapturedTrace = EMPTY_CAPTURE


class EnclaveCallGateway:
    """Routes host expression-eval calls to the enclave.

    In SYNCHRONOUS mode each call charges ``transition_cost_s``. In QUEUED
    mode, ``n_threads`` workers consume a shared queue; after finishing an
    item a worker spins for ``spin_duration_s`` polling for more work, and
    only a sleeping worker's wakeup charges the transition cost.

    Implements the :class:`~repro.sqlengine.expression.vm.EnclaveConnector`
    protocol, so a host StackMachine can use it directly for TM_EVAL.
    """

    def __init__(
        self,
        enclave: Enclave,
        mode: CallMode = CallMode.QUEUED,
        n_threads: int = 4,
        transition_cost_s: float = 0.0,
        spin_duration_s: float = 0.0002,
    ):
        if n_threads < 1:
            raise EnclaveError("enclave worker pool needs at least one thread")
        self.enclave = enclave
        self.mode = mode
        self.n_threads = n_threads
        self.transition_cost_s = transition_cost_s
        self.spin_duration_s = spin_duration_s
        self.stats = WorkerStats()
        self._tracer = get_tracer()
        self._queue_depth = get_registry().gauge(
            "worker.queue_depth", help="items waiting in the enclave work queue"
        )
        self._batch_size = get_registry().histogram(
            "worker.batch_size",
            buckets=_BATCH_SIZE_BUCKETS,
            help="rows shipped per enclave eval submission (1 = row-at-a-time)",
        )
        self._queue: queue.Queue[_WorkItem | None] = queue.Queue()
        self._shutdown = False
        self._threads: list[threading.Thread] = []
        # The gateway half of the sanctioned-surface registry: everything
        # declared callable by hosts must exist here, or the declaration
        # has drifted from the code.
        from repro.enclave import ECALL_SURFACE

        for entry in ECALL_SURFACE.gateway:
            if not hasattr(self, entry):
                raise EnclaveError(
                    f"ECALL_SURFACE declares gateway entry {entry!r} but "
                    "EnclaveCallGateway does not provide it"
                )
        if mode is CallMode.QUEUED:
            for i in range(n_threads):
                thread = threading.Thread(
                    target=self._worker_loop, name=f"enclave-worker-{i}", daemon=True
                )
                thread.start()
                self._threads.append(thread)

    # -- EnclaveConnector protocol --------------------------------------------

    def register_program(self, program_bytes: bytes) -> int:
        return self.enclave.register_program(program_bytes)

    def eval(self, handle: int, inputs: list) -> list:
        self.stats.inc("calls")
        self._batch_size.observe(1)
        if self.mode is CallMode.SYNCHRONOUS:
            self.stats.inc("boundary_transitions")
            with self._tracer.ecall_span("enclave.eval", mode="sync"):
                started = time.perf_counter()
                _busy_wait(self.transition_cost_s)
                result = self.enclave.eval(handle, inputs)
                self._observe_transition(1, time.perf_counter() - started)
                return result
        item = _WorkItem(handle=handle, inputs=inputs, trace=self._tracer.capture())
        # The span covers submit→completion as seen by the host thread: the
        # full cost of routing one evaluation through the enclave boundary.
        with self._tracer.ecall_span("enclave.eval", mode="queued"):
            self._queue.put(item)
            self._queue_depth.set(self._queue.qsize())
            item.done.wait()
        if item.error is not None:
            raise item.error
        assert item.result is not None
        return item.result

    def eval_batch(self, handle: int, rows: list[list]) -> list[list]:
        """Evaluate ``handle`` over many rows through one boundary crossing.

        The whole chunk travels as a single work item, so both modes charge
        the transition cost once per chunk instead of once per row — the
        Section 4.6 amortization made explicit rather than probabilistic.
        """
        if not rows:
            return []
        self.stats.inc("calls")
        self._batch_size.observe(len(rows))
        if self.mode is CallMode.SYNCHRONOUS:
            self.stats.inc("boundary_transitions")
            with self._tracer.ecall_span(
                "enclave.eval_batch", mode="sync", rows=len(rows)
            ):
                started = time.perf_counter()
                _busy_wait(self.transition_cost_s)
                result = self.enclave.eval_batch(handle, rows)
                self._observe_transition(len(rows), time.perf_counter() - started)
                return result
        item = _WorkItem(
            handle=handle, inputs=rows, batch=True, trace=self._tracer.capture()
        )
        with self._tracer.ecall_span(
            "enclave.eval_batch", mode="queued", rows=len(rows)
        ):
            self._queue.put(item)
            self._queue_depth.set(self._queue.qsize())
            item.done.wait()
        if item.error is not None:
            raise item.error
        assert item.result is not None
        return item.result

    # -- worker threads ----------------------------------------------------------

    def _worker_loop(self) -> None:
        while not self._shutdown:
            # Sleeping state: block on the queue until work or the shutdown
            # sentinel arrives, so an idle gateway costs no CPU. Picking up
            # work from here is a wakeup and pays the enclave-entry
            # transition.
            item = self._queue.get()
            if item is None:
                return
            with self._tracer.adopt(item.trace):
                self.stats.inc("worker_wakeups")
                self.stats.inc("boundary_transitions")
                _busy_wait(self.transition_cost_s)
                self._process(item)
            # Hot state: spin polling for more work before exiting. The
            # sleep(0) is the PAUSE of this spin loop — it yields the GIL
            # so submitters can actually enqueue while we poll.
            deadline = time.perf_counter() + self.spin_duration_s
            while not self._shutdown and time.perf_counter() < deadline:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    time.sleep(0)
                    continue
                if item is None:
                    return
                with self._tracer.adopt(item.trace):
                    self.stats.inc("spin_hits")
                    self._process(item)
                deadline = time.perf_counter() + self.spin_duration_s

    def _observe_transition(self, rows: int, wall_s: float) -> None:
        """Feed the measured ecall wall time to the cost model and the
        flight recorder — the batch executor's future cost-model input."""
        get_transition_cost_model().observe(rows, wall_s)
        record_event("enclave.transition", rows=rows, duration_s=wall_s)

    def _process(self, item: _WorkItem) -> None:
        self._queue_depth.set(self._queue.qsize())
        started = time.perf_counter()
        try:
            if item.batch:
                item.result = self.enclave.eval_batch(item.handle, item.inputs)
            else:
                item.result = self.enclave.eval(item.handle, item.inputs)
            self._observe_transition(
                len(item.inputs) if item.batch else 1,
                time.perf_counter() - started,
            )
        except Exception as exc:  # propagate to the submitting host thread
            item.error = exc
        finally:
            # The adopted attribution record has one writer at a time: this
            # worker while the submitter is blocked in ``item.done.wait()``,
            # then the submitter again. So every worker-side increment for
            # this item happens before this line, and none after it.
            item.done.set()

    def shutdown(self) -> None:
        self._shutdown = True
        for __ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=1.0)

    def __enter__(self) -> "EnclaveCallGateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
