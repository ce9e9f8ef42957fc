"""Host-speed probe: a fixed pure-Python kernel timed between ops.

On the shared 2-vCPU VMs this benchmark runs on, the same interpreter-
bound code runs up to 1.7 times faster or slower from one minute to the
next, and process CPU time moves with wall time, so neither clock alone
can tell the program's speed from the host's. The probe is a fixed piece
of work of the program's own kind (table lookups, xors and shifts as in
the pure-Python AES; object, dict, struct and bytes handling as in the
engine) that shares nothing with the program, so a change to the program
cannot change it. The window times it after every op and ``SetupClock``
times it every ``SAMPLE_INTERVAL_S`` during a set-up. A stretch of work
that took ``t`` seconds while the probe took ``p_1 .. p_n`` is reported as
``t * NOMINAL_PROBE_S * mean(1 / p_i)``: the work done at the probe's
speed, as it would read on a host where the probe takes
``NOMINAL_PROBE_S``.
"""

from __future__ import annotations

import gc
import signal
import statistics
import struct
import time

#: The probe's time on the 2-vCPU Xeon VM the benchmark was built on, at
#: its usual speed; only sets the scale the scaled timings read in.
NOMINAL_PROBE_S = 500e-6
#: Kernel runs per probe before and after a set-up; the median discards a
#: run hit by an interrupt.
SETUP_PROBE_REPEATS = 5
#: The host's speed changes within a second, and a set-up takes seconds,
#: so a set-up is probed throughout, this often.
SAMPLE_INTERVAL_S = 0.1

_TABLE = [(i * 0x9E3779B1) & 0xFFFFFFFF for i in range(256)]
_PACK = struct.Struct("<iq16s")


class _Row:
    __slots__ = ("key", "name", "value")

    def __init__(self, key: int, name: str, value: int):
        self.key = key
        self.name = name
        self.value = value


def _kernel() -> int:
    table = _TABLE
    state = 0x01234567
    for i in range(600):
        state = table[state & 0xFF] ^ table[(state >> 8) & 0xFF] ^ ((state << 3) & 0xFFFFFFFF) ^ i
    rows = {}
    packed = []
    for i in range(200):
        row = _Row(i, f"name-{(i * 7919) % 1000}", (i * 31) % 97)
        rows[row.name] = row
        packed.append(_PACK.pack(row.key, row.value, row.name.encode()))
    packed.sort()
    total = sum(_PACK.unpack(p)[1] for p in packed)
    for name in sorted(rows):
        total += rows[name].value
    return state ^ total ^ len(b"".join(packed))


def probe(repeats: int = 1) -> float:
    """The probe's time in seconds: the median of ``repeats`` kernel runs.

    One untimed run goes first: right after an op the kernel's code and
    data have left the CPU caches, and a cold run reads about 20% slower,
    by an amount that depends on what the op touched. The garbage
    collector is held off meanwhile, so that a collection the program's
    garbage is due is not charged to the probe.
    """
    clock = time.perf_counter
    times = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        _kernel()
        for __ in range(repeats):
            started = clock()
            _kernel()
            times.append(clock() - started)
    finally:
        if gc_was_enabled:
            gc.enable()
    return statistics.median(times)


def scale(seconds: float, probes: list[float]) -> float:
    """``seconds`` of work, done while the probe took ``probes``, as it
    would read on the nominal host."""
    return seconds * NOMINAL_PROBE_S * statistics.fmean(1 / p for p in probes)


class SetupClock:
    """Times a set-up and probes the host's speed throughout it.

    A timer signal runs the probe on the main thread every
    ``SAMPLE_INTERVAL_S``, between two bytecodes of whatever the set-up
    is doing there (the kernel touches none of the program's state); the
    probes' own time is taken out of the set-up's. Use as a context
    manager, then read ``seconds`` (unscaled), ``probes`` and ``scaled()``.
    """

    def __enter__(self) -> "SetupClock":
        self.probes = [probe(SETUP_PROBE_REPEATS)]
        self._probing_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._started = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        self.probes.append(probe())
        self._probing_s += time.perf_counter() - started

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.seconds = time.perf_counter() - self._started - self._probing_s
        signal.signal(signal.SIGALRM, self._previous)
        self.probes.append(probe(SETUP_PROBE_REPEATS))

    def scaled(self) -> float:
        return scale(self.seconds, self.probes)
