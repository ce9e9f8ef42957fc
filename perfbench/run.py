"""The repository benchmark: one workload, one run, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload tpcc-pt --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 10

``--trace 0`` measures the end-to-end metrics with no tracing. ``--trace 1``
runs the same workload with the window split into alternating untraced
and traced blocks: the traced blocks give the per-layer metrics, and the
ratio of their median op latencies gives ``tracing_overhead_ratio``.
``--all`` runs every workload (untraced, one process each) and prints one
row per workload. The last line of a single run is
``{"correct", "attempted", "failed", "metrics"}``; a line before it
records the host, the unscaled clock readings and each metric's sample
count. Every reported time is scaled to a nominal host speed by the probe
in ``hostspeed.py``, and the window runs until its ops' scaled latencies
add up to ``--seconds``. A correctness violation prints no metrics and
exits 1.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import NOMINAL_PROBE_S, SETUP_PROBE_REPEATS, SetupClock, probe, scale  # noqa: E402
from metrics import per_layer, percentile  # noqa: E402
from tracer import ROUNDTRIP_SPANS, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
#: Length of one untraced or traced block in a ``--trace 1`` run.
TRACE_BLOCK_S = 1.0
#: A window ends after this many times ``--seconds`` of wall time even if
#: its scaled time is short, so a run on a very slow host still ends.
MAX_WALL_FACTOR = 3


WORKLOAD_NAMES = ("tpcc-pt", "tpcc-rnd", "rnd-scan")


def _load_program() -> bool:
    """Put the checkout's ``src`` on the path and import the program."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    import workloads  # noqa: F401  (imports the program)

    return True


# -- host record ----------------------------------------------------------------


def _git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cpu_jiffies() -> tuple[int, int]:
    """(all, steal) jiffies of the host's CPUs so far."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(v) for v in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return (0, 0)
    return sum(fields), (fields[7] if len(fields) > 7 else 0)


def pin_to_one_cpu() -> tuple[int, int]:
    """Confine the process, and every thread it starts later, to one CPU.

    The program is pure Python under one interpreter lock, so it never
    runs on two CPUs at once. Left free, each statement's hand-offs
    (client -> statement worker -> enclave worker) wake threads on the
    other vCPU, and on a shared 2-vCPU host those cross-CPU wake-ups set
    the pace: TPC-C ran at half the rate and its run-to-run spread was
    several times wider. The last allowed CPU is taken, as
    benchmarks conventionally keep clear of CPU 0. Returns (nproc, cpu).
    """
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    os.sched_setaffinity(0, {cpu})
    return len(allowed), cpu


def host_record(seed: int, nproc: int, cpu: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": nproc,
        "pinned_cpu": cpu,
        "cpu_model": _cpu_model(),
        "loadavg_1m_start": os.getloadavg()[0],
        "git_commit": _git_commit(),
        "seed": seed,
    }


# -- the measured window ----------------------------------------------------------


class Window:
    """Runs the client's closed loop, probing the host's speed after every
    op (see ``hostspeed.py``), until the ops' scaled latencies add up to
    ``seconds``.

    Each op's latency, and the latency of every driver round-trip it made,
    is scaled by the probe times just before and just after it; the probes
    are part of no latency. Ending on scaled time rather than wall time
    makes a run do the same work on a fast host as on a slow one, so the
    TPC-C tables, whose growth slows later transactions and raises peak
    memory, end the window at the same size. With a tracer, the window
    alternates untraced and traced blocks of ``TRACE_BLOCK_S`` (wall
    time), switching between two ops, so each op is wholly traced or
    wholly untraced.
    """

    def __init__(self, run, seconds: float, tracer=None):
        self.run = run
        self.seconds = seconds
        self.tracer = tracer
        #: Per op: (latency s, scaled latency s, traced, sampled for latency).
        self.ops: list[tuple[float, float, bool, bool]] = []
        self.stmts_scaled: list[float] = []
        self.probes: list[float] = []
        self.failed = 0
        self.errors: list[str] = []
        self.pages_in_traced = 0  # growth of the pool's resident set
        self._resident_at_switch = 0

    def measure(self) -> None:
        client = self.run.client
        stmts = client.timed.stmt_s
        # Start every count at the window: set-up and warm-up ran ops too.
        stmts.clear()
        client.spec_rollbacks = 0
        clock = time.perf_counter
        traced = False
        probe_s = probe()
        self.probes.append(probe_s)
        scaled_elapsed = 0.0
        wall_deadline = clock() + MAX_WALL_FACTOR * self.seconds
        block_end = clock() + TRACE_BLOCK_S if self.tracer is not None else float("inf")
        while scaled_elapsed < self.seconds and clock() < wall_deadline:
            if clock() >= block_end:
                traced = self._switch(traced)
                block_end = clock() + TRACE_BLOCK_S
            first_stmt = len(stmts)
            started = clock()
            try:
                client.op()
            except Exception as exc:  # any exception is a failed op
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"{type(exc).__name__}: {exc}")
            latency = clock() - started
            next_probe_s = probe()
            self.probes.append(next_probe_s)
            scaled_latency = scale(latency, [probe_s, next_probe_s])
            scaled_elapsed += scaled_latency
            self.ops.append((latency, scaled_latency, traced, client.latency_sample))
            factor = scaled_latency / latency
            self.stmts_scaled.extend(s * factor for s in stmts[first_stmt:])
            probe_s = next_probe_s
        if traced:
            self._switch(traced)

    def _switch(self, traced: bool) -> bool:
        """Switch tracing on or off between two ops; returns the new state."""
        if traced:
            self.tracer.uninstall()
            self.pages_in_traced += self.run.resident_pages() - self._resident_at_switch
        else:
            self._resident_at_switch = self.run.resident_pages()
            self.tracer.install()
        return not traced

    def op_count(self) -> int:
        return len(self.ops)

    def op_latencies(self, traced: bool | None = None, scaled: bool = True) -> list[float]:
        """Latencies of the ops the workload samples for latency."""
        return [
            scaled_latency if scaled else latency
            for latency, scaled_latency, was_traced, sampled in self.ops
            if sampled and (traced is None or was_traced == traced)
        ]

    def ops_per_s(self, scaled: bool = True) -> float:
        """Ops over the time the client spent in them: one closed-loop client."""
        return len(self.ops) / sum(op[1] if scaled else op[0] for op in self.ops)

    def traced_ops(self) -> int:
        return sum(was_traced for __, __, was_traced, __ in self.ops)


def end_to_end(window: Window, setups_s: list[float], import_s: float) -> tuple[dict, dict]:
    ops = window.op_latencies()
    stmts = window.stmts_scaled
    values = {
        "ops_per_s": window.ops_per_s(),
        "op_ms_p50": percentile(ops, 50) * 1e3,
        "op_ms_p95": percentile(ops, 95) * 1e3,
        "stmt_us_p50": percentile(stmts, 50) * 1e6,
        "stmt_us_p95": percentile(stmts, 95) * 1e6,
        # Process start to first measured op, as if each set-up were the
        # process's first: import time plus the median set-up.
        "setup_s": import_s + statistics.median(setups_s),
        "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {
        "ops_per_s": window.op_count(), "op_ms_p50": len(ops), "op_ms_p95": len(ops),
        "stmt_us_p50": len(stmts), "stmt_us_p95": len(stmts),
        "setup_s": len(setups_s), "rss_peak_mb": 1,
    }
    return values, samples


def traced_metrics(window: Window, tracer: Tracer) -> tuple[dict, dict]:
    traced_ops = window.op_latencies(traced=True)
    plain_ops = window.op_latencies(traced=False)
    all_ops = window.op_count()
    ops = window.traced_ops()
    aggregate = tracer.aggregate()
    stmts = sum(
        entry[0] for (name, __, __), entry in aggregate.items() if name in ROUNDTRIP_SPANS
    )
    evictions = (
        sum(entry[0] for (name, parent, __), entry in aggregate.items()
            if name == "bufferpool.allocate"
            or (name == "disk.read" and parent == "bufferpool.get"))
        - window.pages_in_traced
    )
    values = per_layer(
        aggregate,
        ops=ops,
        dispatch_wait_s=sum(tracer.dispatch_wait_s),
        evictions=evictions,
        spec_rollbacks_per_op=window.run.client.spec_rollbacks / all_ops,
        overhead_ratio=statistics.median(traced_ops) / statistics.median(plain_ops),
    )
    samples = {name: ops for name in values}
    for name in values:
        if name.endswith("_per_stmt"):
            samples[name] = stmts
    samples["tracing_overhead_ratio"] = min(len(traced_ops), len(plain_ops))
    samples["tpcc.spec_rollbacks_per_op"] = all_ops
    return values, samples

def _write_spans(path: Path, tracer) -> None:
    with open(path, "w") as out:
        for span_id, name, start, end, parent, stmt in tracer.spans:
            out.write(json.dumps({
                "id": span_id, "name": name, "start": start, "end": end,
                "parent": parent, "stmt": stmt,
            }) + "\n")


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    nproc, cpu = pin_to_one_cpu()
    if not _load_program():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _PROCESS_START
    from workloads import WORKLOADS

    build, repeats = WORKLOADS[workload]
    host = host_record(seed, nproc, cpu)
    import_s = scale(import_s, [probe(SETUP_PROBE_REPEATS)])
    setups: list[SetupClock] = []
    run = None
    for __ in range(1 if trace else repeats):
        if run is not None:
            run.close()
            run = None
            gc.collect()
        with SetupClock() as clock:
            run = build(seed)
        setups.append(clock)
    setups_s = [clock.scaled() for clock in setups]

    tracer = Tracer() if trace else None
    window = Window(run, seconds, tracer)
    all_start, steal_start = cpu_jiffies()
    try:
        window.measure()
        if trace:
            values, samples = traced_metrics(window, tracer)
        else:
            values, samples = end_to_end(window, setups_s, import_s)
        violations = run.check()
    finally:
        run.close()

    attempted = window.op_count()
    failed = window.failed
    host["loadavg_1m_end"] = os.getloadavg()[0]
    all_end, steal_end = cpu_jiffies()
    # Share of CPU time the hypervisor gave to other guests while measuring.
    host["cpu_steal_frac"] = (steal_end - steal_start) / max(all_end - all_start, 1)
    # The host's speed as the probe saw it, and what the unscaled clocks read.
    host["probe_us"] = {
        "window_median": statistics.median(window.probes) * 1e6,
        "window_min": min(window.probes) * 1e6,
        "window_max": max(window.probes) * 1e6,
        "setup_median": statistics.median(p for c in setups for p in c.probes) * 1e6,
        "nominal": NOMINAL_PROBE_S * 1e6,
    }
    unscaled_ops = window.op_latencies(scaled=False)
    host["unscaled"] = {
        "ops_per_s": window.ops_per_s(scaled=False),
        "op_ms_p50": percentile(unscaled_ops, 50) * 1e3,
        "stmt_us_p50": percentile(run.client.timed.stmt_s, 50) * 1e6,
    }
    record = {"workload": workload, "trace": int(trace), "host": host,
              "setups_s": setups_s, "setups_unscaled_s": [c.seconds for c in setups],
              "errors": window.errors,
              "violations": violations[:20]}
    if violations:
        for line in violations[:20]:
            print(f"perfbench: correctness violation: {line}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(units) != set(values):
        raise RuntimeError(
            f"metrics computed {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json"
        )
    if trace:
        record["dropped_spans"] = tracer.dropped_spans
    record["samples"] = samples
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}"
    if trace:
        _write_spans(stem.with_suffix(".spans.jsonl"), tracer)
    record["metrics"] = values
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    print("perfbench: " + json.dumps(record))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, one fresh process each; one row per workload."""
    status = 0
    rows = []
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600,
        )
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):  # the run died before its result
            result = {"correct": False, "metrics": {}}
        if proc.returncode != 0 or not result["correct"]:
            status = 1
            sys.stderr.write(proc.stderr)
        rows.append((workload, result))
    first = next((result["metrics"] for __, result in rows if result["metrics"]), {})
    names = list(first)
    print(f"{'workload':<12}" + "".join(f"{n:>14}" for n in names))
    print(f"{'':<12}" + "".join(f"{'[' + first[n]['unit'] + ']':>14}" for n in names))
    for workload, result in rows:
        cells = "".join(
            f"{result['metrics'][n]['value']:>14.4g}" if n in result["metrics"] else f"{'-':>14}"
            for n in names
        )
        flag = "" if result["correct"] else "  INCORRECT"
        print(f"{workload:<12}{cells}{flag}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the measured window, in scaled seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 2 * TRACE_BLOCK_S:
        parser.error(f"--seconds must be at least {2 * TRACE_BLOCK_S:g}")
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload or --all is required")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
