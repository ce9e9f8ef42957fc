"""Cross-check the wrapper-based layer split against cProfile, once.

Usage (from the repository root):

    python3 perfbench/crosscheck.py --seed 1 --seconds 10

Runs ``tpcc-rnd`` twice, on two freshly built systems of the same seed.
The first window runs with the benchmark's wrappers installed and groups
span self time by layer. The second runs under cProfile in every thread
(the client thread, the statement workers and the enclave workers) and
groups self time by the module it was spent in; a builtin's time goes to
the module that called it. Both are printed side by side in µs per op.
Time cProfile puts in modules no wrapper covers ("other repro", "other
python") is what the wrapper split folds into the nearest wrapped
ancestor's self time, and ``unattributed`` is the statement body no layer
span covers. A thread blocked in a hand-off (waiting for a statement
worker or an enclave worker) is shown on its own row and left out of the
total, since the worker's own profile already counts that time, and so
is the host-speed probe the window runs between ops. Both profilers slow
the program down; compare shares, not absolutes.
"""

from __future__ import annotations

import argparse
import cProfile
import sys
import threading
import types
from collections import defaultdict

import run as bench
from metrics import layer_self_us
from tracer import Tracer

PROBE = "probe"
#: Path fragment -> layer, first match wins.
MODULE_LAYERS = [
    ("repro/client/", "driver"),
    ("repro/sqlengine/scheduler.py", "dispatch"),
    ("repro/sqlengine/sqlparser/", "plan"),
    ("repro/sqlengine/typededuce.py", "plan"),
    ("repro/sqlengine/scope.py", "exec"),
    ("repro/sqlengine/server.py", "unattributed"),
    ("repro/sqlengine/expression/", "expr"),
    ("repro/sqlengine/exec/", "exec"),
    ("repro/sqlengine/index/", "index"),
    ("repro/sqlengine/storage/", "storage"),
    ("repro/sqlengine/engine.py", "engine"),
    ("repro/sqlengine/txn/", "locks"),
    ("repro/enclave/worker.py", "gateway"),
    ("repro/enclave/", "enclave"),
    ("repro/crypto/", "crypto"),
    ("repro/obs/", "obs"),
    ("repro/workloads/", "workload"),
    ("repro/", "other repro"),
    ("perfbench/hostspeed.py", PROBE),
    ("perfbench/", "workload"),
    ("/threading.py", "thread waits"),
    ("/queue.py", "thread waits"),
]
WAITS = "thread waits"
BLOCKED = "blocked"
#: Span-name prefix -> the same layer names.
SPAN_LAYERS = {
    "serde": "storage", "heap": "storage", "bufferpool": "storage",
    "disk": "storage", "wal": "storage",
}


def module_layer(code) -> str:
    path = code.co_filename.replace("\\", "/")
    for fragment, layer in MODULE_LAYERS:
        if fragment in path:
            return layer
    return "other python"


def profile_self_s(profilers) -> dict[str, float]:
    """Self seconds per layer so far, builtins charged to their caller.

    Calls into ``threading`` or ``queue`` are blocking waits: their time
    goes to the ``blocked`` row, except the waits of an idle worker loop
    for its next item, which no op waits on.
    """
    out: dict[str, float] = defaultdict(float)
    blocked = 0.0
    for profiler in profilers:
        for entry in profiler.getstats():
            if not isinstance(entry.code, types.CodeType):
                continue  # a builtin: charged through its callers' edges
            layer = module_layer(entry.code)
            if layer == WAITS:
                continue  # charged through its callers' edges
            out[layer] += entry.inlinetime
            idle_loop = entry.code.co_name == "_worker_loop"
            for sub in entry.calls or ():
                if not isinstance(sub.code, types.CodeType):
                    out[layer] += sub.inlinetime
                elif module_layer(sub.code) == WAITS and not idle_loop:
                    blocked += sub.totaltime
    out[BLOCKED] = blocked
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    bench.pin_to_one_cpu()
    if not bench._load_program():
        print("crosscheck: no program source under src/", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    build = WORKLOADS["tpcc-rnd"][0]

    # Window 1: the benchmark's wrappers.
    run = build(args.seed)
    tracer = Tracer()
    tracer.install()
    try:
        window = bench.Window(run, args.seconds)
        window.measure()
    finally:
        tracer.uninstall()
        violations = run.check()
        run.close()
    traced_ops = window.op_count()
    traced: dict[str, float] = defaultdict(float)
    for layer, us in layer_self_us(tracer.aggregate()).items():
        traced[SPAN_LAYERS.get(layer, layer)] += us / traced_ops

    # Window 2: cProfile in every thread of a freshly built system, so the
    # statement and enclave worker threads start with a profiler of their
    # own (a profiler can only be switched off from its own thread).
    profilers: list[cProfile.Profile] = []

    def profile_new_thread(frame, event, arg):
        profiler = cProfile.Profile()
        profilers.append(profiler)
        profiler.enable()  # replaces this hook for the thread

    main_profiler = cProfile.Profile()
    profilers.append(main_profiler)
    threading.setprofile(profile_new_thread)
    try:
        run = build(args.seed)
        main_profiler.enable()
        before = profile_self_s(profilers)
        window = bench.Window(run, args.seconds)
        window.measure()
        after = profile_self_s(profilers)
        main_profiler.disable()
        violations += run.check()
        run.close()
    finally:
        threading.setprofile(None)
    profiled_ops = window.op_count()
    profiled = {k: (after[k] - before.get(k, 0.0)) * 1e6 / profiled_ops for k in after}

    blocked_us = profiled.pop(BLOCKED)
    probe_us = profiled.pop(PROBE, 0.0)
    layers = sorted(set(profiled) | set(traced), key=lambda k: -profiled.get(k, 0.0))
    p_total, t_total = sum(profiled.values()), sum(traced.values())
    print(f"tpcc-rnd seed {args.seed}: {profiled_ops} ops under cProfile, "
          f"{traced_ops} ops traced; self time per op")
    print(f"{'layer':<14}{'cProfile us/op':>16}{'share':>8}{'wrappers us/op':>16}{'share':>8}")
    for layer in layers:
        p, t = profiled.get(layer, 0.0), traced.get(layer, 0.0)
        print(f"{layer:<14}{p:>16.1f}{p / p_total:>8.1%}{t:>16.1f}{t / t_total:>8.1%}")
    print(f"{'total':<14}{p_total:>16.1f}{'':>8}{t_total:>16.1f}")
    print(f"{BLOCKED:<14}{blocked_us:>16.1f}  (hand-off waits, not in the total)")
    print(f"{PROBE:<14}{probe_us:>16.1f}  (host-speed probe between ops, not in the total)")
    if violations:
        print("crosscheck: TPC-C invariant violations: " + "; ".join(violations[:5]),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
