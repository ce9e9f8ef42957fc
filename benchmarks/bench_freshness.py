"""FRESHNESS — anchor overhead on the TPC-C write path.

The freshness anchor touches the engine's hottest durability points: one
advance ecall per WAL flush and one advance + confirm pair per page
write-back. The rollback defense is only deployable if that tax is
provably small:

* with the anchor **on**, a TPC-C write slice may run at most 5% slower
  than the identical slice with the anchor off (paper mode). The slice
  is the ``payment`` transaction — every run commits, so every run pays
  the anchor's per-flush advance on the WAL chain head. The page-side
  hooks (advance + confirm around each write-back) are exercised by an
  explicit checkpoint after the timed region, which must leave the
  anchor holding a digest for every flushed page.

Anchoring is a construction-time choice (the anchor seeds itself from
the durable state it attaches to), so the arms are two *systems* —
identical config, one built with ``freshness_anchor=True`` — rather than
one system with a toggled flag. Timings are still paired: the
transaction RNG of both systems is reseeded identically per pair so the
arms time byte-identical work, pair order alternates so neither arm
systematically runs second, and medians are compared so machine drift
cancels instead of landing in one arm.

The measured numbers persist to ``benchmarks/BENCH_freshness.json``.
"""

import gc
import json
import pathlib
import statistics
import time

from repro.workloads.tpcc.config import EncryptionMode, TpccConfig
from repro.workloads.tpcc.driver import build_system

OUT_PATH = pathlib.Path(__file__).parent / "BENCH_freshness.json"

PAIRS = 200         # (anchor-on, anchor-off) runs of identical work
OVERHEAD_LIMIT = 0.05
SEED_BASE = 20_000  # per-pair RNG seed: pair i reseeds both arms with it


def _config() -> TpccConfig:
    return TpccConfig(
        warehouses=1,
        districts_per_warehouse=1,
        customers_per_district=10,
        items=20,
        mode=EncryptionMode.DET,
    )


def test_anchor_overhead_under_5_percent():
    anchored = build_system(_config(), freshness_anchor=True)
    plain = build_system(_config(), freshness_anchor=False)
    arms = {"on": anchored.transactions, "off": plain.transactions}
    assert anchored.server.engine.freshness is not None
    assert plain.server.engine.freshness is None

    for txns in arms.values():  # warm plans and caches on both systems
        for i in range(10):
            txns.rng.seed(i)
            txns.payment()

    on_times: list[float] = []
    off_times: list[float] = []
    # Micro-benchmark hygiene: collect once, then pause the cyclic GC so
    # collection pauses don't land on whichever arm happens to run.
    gc.collect()
    gc.disable()
    try:
        for i in range(PAIRS):
            order = ("on", "off") if i % 2 else ("off", "on")
            for arm in order:
                txns = arms[arm]
                txns.rng.seed(SEED_BASE + i)
                started = time.perf_counter()
                txns.payment()
                elapsed = time.perf_counter() - started
                (on_times if arm == "on" else off_times).append(elapsed)
    finally:
        gc.enable()

    # Drive the page-side hooks (advance + confirm per write-back) once,
    # outside the timed region: a checkpoint flushes every dirty page.
    anchored.server.engine.checkpoint()
    status = anchored.server.engine.freshness.status()
    assert status["attached"]
    assert status["pages"] > 0, "checkpoint must anchor the flushed pages"
    advances_epoch = status["epoch"]
    assert advances_epoch > PAIRS, "anchored runs must actually advance"

    median_on = statistics.median(on_times)
    median_off = statistics.median(off_times)
    overhead = (median_on - median_off) / median_off

    summary = {
        "pairs": PAIRS,
        "median_on_s": round(median_on, 7),
        "median_off_s": round(median_off, 7),
        "overhead_frac": round(overhead, 6),
        "overhead_limit": OVERHEAD_LIMIT,
        "anchor_epoch_after": advances_epoch,
        "anchored_pages": status["pages"],
    }
    OUT_PATH.write_text(json.dumps(summary, indent=2, sort_keys=True))
    print("\n  freshness: " + json.dumps(summary, sort_keys=True))

    assert overhead < OVERHEAD_LIMIT, (
        f"freshness anchor overhead {overhead:.1%} exceeds "
        f"{OVERHEAD_LIMIT:.0%} (median on={median_on * 1e3:.3f}ms "
        f"off={median_off * 1e3:.3f}ms)"
    )
