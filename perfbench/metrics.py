"""End-to-end and per-layer metric definitions.

End-to-end metrics come from an untraced run: op latencies measured by
the benchmark's own loop and driver round-trip latencies measured at the
connection object. Per-layer metrics come from the traced run's span
aggregates (see ``tracer.py``); ``*_per_op`` divides by the workload's
ops, ``*_per_stmt`` by driver round-trips.
"""

from __future__ import annotations

import statistics

from tracer import CONTAINER_SPANS, ROUNDTRIP_SPANS, layer_of


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); q=50 is the median."""
    if q == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ratio(num: float, den: float) -> float:
    """num/den, or 0.0 when the layer did no work (den == 0)."""
    return num / den if den else 0.0


class SpanTotals:
    """Sums over the tracer's aggregate, filtered by name, parent, side."""

    CALLS, UNITS, TOTAL, SELF, ERRORS = range(5)

    def __init__(self, aggregate: dict):
        self._agg = aggregate

    def _sum(self, field, names, parents=None, enclave=None, skip_parents=None):
        if isinstance(names, str):
            names = (names,)
        total = 0
        for (name, parent, in_enclave), entry in self._agg.items():
            if name not in names:
                continue
            if parents is not None and parent not in parents:
                continue
            if skip_parents is not None and parent is not None and skip_parents(parent):
                continue
            if enclave is not None and in_enclave != enclave:
                continue
            total += entry[field]
        return total

    def calls(self, names, **kw):
        return self._sum(self.CALLS, names, **kw)

    def units(self, names, **kw):
        return self._sum(self.UNITS, names, **kw)

    def total_us(self, names, **kw):
        return self._sum(self.TOTAL, names, **kw) * 1e6

    def self_us(self, names, **kw):
        return self._sum(self.SELF, names, **kw) * 1e6

    def errors(self, names, **kw):
        return self._sum(self.ERRORS, names, **kw)

    def names(self, layer: str) -> tuple[str, ...]:
        return tuple({name for name, __, __ in self._agg if layer_of(name) == layer})


def per_layer(aggregate: dict, ops: int, dispatch_wait_s: float, evictions: int,
              spec_rollbacks_per_op: float, overhead_ratio: float) -> dict[str, float]:
    """Every per-layer metric from one traced window of ``ops`` ops."""
    t = SpanTotals(aggregate)
    stmts = t.calls(tuple(ROUNDTRIP_SPANS))
    probes = t.calls("index.search_eq") + t.units("index.range_scan")
    lookups = t.calls("plan.lookup")
    cache_gets = t.calls("driver.cek_cache_get")
    pool_gets = t.calls("bufferpool.get")
    evals = t.calls("enclave.eval")
    gateway_calls = t.calls("gateway.eval")
    obs_names = t.names("obs")
    enclave_names = t.names("enclave")
    return {
        "driver.self_us_per_stmt": t.self_us(t.names("driver")) / stmts,
        "driver.describe_us_per_stmt": t.total_us("driver.describe") / stmts,
        "driver.describe_calls_per_stmt": t.calls("driver.describe") / stmts,
        "driver.encrypt_us_per_stmt": t.total_us("crypto.encrypt", enclave=False) / stmts,
        "driver.decrypt_us_per_stmt": t.total_us("crypto.decrypt", enclave=False) / stmts,
        "driver.cells_decrypted_per_op": t.calls("crypto.decrypt", enclave=False) / ops,
        "driver.cek_cache_hit_ratio": _ratio(t.units("driver.cek_cache_get"), cache_gets),
        "dispatch.wait_us_per_stmt": dispatch_wait_s * 1e6 / stmts,
        "dispatch.overhead_us_per_stmt": t.self_us("dispatch.submit") / stmts,
        "plan.cache_hit_ratio": _ratio(
            lookups - t.calls("plan.parse", parents={"plan.lookup"}), lookups),
        "plan.parse_us_per_stmt": t.total_us("plan.parse") / stmts,
        "plan.deduce_us_per_stmt": t.total_us("plan.deduce") / stmts,
        "expr.compiles_per_stmt": t.calls(
            "expr.compile", skip_parents=lambda p: p == "expr.compile") / stmts,
        "expr.compile_us_per_stmt": t.self_us("expr.compile") / stmts,
        "expr.vm_us_per_op": t.self_us("expr.vm") / ops,
        "exec.self_us_per_stmt": t.self_us(t.names("exec")) / stmts,
        "exec.rows_read_per_row_returned": _ratio(
            t.calls("serde.deserialize", parents={"exec.execute"}), t.units("exec.execute")),
        "index.probes_per_op": probes / ops,
        "index.compares_per_probe": _ratio(
            t.units("index.compare", parents={"index.search_eq", "index.range_scan"}), probes),
        "index.us_per_op": t.self_us(t.names("index")) / ops,
        "index.maintenance_us_per_op": t.total_us(("index.insert", "index.delete")) / ops,
        "serde.rows_serialized_per_op": t.calls("serde.serialize") / ops,
        "serde.rows_deserialized_per_op": t.calls("serde.deserialize") / ops,
        "serde.us_per_op": t.self_us(t.names("serde")) / ops,
        "heap.pages_visited_per_insert": _ratio(
            t.calls("bufferpool.get", parents={"heap.insert"}), t.calls("heap.insert")),
        "bufferpool.hit_ratio": _ratio(
            pool_gets - t.calls("disk.read", parents={"bufferpool.get"}), pool_gets),
        "bufferpool.evictions_per_op": evictions / ops,
        "wal.records_per_op": t.calls("wal.append") / ops,
        "wal.bytes_per_op": t.units("wal.append") / ops,
        "wal.flushes_per_op": t.calls("wal.flush") / ops,
        "wal.flush_us_per_op": t.total_us("wal.flush") / ops,
        "commit.us_per_op": t.total_us("engine.commit") / ops,
        "engine.dml_us_per_op": t.total_us("engine.dml") / ops,
        "locks.acquires_per_op": t.calls("locks.acquire") / ops,
        "locks.wait_us_per_op": t.total_us("locks.acquire") / ops,
        "gateway.calls_per_op": gateway_calls / ops,
        "gateway.wait_us_per_call": _ratio(t.self_us("gateway.eval"), gateway_calls),
        "enclave.eval_calls_per_op": evals / ops,
        "enclave.rows_per_eval_call": _ratio(t.units("enclave.eval"), evals),
        "enclave.compares_per_op": t.units("enclave.compare") / ops,
        "enclave.us_per_op": t.total_us(
            enclave_names, skip_parents=lambda p: layer_of(p) == "enclave") / ops,
        "crypto.enclave_decrypts_per_op": t.calls("crypto.decrypt", enclave=True) / ops,
        "crypto.decrypt_us_per_op": t.self_us("crypto.decrypt") / ops,
        "crypto.encrypt_us_per_op": t.self_us("crypto.encrypt") / ops,
        "obs.events_per_stmt": t.calls(
            obs_names, skip_parents=lambda p: layer_of(p) == "obs") / stmts,
        "obs.us_per_stmt": t.self_us(obs_names) / stmts,
        "tpcc.spec_rollbacks_per_op": spec_rollbacks_per_op,
        "unattributed_us_per_stmt": t.self_us(tuple(CONTAINER_SPANS)) / stmts,
        "tracing_overhead_ratio": overhead_ratio,
    }


def layer_self_us(aggregate: dict) -> dict[str, float]:
    """Self time per layer (µs), containers reported as "unattributed"."""
    out: dict[str, float] = {}
    for (name, __, __), entry in aggregate.items():
        layer = "unattributed" if name in CONTAINER_SPANS else layer_of(name)
        out[layer] = out.get(layer, 0.0) + entry[SpanTotals.SELF] * 1e6
    return out
