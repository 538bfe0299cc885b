"""Per-layer metrics of a traced run, read from a :class:`tracer.Tracer`.

Every metric is reported on every workload; a layer the workload does not
use reads 0, and a function the package no longer defines reads 0 and is
listed under ``absent`` in the run record.
"""

from __future__ import annotations

from tracer import CALLS, SECONDS, SELF, TRACED, wrapper_cost

# figures not tied to one function
COUNTERS = [
    ("autodiff.tape_nodes_per_iter", "count"),
    ("surrogate.predict_batch.points", "count"),
    ("fileio.bytes_written", "count"),
]
OVERHEAD = [("trace.overhead_s", "s"), ("trace.overhead_share", "ratio")]


def metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = [
        (f"{module}.{func}.{field}", "count" if field == CALLS else "s")
        for module, func, _, fields in TRACED
        for field in fields
    ]
    return out + COUNTERS + OVERHEAD


def per_layer_metrics(tracer, timed_s: float) -> dict:
    values = {}
    readers = {CALLS: tracer.calls, SECONDS: tracer.seconds, SELF: tracer.self_seconds}
    for module, func, _, fields in TRACED:
        for field in fields:
            values[f"{module}.{func}.{field}"] = readers[field](f"{module}.{func}")
    values["autodiff.tape_nodes_per_iter"] = tracer.sample_median("autodiff.tape_nodes")
    values["surrogate.predict_batch.points"] = tracer.sample_sum("surrogate.predict_batch.points")
    values["fileio.bytes_written"] = tracer.sample_sum("fileio.bytes_written")

    # tracing overhead: wrapped calls times the measured cost of one wrapper
    cost = wrapper_cost()
    kinds = {f"{m}.{f}": kind for m, f, kind, _ in TRACED}
    overhead = sum(calls * cost[kinds[key]] for key, calls in tracer.wrapped_calls().items())
    values["trace.overhead_s"] = overhead
    values["trace.overhead_share"] = overhead / timed_s if timed_s > 0 else 0.0
    units = dict(metric_names())
    return {name: (values[name], units[name]) for name, _ in metric_names()}


def calls_per_solve(tracer) -> dict:
    solves = tracer.calls("solver.solve")
    if not solves:
        return {}
    return {
        key: tracer.calls(key) / solves
        for key in ("geometry.interpolate_boundary", "geometry.friction_slope")
    }

