"""Outside-in layer tracing for the benchmark's traced run.

The tracer wraps public functions of the ``stagecast`` modules at run time:
every module of the package that holds a reference to a wrapped function
gets the wrapper bound under the same name, so calls made through
``from .x import f`` bindings are timed too, and no file of the package
changes.  Names that a module no longer defines are reported as absent.

Each wrapped call pushes a frame; its self time is its duration minus the
time covered by wrapped calls made inside it.  Calls of ``SPAN`` functions
are kept in memory as spans ``(name, start, end, parent, op, self)``;
calls of ``AGGREGATE`` functions (leaves called 10^4 times or more per
run) only add to a per-name count and total, which keeps tracing cheap.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from pathlib import Path

PACKAGE = "stagecast"
NOOP_CALLS = 20_000  # calls per timing of wrapper_cost

SPAN = "span"
AGGREGATE = "aggregate"

# fields reported for a traced function
CALLS = "calls"
SECONDS = "s"
SELF = "self_s"

# (module, function, kind, reported fields).  Modules are the package's layers.
TRACED = (
    ("solver", "solve", SPAN, (CALLS, SECONDS, SELF)),
    ("geometry", "interpolate_boundary", AGGREGATE, (CALLS, SECONDS)),
    ("geometry", "friction_slope", AGGREGATE, (CALLS, SECONDS)),
    ("autodiff", "grad_weights", SPAN, (CALLS, SECONDS)),
    ("autodiff", "matmul", AGGREGATE, (CALLS, SECONDS)),
    ("surrogate", "encode", AGGREGATE, (CALLS, SECONDS)),
    ("surrogate", "weight_views", AGGREGATE, (CALLS, SECONDS)),
    ("surrogate", "physics_duals", SPAN, (CALLS, SECONDS)),
    ("surrogate", "predict_batch", SPAN, (CALLS, SECONDS)),
    ("surrogate", "predict", AGGREGATE, (CALLS, SECONDS)),
    ("training", "train", SPAN, (SECONDS, SELF)),
    ("training", "data_loss", SPAN, (CALLS, SECONDS)),
    ("training", "physics_loss", SPAN, (CALLS, SECONDS)),
    ("training", "adam_step", SPAN, (CALLS, SECONDS)),
    ("evaluation", "evaluate", SPAN, (SECONDS, SELF)),
    ("fileio", "read_scenario", SPAN, (SECONDS,)),
    ("fileio", "write_field", SPAN, (SECONDS,)),
    ("fileio", "read_field", SPAN, (SECONDS,)),
    ("fileio", "save_checkpoint", SPAN, (SECONDS,)),
    ("fileio", "load_checkpoint", SPAN, (SECONDS,)),
    ("fileio", "write_history", SPAN, (SECONDS,)),
    ("fileio", "write_report", SPAN, (SECONDS,)),
    # wrapped only to count fileio.bytes_written
    ("fileio", "atomic_write_text", AGGREGATE, ()),
    ("fileio", "atomic_write_bytes", AGGREGATE, ()),
    ("cli", "main", SPAN, (CALLS, SELF)),
)


def _file_size(args):
    return Path(args[0]).stat().st_size


def _tape_length(args):
    return len(args[0].tape)


# Values read from a call's arguments after it returns: (sample name, reader).
PROBES = {
    "surrogate.predict_batch": ("surrogate.predict_batch.points", lambda args: len(args[1])),
    "autodiff.grad_weights": ("autodiff.tape_nodes", _tape_length),
    "fileio.atomic_write_text": ("fileio.bytes_written", _file_size),
    "fileio.atomic_write_bytes": ("fileio.bytes_written", _file_size),
}


class _Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Installs timing wrappers into the ``stagecast`` modules; see module doc."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.samples: dict[str, list[int]] = {}
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self.op = 0
        self._stack: list[list] = []  # [child_seconds, span_index]
        self._bound: list[tuple] = []  # (module, name, original)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        originals = {}
        for module_name, func_name, kind, _ in TRACED:
            key = f"{module_name}.{func_name}"
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.absent.append(key)
                continue
            func = getattr(module, func_name, None)
            if not callable(func):
                self.absent.append(key)
                continue
            self.stats[key] = _Stat()
            originals[id(func)] = (func, self._wrap(key, func, kind))
        # rebind in every module of the package that refers to a wrapped function
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._bound.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bound):
            setattr(module, attr, original)
        self._bound.clear()

    def _wrap(self, key, func, kind):
        stat = self.stats[key]
        probe = PROBES.get(key)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        keep_span = kind == SPAN

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            frame = [0.0, -1]
            if keep_span:
                frame[1] = len(spans)
                spans.append(None)  # reserve the slot so children can name it
            stack.append(frame)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                stat.calls += 1
                stat.total += duration
                stat.self_time += own
                if keep_span:
                    spans[frame[1]] = (key, start, end, parent, self.op, own)
                if probe is not None:
                    self._probe(probe, args)

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", key)
        traced.__doc__ = getattr(func, "__doc__", None)
        return traced

    def _probe(self, probe, args):
        name, reader = probe
        try:
            value = int(reader(args))
        except (OSError, AttributeError, TypeError):
            return
        self.samples.setdefault(name, []).append(value)

    # -- results --------------------------------------------------------------

    def calls(self, key: str) -> int:
        stat = self.stats.get(key)
        return stat.calls if stat else 0

    def seconds(self, key: str) -> float:
        stat = self.stats.get(key)
        return stat.total if stat else 0.0

    def self_seconds(self, key: str) -> float:
        stat = self.stats.get(key)
        return stat.self_time if stat else 0.0

    def sample_median(self, key: str) -> float:
        values = self.samples.get(key)
        return float(statistics.median(values)) if values else 0.0

    def sample_sum(self, key: str) -> int:
        return sum(self.samples.get(key, ()))

    def wrapped_calls(self) -> dict[str, int]:
        return {key: stat.calls for key, stat in self.stats.items()}


def wrapper_cost() -> dict[str, float]:
    """Seconds a wrapper adds to one call, per kind, timed on a no-op."""

    def noop(*args):
        return None

    costs = {}
    for kind in (SPAN, AGGREGATE):
        tracer = Tracer()
        tracer.stats["noop"] = _Stat()
        wrapped = tracer._wrap("noop", noop, kind)
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            for _ in range(NOOP_CALLS):
                noop(1)
            bare = time.perf_counter() - start
            start = time.perf_counter()
            for _ in range(NOOP_CALLS):
                wrapped(1)
            best = min(best, time.perf_counter() - start - bare)
            tracer.spans.clear()
        costs[kind] = max(best, 0.0) / NOOP_CALLS
    return costs
