"""stagecast benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload flood-solve --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
wraps the package's layer functions (see ``tracer.py``) and reports the
per-layer metrics instead.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the run record (machine, thread environment, digests, workload figures).

End-to-end metrics, all reported on every workload:

- ``setup_s``: the shortest of five fresh interpreters starting Python
  and importing the package (contention only adds time), plus the median
  of the workload's set-up repetitions (input generation, the scenario
  file, the reference solve).
- ``work_s``: one pass of the job a user waits for -- a ``solve()``
  (median of at least two); simulate + train + eval, repeated parts as
  medians; train + 20 dense ``predict_batch`` calls + 10,000 single
  predicts.
- ``peak_rss_mb``: peak resident memory of the process.  The objects that
  exist when set-up ends are frozen out of the cyclic collector
  (``gc.freeze``), so the harness's own heap does not decide when the
  full collections that free training-tape cycles run.

``surrogate_speedup`` (solver seconds over surrogate seconds, read from
eval's report) is recorded but not gated: a faster solver lowers it, so
gating it would reject solver speed-ups as regressions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("flood-solve", "pinn-pipeline", "surrogate-query")
IMPORT_PROBES = 5  # fresh interpreters timed for the import part of setup_s


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 rebuilds the acceptance-gate scenarios")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="time budget of the timed part; every phase runs at least once")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke runs the same code on small inputs")
    return parser.parse_args(argv)


def _import_package():
    """Import stagecast from this checkout's src/, never from elsewhere."""
    package_dir = SRC / "stagecast"
    if not (package_dir / "__init__.py").is_file():
        raise SystemExit(f"error: no stagecast sources at {package_dir}")
    sys.path.insert(0, str(SRC))
    import stagecast

    if Path(stagecast.__file__).resolve().parent != package_dir.resolve():
        raise SystemExit(f"error: imported stagecast from {stagecast.__file__}, not {package_dir}")
    sys.path.insert(0, str(Path(__file__).resolve().parent))


def _import_probes() -> list[float]:
    """Wall time of fresh interpreters importing the package, one at a time."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import stagecast.cli"
    times = []
    for _ in range(IMPORT_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return times


def _blas():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        return {"name": None, "version": None}


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def _record(args, bench, result, import_probes):
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "threads_env": {k: os.environ.get(k) for k in
                        ("STAGECAST_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "src_lines": _src_lines(),
        "import_probes_s": import_probes,
        "setup_reps_s": bench.setup_times,
        "timed_s": result.timed_s if result else None,
        "failure_rate": bench.failed / max(bench.attempted, 1),
        "errors": bench.errors,
        "figures": {k: {"value": v, "unit": u} for k, (v, u) in result.figures.items()} if result else {},
        "digests": result.digests if result else {},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    _import_package()
    import layers
    import workloads
    from tracer import Tracer

    import_probes = _import_probes()
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    bench = workloads.Bench(args.seed, args.seconds, workloads.SIZES[args.size], workdir, tracer)
    result = None
    try:
        result = workloads.WORKLOADS[args.workload](bench)
    except workloads.Abort:
        traceback.print_exc(file=sys.stderr)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is using it

    record = _record(args, bench, result, import_probes)
    metrics = {}
    if result is not None:
        metrics = {
            "setup_s": (min(import_probes) + statistics.median(bench.setup_times), "s"),
            "work_s": (result.work_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        # end-to-end values of a traced run include the tracing overhead
        record["end_to_end"] = {name: value for name, (value, _) in metrics.items()}
    if result is not None and tracer is not None:
        metrics = layers.per_layer_metrics(tracer, result.timed_s)
        record["absent"] = tracer.absent
        record["spans"] = len(tracer.spans)
        record["calls_per_solve"] = layers.calls_per_solve(tracer)
    for name, (value, unit) in sorted(metrics.items()):
        print(f"# {name:42s} {value:14.6g} {unit}")
    for name, item in record["figures"].items():
        print(f"# {name:42s} {item['value']:14.6g} {item['unit']}  (figure)")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": result is not None and bench.failed == 0,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed if bench.attempted else 1,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if result is not None and bench.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
