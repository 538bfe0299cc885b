"""Run all three benchmark workloads and check what they report.

    python3 perfbench/smoke.py                 # reduced size, about a minute
    python3 perfbench/smoke.py --size full     # the benchmark's own sizes, a few minutes

Runs each workload once untraced and twice traced, each in its own
process, and checks that:

- every run is correct and has no failed operation;
- the untraced run emits every end-to-end metric of BENCHMARK.json, and the
  traced runs every per-layer metric, each with a unit;
- per-layer call counts (and the tape length) repeat exactly between the
  two traced runs.

If every check passes it prints one table: every end-to-end metric and
per-phase figure of each workload with its unit, and the tracing overhead --
the traced run's ``work_s`` minus the untraced run's, beside the tracer's
own estimate.  Otherwise it lists the failures and exits 1.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("flood-solve", "pinn-pipeline", "surrogate-query")
FIGURES = ("solve_s", "train_s", "eval_s", "query_points_per_s", "predict_p50_us",
           "predict_p99_us", "predict_samples", "stage_mrae", "surrogate_speedup")


def _run(workload: str, trace: int, size: str, seconds: str):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "0",
         "--seconds", seconds, "--trace", str(trace), "--size", size],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def _is_count(name: str) -> bool:
    return name.endswith((".calls", ".points")) or name == "autodiff.tape_nodes_per_iter"


def _check(workload, runs, expected, problems):
    for (trace, label), (record, result) in runs.items():
        if not (result["correct"] and result["failed"] == 0):
            problems.append(f"{workload} {label}: not correct: {record['errors']}")
        metrics = result["metrics"]
        if set(metrics) != set(expected[trace]):
            problems.append(f"{workload} {label}: metric names differ: "
                            f"{sorted(set(metrics) ^ set(expected[trace]))}")
        for name, item in metrics.items():
            if not isinstance(item.get("value"), (int, float)) or item.get("unit") != expected[trace].get(name):
                problems.append(f"{workload} {label}: {name} has no number or the wrong unit: {item}")
    first, second = (runs[key][1]["metrics"] for key in ((1, "traced"), (1, "traced again")))
    for name in sorted(n for n in first if _is_count(n)):
        if first[name]["value"] != second.get(name, {}).get("value"):
            problems.append(f"{workload}: {name} differs between traced runs: "
                            f"{first[name]['value']} vs {second.get(name, {}).get('value')}")


def _table(results, spec):
    rows = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    print(f"{'metric':28s}" + "".join(f"{w:>18s}" for w in WORKLOADS) + "  unit")
    for name, unit in rows:
        print(f"{name:28s}" + "".join(
            f"{results[w][0][1]['metrics'][name]['value']:18.6g}" for w in WORKLOADS) + f"  {unit}")
    for name in FIGURES + ("failure_rate",):
        cells, unit = [], ""
        for w in WORKLOADS:
            record = results[w][0][0]
            item = record["figures"].get(name)
            if name == "failure_rate":
                item = {"value": record["failure_rate"], "unit": "ratio"}
            cells.append(f"{item['value']:18.6g}" if item else f"{'-':>18s}")
            unit = item["unit"] if item else unit
        print(f"{name + ' (figure)':28s}" + "".join(cells) + f"  {unit}")
    for w in WORKLOADS:
        untraced = results[w][0][0]["end_to_end"]["work_s"]
        traced = results[w][1][0]["end_to_end"]["work_s"]
        estimate = results[w][1][1]["metrics"]["trace.overhead_s"]["value"]
        print(f"tracing overhead {w:16s} work_s {untraced:.3f} s untraced, {traced:.3f} s traced "
              f"({traced - untraced:+.3f} s; tracer estimate {estimate:.3f} s)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--size", choices=("smoke", "full"), default="smoke")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = "1" if args.size == "smoke" else str(spec["run_seconds"])
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems, results = [], {}
    for workload in WORKLOADS:
        runs = {key: _run(workload, key[0], args.size, seconds)
                for key in ((0, "untraced"), (1, "traced"), (1, "traced again"))}
        _check(workload, runs, expected, problems)
        results[workload] = (runs[(0, "untraced")], runs[(1, "traced")])
    if problems:
        for problem in problems:
            print("FAIL", problem)
        print(f"{len(problems)} problem(s)")
        return 1
    _table(results, spec)
    print(f"{args.size} run passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
