"""The benchmark harness still runs on this package: each workload, at its
smoke size, finishes correct with no failed operation.

This guards what ``perfbench/`` reads of the package (``FlowField``'s
fields and its equality, which surrogate-query uses to compare its set-up
solves, ``TrainConfig``'s options, the CLI's flags, ``HistoryRow``'s
columns, and ``report.json``'s ``timing.surrogate_seconds`` and
``timing.speedup``) without a benchmark run's full sizes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["flood-solve", "pinn-pipeline", "surrogate-query"])
def test_workload_smoke_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--size", "smoke", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0, proc.stdout[-2000:]
