"""The three benchmark workloads.

Each workload builds its inputs from the workload seed during set-up,
times its operations, checks their outputs, and returns a
:class:`Result`.  Operations (a solve, a CLI command, a training run, a
predict call) are counted as attempted; one that raises or fails its
correctness check is counted as failed.

The default seed 0 rebuilds the acceptance-gate scenarios: gate 2's
8-station flood (scenario seed 11), gates 5/7/8's 20-station flood
(seed 42), and the 12-station flood of the library example (seed 3).
Seed ``s`` uses scenario seed ``gate_seed + s``; the seed jitters
baseflow, pulse centre and pulse width by up to 10 %, so the amount of
work changes by a few per cent between seeds and the checks hold for all.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import statistics
import time
from pathlib import Path

import numpy as np

import stagecast.cli
import stagecast.evaluation as evaluation
import stagecast.solver as solver
import stagecast.surrogate as surrogate
import stagecast.training as training
from stagecast.fileio import write_scenario
from stagecast.geometry import make_flood_wave_scenario
from stagecast.solver import SolverConfig, check_mass_balance

clock = time.perf_counter

# gate 8's training flags, shared by pinn-pipeline (lambda 0.1) and
# surrogate-query (lambda 0)
NET = dict(n_blocks=2, width=64, m=32, sigma=4.0, activation="tanh", seed=0)
MRAE_LIMIT = 0.05  # gate 5


@dataclasses.dataclass(frozen=True)
class Size:
    """Problem sizes; FULL is the benchmark, SMOKE a quick run of the same code."""

    setup_reps: int
    flood_hours: float
    flood_cells: int
    min_solves: int
    pinn_hours: float
    pinn_cells: int
    pinn_iterations: int
    min_evals: int
    query_hours: float
    query_cells: int
    query_iterations: int
    grid: tuple[int, int]
    batches: int
    min_predicts: int
    checked_points: int
    mrae_limit: float | None


FULL = Size(
    setup_reps=5,
    flood_hours=30.0,
    flood_cells=400,
    min_solves=2,
    pinn_hours=24.0,
    pinn_cells=400,
    pinn_iterations=1000,
    min_evals=3,
    query_hours=24.0,
    query_cells=100,
    query_iterations=2000,
    grid=(100, 200),
    batches=20,
    min_predicts=10_000,
    checked_points=256,
    mrae_limit=MRAE_LIMIT,
)
# a few iterations cannot fit the field, so the smoke run skips the accuracy gate
SMOKE = Size(
    setup_reps=2,
    flood_hours=3.0,
    flood_cells=100,
    min_solves=2,
    pinn_hours=6.0,
    pinn_cells=100,
    pinn_iterations=30,
    min_evals=2,
    query_hours=6.0,
    query_cells=60,
    query_iterations=30,
    grid=(20, 50),
    batches=2,
    min_predicts=300,
    checked_points=200,
    mrae_limit=None,
)
SIZES = {"full": FULL, "smoke": SMOKE}


class Abort(Exception):
    """An operation failed and the workload cannot go on."""


@dataclasses.dataclass
class Result:
    work_s: float  # the end-to-end work_s
    figures: dict  # workload-specific and informational figures: name -> (value, unit)
    digests: dict
    timed_s: float


class Bench:
    """Seed, time budget, operation counts and failures of one workload run."""

    def __init__(self, seed: int, seconds: float, size: Size, workdir: Path, tracer=None):
        self.seed = seed
        self.seconds = seconds
        self.size = size
        self.workdir = workdir
        self.tracer = tracer
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.errors: list[str] = []
        self.setup_times: list[float] = []
        self._timed_from = None

    def setup(self, make):
        """Build the inputs ``size.setup_reps`` times; return the last build.

        What is alive afterwards is frozen out of the cyclic collector, and
        the collector's counters are then reset by a collection of the
        (now empty) generations.  So the size of the harness's heap does not
        set when full collections run in the timed part, and with them the
        peak memory of training, whose tape nodes form reference cycles.
        """
        for _ in range(self.size.setup_reps):
            start = clock()
            out = make()
            self.setup_times.append(clock() - start)
        gc.collect()
        gc.freeze()
        gc.collect()
        self._timed_from = clock()
        return out

    def elapsed(self) -> float:
        return clock() - self._timed_from

    @property
    def fixed_work(self) -> bool:
        """A traced run does the minimum counts only, so its call counts repeat."""
        return self.tracer is not None

    def has_time_for(self, next_seconds: float) -> bool:
        return not self.fixed_work and self.elapsed() + next_seconds <= self.seconds

    def op(self, what: str, fn, *args, **kwargs):
        """Run one operation; returns (result, seconds).  Raises Abort on error."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        start = clock()
        try:
            result = fn(*args, **kwargs)
        except Exception as err:  # any error is a failed operation, reported below
            self.fail(f"{what}: {type(err).__name__}: {err}")
            raise Abort(what) from err
        return result, clock() - start

    def fail(self, what: str) -> None:
        """Mark the latest operation failed."""
        self.failed_ops.add(self.attempted)
        if len(self.errors) < 20:
            self.errors.append(what)

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.fail(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failed_ops)


def _field_ok(field) -> bool:
    return bool(np.all(np.isfinite(field.h)) and np.all(np.isfinite(field.u)) and np.all(field.h > 0.0))


def _array_digest(*arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return digest.hexdigest()


def _file_digest(path: Path, skip_prefix: str | None = None) -> str:
    data = path.read_bytes()
    if skip_prefix is not None:
        # the field file records the solve's wall time; hash everything else
        data = b"\n".join(
            line for line in data.split(b"\n") if not line.startswith(skip_prefix.encode())
        )
    return hashlib.sha256(data).hexdigest()


# --------------------------------------------------------------------------
# flood-solve


def flood_solve(bench: Bench) -> Result:
    """Library solve() of gate 2's scenario at 400 cells, twice or more; both give the same bits."""
    size = bench.size
    scenario = bench.setup(
        lambda: make_flood_wave_scenario(8, 3.0, seed=11 + bench.seed, t_total_hours=size.flood_hours)
    )
    config = SolverConfig(n_cells=size.flood_cells)
    times, digests = [], []
    while True:
        field, seconds = bench.op("solve", solver.solve, scenario, config)
        times.append(seconds)
        balance = check_mass_balance(field, scenario)
        digests.append(_array_digest(field.h, field.u))
        bench.check(_field_ok(field), "solve: non-finite or non-positive depth")
        bench.check(balance < 0.01, f"solve: mass-balance error {balance:.3e} >= 1 %")
        bench.check(digests[-1] == digests[0], "solve: field differs from the first solve's")
        if len(times) >= size.min_solves and not bench.has_time_for(seconds):
            break
    solve_s = statistics.median(times)
    return Result(
        work_s=solve_s,
        figures={
            "solve_s": (solve_s, "s"),
            "solves": (len(times), "count"),
            "mass_balance_error": (balance, "ratio"),
        },
        digests={"field_sha256": digests[0]},
        timed_s=bench.elapsed(),
    )


# --------------------------------------------------------------------------
# pinn-pipeline


def _cli(bench: Bench, what: str, argv: list[str]) -> float:
    """Run one CLI command in-process; a non-zero exit aborts the workload."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code, seconds = bench.op(what, lambda: stagecast.cli.main(argv))
    if not bench.check(code == 0, f"{what}: exit code {code}: {out.getvalue()[-300:]!r}"):
        raise Abort(what)
    return seconds


def _report_without_timing(report_dir: Path):
    report = json.loads((report_dir / "report.json").read_text())
    timing = report.pop("timing")
    sides = tuple(
        (report_dir / name).read_bytes() for name in ("per_station.csv", "error_histogram.csv")
    )
    return json.dumps(report, sort_keys=True), sides, timing


def pinn_pipeline(bench: Bench) -> Result:
    """simulate -> train (gate 8 flags) -> eval, run in-process through the CLI."""
    size = bench.size
    work = bench.workdir
    scenario_path = work / "scenario.txt"
    field_path = work / "field.txt"
    model_dir = work / "model"
    checkpoint = model_dir / "checkpoint.bin"

    def make():
        scenario = make_flood_wave_scenario(20, 3.0, seed=42 + bench.seed, t_total_hours=size.pinn_hours)
        write_scenario(scenario, scenario_path)
        return scenario

    bench.setup(make)
    # simulate twice: the median of two steadies solve time, and the field must repeat
    simulate_times, field_digests = [], []
    for _ in range(2):
        simulate_times.append(_cli(bench, "simulate", [
            "simulate", "--scenario", str(scenario_path), "--field-out", str(field_path),
            "--n-cells", str(size.pinn_cells),
        ]))
        field_digests.append(_file_digest(field_path, skip_prefix="wall_clock_seconds"))
    bench.check(field_digests[0] == field_digests[1], "simulate: field differs between runs")
    simulate_s = statistics.median(simulate_times)
    train_s = _cli(bench, "train", [
        "train", "--scenario", str(scenario_path), "--field", str(field_path),
        "--out-dir", str(model_dir), "--iterations", str(size.pinn_iterations),
        "--batch-size", "256", "--collocation", "256", "--width", "64", "--blocks", "2",
        "--fourier-size", "32", "--activation", "tanh", "--sigma", "4.0", "--lambda", "0.1",
        "--seed", "0", "--record-every", "100",
    ])
    eval_times, timings = [], []
    first = None
    while True:
        report_dir = work / f"report{len(eval_times)}"
        seconds = _cli(bench, "eval", [
            "eval", "--checkpoint", str(checkpoint), "--field", str(field_path),
            "--scenario", str(scenario_path), "--out-dir", str(report_dir),
        ])
        eval_times.append(seconds)
        body, sides, timing = _report_without_timing(report_dir)
        timings.append(timing)
        if first is None:
            first = (body, sides)
            report = json.loads(body)
            stage_mrae = report["overall_stage_mrae"]
            n_points = report["n_stations"] * report["n_times"]
            if size.mrae_limit is not None:
                bench.check(stage_mrae <= size.mrae_limit,
                            f"eval: stage MRAE {stage_mrae:.4f} > {size.mrae_limit}")
        else:
            bench.check((body, sides) == first, "eval: report differs from the first outside 'timing'")
        if len(eval_times) >= size.min_evals and not bench.has_time_for(seconds):
            break
    eval_s = statistics.median(eval_times)
    return Result(
        work_s=simulate_s + train_s + eval_s,
        figures={
            "solve_s": (simulate_s, "s"),
            "train_s": (train_s, "s"),
            "eval_s": (eval_s, "s"),
            "evals": (len(eval_times), "count"),
            "stage_mrae": (stage_mrae, "ratio"),
            "eval_query_points_per_s": (
                n_points / statistics.median(t["surrogate_seconds"] for t in timings), "1/s"),
            "surrogate_speedup": (statistics.median(t["speedup"] for t in timings), "x"),
            "train_ms_per_iter": (1e3 * train_s / size.pinn_iterations, "ms"),
        },
        digests={
            "field_sha256": field_digests[0],
            "checkpoint_sha256": _file_digest(checkpoint),
        },
        timed_s=bench.elapsed(),
    )


# --------------------------------------------------------------------------
# surrogate-query


def _query_grid(box, nx: int, nt: int) -> np.ndarray:
    xx, tt = np.meshgrid(
        np.linspace(box.x_min_miles, box.x_max_miles, nx),
        np.linspace(box.t_min_hours, box.t_max_hours, nt),
    )
    return np.column_stack([xx.ravel(), tt.ravel()])


def surrogate_query(bench: Bench) -> Result:
    """Supervised (lambda 0) training, then predict_batch and single predict calls."""
    size = bench.size
    ref_solves = []

    def make():
        scenario = make_flood_wave_scenario(
            12, 3.0, seed=3 + bench.seed, t_total_hours=size.query_hours
        )
        field, seconds = bench.op(
            "reference solve", solver.solve, scenario, SolverConfig(n_cells=size.query_cells)
        )
        ref_solves.append((seconds, field))
        first = ref_solves[0][1]
        bench.check(_field_ok(field), "reference solve: non-finite or non-positive depth")
        bench.check(field == dataclasses.replace(first, wall_clock_seconds=field.wall_clock_seconds),
                    "reference solve: field differs between set-up repetitions")
        box = surrogate.box_for_scenario(scenario)
        grid = _query_grid(box, *size.grid)
        rng = np.random.default_rng(bench.seed)
        sample = rng.choice(len(grid), size.checked_points, replace=False)
        return field, training.build_training_set(field, scenario), box, grid, sample

    field, training_set, box, grid, sample = bench.setup(make)

    model = surrogate.init_model(box, **NET)
    config = training.TrainConfig(
        lambda_physics=0.0, sigma=NET["sigma"], batch_size=256, collocation_per_batch=256,
        max_iterations=size.query_iterations, seed=0, record_every=100,
    )
    (trained, history), train_s = bench.op("train", training.train, model, training_set, config)
    bench.check(bool(history) and all(np.isfinite(r.total_loss) for r in history),
                "train: non-finite loss in history")

    # predict_batch over the dense grid, a fixed number of calls
    batch_times = []
    reference = None
    for _ in range(size.batches):
        (h, u), seconds = bench.op("predict_batch", surrogate.predict_batch, trained, grid)
        batch_times.append(seconds)
        if reference is None:
            reference = (h, u)
            bench.check(bool(np.all(np.isfinite(h)) and np.all(np.isfinite(u))),
                        "predict_batch: non-finite output")
        else:
            bench.check(np.array_equal(h, reference[0]) and np.array_equal(u, reference[1]),
                        "predict_batch: output differs between calls")

    # single-point predict: one caller, closed loop, over the seeded sample of grid
    # points, until the budget ends; each answer must equal predict_batch's bit for bit
    h_ref, u_ref = reference
    latencies = []
    predict = surrogate.predict
    while len(latencies) < size.min_predicts or bench.has_time_for(0.0):
        k = int(sample[len(latencies) % len(sample)])
        x, t = float(grid[k, 0]), float(grid[k, 1])
        (h, u), seconds = bench.op("predict", predict, trained, x, t)
        latencies.append(seconds)
        if h != h_ref[k] or u != u_ref[k]:
            bench.check(False, f"predict({x!r}, {t!r}) differs from predict_batch")
    timed_s = bench.elapsed()

    # accuracy on the reference station-time grid, through predict_batch (physics path bypassed)
    xx, tt = np.meshgrid(field.x_miles, field.t_hours)
    h_pred, _ = surrogate.predict_batch(trained, np.column_stack([xx.ravel(), tt.ravel()]))
    stage_mrae = evaluation.mrae(h_pred.reshape(field.h.shape), field.h)
    if size.mrae_limit is not None:
        bench.check(stage_mrae <= size.mrae_limit, f"stage MRAE {stage_mrae:.4f} > {size.mrae_limit}")

    batch_s = statistics.median(batch_times)
    batches_s = sum(batch_times)
    predicts_s = float(np.sum(latencies[: size.min_predicts]))
    lat_us = 1e6 * np.asarray(latencies)
    return Result(
        # fixed operation counts, so inference is about half of work_s beside training
        work_s=train_s + batches_s + predicts_s,
        figures={
            "solve_s": (statistics.median(s for s, _ in ref_solves), "s"),
            "train_s": (train_s, "s"),
            "train_ms_per_iter": (1e3 * train_s / size.query_iterations, "ms"),
            "query_points_per_s": (len(grid) / batch_s, "1/s"),
            "query_points": (len(grid), "count"),
            "predict_batch_calls": (len(batch_times), "count"),
            "predict_batch_total_s": (batches_s, "s"),
            "predict_total_s": (predicts_s, "s"),
            "predict_p50_us": (float(np.percentile(lat_us, 50)), "us"),
            "predict_p99_us": (float(np.percentile(lat_us, 99)), "us"),
            "predict_samples": (len(latencies), "count"),
            "stage_mrae": (stage_mrae, "ratio"),
        },
        digests={
            "field_sha256": _array_digest(field.h, field.u),
            "weights_sha256": _array_digest(trained.weights),
        },
        timed_s=timed_s,
    )


WORKLOADS = {
    "flood-solve": flood_solve,
    "pinn-pipeline": pinn_pipeline,
    "surrogate-query": surrogate_query,
}
