"""Accuracy, speed, and ablation reporting for trained surrogates.

The headline metric is the mean relative absolute error

    MRAE = sum(|pred - truth|) / sum(truth),

pooled over points or computed per station.  Reports also carry the mean
squared physics residual on a fresh uniform collocation set and the
solver-versus-surrogate timing comparison.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .geometry import RiverScenario, bed_elevation_at
from .solver import FlowField, SolverConfig, solve
from .surrogate import SurrogateModel, box_for_scenario, init_model, predict_batch
from .training import (
    TrainConfig,
    TrainingDiverged,
    build_training_set,
    physics_loss,
    train,
)

__all__ = [
    "EvalReport",
    "BenchmarkReport",
    "AblationResult",
    "ABLATION_CONFIGS",
    "mrae",
    "error_histogram",
    "evaluate",
    "benchmark",
    "run_ablation",
]


_PHYSICS_CHUNK = 2048  # collocation points per network pass of the physics residual
# marks a report field as a wall-clock figure; report files keep these apart
# from the figures that are a pure function of the seeds and inputs
_WALL_CLOCK = {"wall_clock": True}


def mrae(pred, truth) -> float:
    """Mean relative absolute error: sum |pred-truth| / sum truth.

    Scale-covariant (units cancel) and invariant to reordering the points.
    Truth with a non-positive mean has no meaningful normalization and is
    rejected.
    """
    p = np.asarray(pred, dtype=np.float64)
    y = np.asarray(truth, dtype=np.float64)
    if p.shape != y.shape:
        raise ValueError(f"shape mismatch: pred {p.shape} vs truth {y.shape}")
    denom = float(np.sum(y))
    if denom <= 0.0:
        raise ValueError("truth mean must be positive for a relative error")
    return float(np.sum(np.abs(p - y)) / denom)


def _grid_points(field: FlowField) -> np.ndarray:
    """The (x_miles, t_hours) points of a field's station-time grid, time-major."""
    xx, tt = np.meshgrid(field.x_miles, field.t_hours)
    return np.column_stack([xx.ravel(), tt.ravel()])


def error_histogram(per_station_error: np.ndarray, n_bins: int = 20):
    """Binned counts of per-station errors over [0, max]; returns (edges, counts)."""
    errs = np.asarray(per_station_error, dtype=np.float64)
    top = float(errs.max()) if errs.size and errs.max() > 0 else 1.0
    counts, edges = np.histogram(errs, bins=n_bins, range=(0.0, top))
    return edges, counts


@dataclass
class EvalReport:
    """Accuracy and timing of one model against one solved field."""

    datum: str
    n_stations: int
    n_times: int
    station_miles: np.ndarray
    per_station_mrae: np.ndarray
    overall_stage_mrae: float
    overall_velocity_mrae: float
    max_stage_abs_error_ft: float
    mean_physics_residual: float
    collocation_seed: int
    n_collocation: int
    solver_seconds: float = field(metadata=_WALL_CLOCK)
    surrogate_seconds: float = field(metadata=_WALL_CLOCK)
    speedup: float = field(metadata=_WALL_CLOCK)


def evaluate(
    model: SurrogateModel,
    field: FlowField,
    scenario: RiverScenario,
    *,
    datum: str = "depth",
    collocation_seed: int = 0,
    n_collocation: int = 10_000,
) -> EvalReport:
    """Score a model on the station-time grid of a solved field.

    ``datum`` selects whether stage errors are measured on depth above bed
    or on water-surface elevation (bed profile added to both sides).  The
    model must predict depth; feeding one that claims another datum is a
    hard error rather than a silently wrong comparison.
    """
    if datum not in ("depth", "elevation"):
        raise ValueError("datum must be 'depth' or 'elevation'")
    if n_collocation < 1:
        raise ValueError("n_collocation must be positive")
    if getattr(model, "output_datum", "depth") != "depth":
        raise ValueError(
            f"model outputs datum {model.output_datum!r}; evaluation expects depth above bed"
        )

    points = _grid_points(field)
    started = time.perf_counter()
    h_flat, u_flat = predict_batch(model, points)
    surrogate_seconds = time.perf_counter() - started
    h_pred = h_flat.reshape(field.h.shape)
    u_pred = u_flat.reshape(field.u.shape)

    h_ref = field.h
    h_cmp = h_pred
    if datum == "elevation":
        bed = bed_elevation_at(scenario.geometry, field.x_miles)
        h_ref = field.h + bed
        h_cmp = h_pred + bed

    per_station = np.array(
        [mrae(h_cmp[:, j], h_ref[:, j]) for j in range(field.x_miles.size)]
    )
    overall_stage = mrae(h_cmp.ravel(), h_ref.ravel())
    overall_velocity = mrae(np.abs(u_pred).ravel(), np.abs(field.u).ravel())

    box = box_for_scenario(scenario)
    rng = np.random.default_rng(collocation_seed)
    colloc = np.column_stack(
        [
            rng.uniform(box.x_min_miles, box.x_max_miles, n_collocation),
            rng.uniform(box.t_min_hours, box.t_max_hours, n_collocation),
        ]
    )
    # chunked: one pass would hold three stacked rows per point in every layer
    chunks = [colloc[i : i + _PHYSICS_CHUNK] for i in range(0, n_collocation, _PHYSICS_CHUNK)]
    residual = sum(physics_loss(model, c) * c.shape[0] for c in chunks) / n_collocation

    solver_seconds = field.wall_clock_seconds
    return EvalReport(
        datum=datum,
        n_stations=int(field.x_miles.size),
        n_times=int(field.t_hours.size),
        station_miles=field.x_miles.copy(),
        per_station_mrae=per_station,
        overall_stage_mrae=float(overall_stage),
        overall_velocity_mrae=float(overall_velocity),
        max_stage_abs_error_ft=float(np.max(np.abs(h_pred - field.h))),
        mean_physics_residual=residual,
        collocation_seed=collocation_seed,
        n_collocation=n_collocation,
        solver_seconds=float(solver_seconds),
        surrogate_seconds=float(surrogate_seconds),
        speedup=float(solver_seconds / surrogate_seconds),
    )


@dataclass
class BenchmarkReport:
    """Median-of-repetitions timing comparison on one scenario."""

    n_cells: int
    n_points: int
    repetitions: int
    solver_seconds: list[float] = field(metadata=_WALL_CLOCK)
    surrogate_seconds: list[float] = field(metadata=_WALL_CLOCK)
    solver_median: float = field(metadata=_WALL_CLOCK)
    surrogate_median: float = field(metadata=_WALL_CLOCK)
    speedup: float = field(metadata=_WALL_CLOCK)


def benchmark(
    model: SurrogateModel,
    scenario: RiverScenario,
    repetitions: int = 3,
    *,
    n_cells: int = 400,
) -> BenchmarkReport:
    """Time the reference solver against surrogate inference.

    Both sides answer the same question -- stage and velocity on the
    scenario's station-time grid -- on the monotonic clock.  One warm-up
    round per method is run and discarded, then the median of
    ``repetitions`` timed rounds is reported.  Model loading is the
    caller's business and never counted.
    """
    if repetitions < 3:
        raise ValueError("need at least 3 repetitions for a stable median")
    config = SolverConfig(n_cells=n_cells)

    points = _grid_points(solve(scenario, config))  # warm-up; only its grid is kept
    predict_batch(model, points)  # warm-up, discarded

    solver_times = []
    for _ in range(repetitions):
        started = time.perf_counter()
        solve(scenario, config)
        solver_times.append(time.perf_counter() - started)
    surrogate_times = []
    for _ in range(repetitions):
        started = time.perf_counter()
        predict_batch(model, points)
        surrogate_times.append(time.perf_counter() - started)

    solver_median = float(np.median(solver_times))
    surrogate_median = float(np.median(surrogate_times))
    return BenchmarkReport(
        n_cells=n_cells,
        n_points=int(points.shape[0]),
        repetitions=repetitions,
        solver_seconds=solver_times,
        surrogate_seconds=surrogate_times,
        solver_median=solver_median,
        surrogate_median=surrogate_median,
        speedup=solver_median / surrogate_median,
    )


ABLATION_CONFIGS = ("base", "fourier_only", "full")


@dataclass
class AblationResult:
    """Three matched runs: no encoder, encoder only, encoder plus physics."""

    seed: int
    budget_iters: int
    reports: dict
    histories: dict
    training_data_loss: dict
    diverged: dict
    curve_station_miles: float
    curve_t_hours: np.ndarray
    curve_truth_h: np.ndarray
    curves: dict
    settings: dict  # name -> {"use_fourier", "lambda_physics"}, in ABLATION_CONFIGS order
    field: FlowField = field(repr=False, default=None)


def run_ablation(
    scenario: RiverScenario,
    budget_iters: int,
    seed: int,
    *,
    sigma: float = 4.0,
    lambda_full: float = 0.1,
    width: int = 64,
    n_blocks: int = 2,
    m: int = 32,
    activation: str = "tanh",
    batch_size: int = 256,
    n_cells: int = 400,
) -> AblationResult:
    """Train base / fourier_only / full under one seed and budget.

    All three runs share the solver field, the model-init seed, and the
    supervised batch stream; they differ only in the encoder and the
    physics weight.  A diverged run is marked and skipped, never fatal.
    """
    field_ = solve(scenario, SolverConfig(n_cells=n_cells))
    ts = build_training_set(field_, scenario)

    settings = {
        "base": {"use_fourier": False, "lambda_physics": 0.0},
        "fourier_only": {"use_fourier": True, "lambda_physics": 0.0},
        "full": {"use_fourier": True, "lambda_physics": lambda_full},
    }
    reports, histories, final_losses, diverged, curves = {}, {}, {}, {}, {}

    mid = field_.x_miles.size // 2
    station_x = float(field_.x_miles[mid])
    curve_points = np.column_stack([np.full(field_.t_hours.size, station_x), field_.t_hours])

    for name, spec_ in settings.items():
        model = init_model(
            ts.norm,
            n_blocks=n_blocks,
            width=width,
            m=m,
            sigma=sigma,
            activation=activation,
            seed=seed,
            use_fourier=spec_["use_fourier"],
        )
        config = TrainConfig(
            lambda_physics=spec_["lambda_physics"],
            sigma=sigma,
            batch_size=batch_size,
            max_iterations=budget_iters,
            seed=seed,
        )
        try:
            trained, history = train(model, ts, config)
        except TrainingDiverged as err:
            diverged[name] = True
            histories[name] = err.history
            reports[name] = None
            final_losses[name] = float("inf")
            curves[name] = None
            continue
        diverged[name] = False
        histories[name] = history
        final_losses[name] = history[-1].data_loss if history else float("nan")
        reports[name] = evaluate(trained, field_, scenario)
        h_curve, _ = predict_batch(trained, curve_points)
        curves[name] = h_curve

    return AblationResult(
        seed=seed,
        budget_iters=budget_iters,
        reports=reports,
        histories=histories,
        training_data_loss=final_losses,
        diverged=diverged,
        curve_station_miles=station_x,
        curve_t_hours=field_.t_hours.copy(),
        curve_truth_h=field_.h[:, mid].copy(),
        curves=curves,
        settings=settings,
        field=field_,
    )
