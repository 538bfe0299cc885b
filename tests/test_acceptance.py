"""Acceptance gates for the whole package.

Each test prints a one-line verdict (through ``capsys.disabled`` so it
reaches the terminal even under capture) and then asserts it.  The
numbered gates cover: solver equilibria, mass balance, derivative
correctness, the closed-form residual cases, end-to-end surrogate
accuracy, the ablation orderings, the speed advantage over the solver,
and bitwise determinism of a full rerun.

The accuracy/benchmark/determinism gates share one module-scoped
training run (20 stations, 20,000 iterations); expect the file to take
a few minutes.
"""

import dataclasses
import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import fd_gradient, lake_at_rest_scenario, uniform_flow_scenario
from stagecast.cli import main
from stagecast.evaluation import benchmark, evaluate, run_ablation
from stagecast.fileio import scenario_hash, write_field, write_scenario
from stagecast.geometry import G_FT_S2, make_flood_wave_scenario
from stagecast.solver import SolverConfig, check_mass_balance, solve
from stagecast.surrogate import (
    Dual,
    NormalizationBox,
    box_for_scenario,
    init_model,
    physics_duals,
    predict,
)
from stagecast.training import (
    TrainConfig,
    build_training_set,
    data_loss,
    forward_loss,
    loss_gradient,
    physics_loss,
    train,
)


def _verdict(capsys, num: int, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"acceptance {num} ({label}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"acceptance {num} ({label}): {detail}"


def _min_steps(field, scenario, config: SolverConfig) -> int:
    """Lower bound on the solver's step count, from the CFL ceiling on dt."""
    speed = np.abs(field.u) + np.sqrt(G_FT_S2 * field.h)
    slowest_max = float(np.max(speed, axis=1).min())
    dx_ft = scenario.geometry.length_miles * 5280.0 / config.n_cells
    return int(scenario.t_total_hours * 3600.0 * slowest_max / (config.cfl * dx_ft))


# ---------------------------------------------------------------------------
# 1. equilibria


def test_1_solver_equilibria(capsys):
    t0 = time.perf_counter()
    config = SolverConfig(n_cells=100)

    lake = lake_at_rest_scenario()  # 1.6 h of still water
    lake_field = solve(lake, config)
    lake_drift = float(np.abs(lake_field.h - lake.boundaries.initial_depth_ft).max())

    uniform = uniform_flow_scenario()  # 3.0 h at normal depth
    uni_field = solve(uniform, config)
    h_n = uniform.boundaries.initial_depth_ft
    u_n = uniform.boundaries.initial_velocity_fps
    uni_drift = max(
        float(np.abs(uni_field.h - h_n).max() / h_n),
        float(np.abs(uni_field.u - u_n).max() / u_n),
    )
    wall = time.perf_counter() - t0

    steps = min(_min_steps(lake_field, lake, config), _min_steps(uni_field, uniform, config))
    ok = lake_drift <= 1e-10 and uni_drift <= 1e-6 and steps >= 1000 and wall < 10.0
    _verdict(
        capsys, 1, "solver equilibria", ok,
        f"lake drift {lake_drift:.1e} ft (<=1e-10), uniform drift {uni_drift:.1e} rel (<=1e-6), "
        f">={steps} steps, {wall:.1f}s (<10)",
    )


# ---------------------------------------------------------------------------
# 2. mass balance


def test_2_mass_balance(capsys):
    t0 = time.perf_counter()
    scenario = make_flood_wave_scenario(8, 3.0, seed=11, t_total_hours=30.0)
    err_400 = check_mass_balance(solve(scenario, SolverConfig(n_cells=400)), scenario)
    err_800 = check_mass_balance(solve(scenario, SolverConfig(n_cells=800)), scenario)
    wall = time.perf_counter() - t0
    ok = err_400 < 0.01 and err_800 < err_400 and wall < 60.0
    _verdict(
        capsys, 2, "mass balance", ok,
        f"400 cells {err_400:.2e} (<1%), 800 cells {err_800:.2e} (shrinking), {wall:.1f}s (<60)",
    )


# ---------------------------------------------------------------------------
# 3. derivatives


def test_3_autodiff_correctness(capsys):
    t0 = time.perf_counter()
    box = NormalizationBox(0.0, 8.0, 0.0, 30.0)

    # (a) input partials of 100 random small networks vs central differences
    rng = np.random.default_rng(2024)
    eps = 1e-5  # miles / hours
    worst_rel = 0.0
    for k in range(100):
        width = int(rng.choice([8, 12, 16]))
        n_blocks = int(rng.choice([1, 2]))
        m = int(rng.choice([4, 8]))
        model = init_model(
            box, n_blocks=n_blocks, width=width, m=m, sigma=4.0, activation="tanh", seed=k,
        )
        model = dataclasses.replace(model, weights=rng.normal(0.0, 0.5, model.n_weights))
        for _ in range(3):
            x0 = float(rng.uniform(0.5, 7.5))
            t_pt = float(rng.uniform(0.5, 29.5))
            h_dual, u_dual = physics_duals(model, x0, t_pt)
            fd = {
                "h.dx": (predict(model, x0 + eps, t_pt)[0] - predict(model, x0 - eps, t_pt)[0])
                / (2 * eps * 5280.0),
                "h.dt": (predict(model, x0, t_pt + eps)[0] - predict(model, x0, t_pt - eps)[0])
                / (2 * eps * 3600.0),
                "u.dx": (predict(model, x0 + eps, t_pt)[1] - predict(model, x0 - eps, t_pt)[1])
                / (2 * eps * 5280.0),
                "u.dt": (predict(model, x0, t_pt + eps)[1] - predict(model, x0, t_pt - eps)[1])
                / (2 * eps * 3600.0),
            }
            exact = {"h.dx": h_dual.dx, "h.dt": h_dual.dt, "u.dx": u_dual.dx, "u.dt": u_dual.dt}
            for key, fd_val in fd.items():
                e = float(np.asarray(exact[key]).ravel()[0])
                worst_rel = max(worst_rel, abs(fd_val - e) / (abs(e) + 1e-5))
    partials_ok = worst_rel <= 1e-5

    # (b) hybrid-loss weight gradient on a 2-block x 8-wide network,
    #     16 collocation points, vs per-weight central differences
    rng = np.random.default_rng(99)
    model = init_model(box, n_blocks=2, width=8, m=4, sigma=4.0, activation="tanh", seed=1)
    model = dataclasses.replace(model, weights=rng.normal(0.0, 0.4, model.n_weights))
    n_data = 8
    batch = (
        rng.uniform(0.0, 8.0, n_data),
        rng.uniform(0.0, 30.0, n_data),
        rng.uniform(2.0, 9.0, n_data),
        rng.uniform(-1.0, 4.0, n_data),
    )
    colloc = np.column_stack([rng.uniform(0.0, 8.0, 16), rng.uniform(0.0, 30.0, 16)])
    lam = 0.1

    g_exact = loss_gradient(forward_loss(model, batch, colloc, lambda_physics=lam))

    def loss_at(w):
        probe = dataclasses.replace(model, weights=w)
        return data_loss(probe, batch) + lam * physics_loss(probe, colloc)

    g_fd = fd_gradient(loss_at, model.weights.copy())
    grad_rel = float(np.max(np.abs(g_fd - g_exact) / np.maximum(np.abs(g_exact), 1e-6)))
    grad_ok = grad_rel <= 1e-3

    wall = time.perf_counter() - t0
    ok = partials_ok and grad_ok and wall < 60.0
    _verdict(
        capsys, 3, "autodiff correctness", ok,
        f"partials max rel {worst_rel:.1e} (<=1e-5), weight grad max rel {grad_rel:.1e} (<=1e-3), "
        f"{wall:.1f}s (<60)",
    )


# ---------------------------------------------------------------------------
# 4. closed-form residual cases


class _UnitShear:
    """h = 1 ft, u = x ft/s: the continuity residual is exactly 1 everywhere
    and the momentum residual vanishes on the x = 0 line."""

    def physics_duals(self, x_miles, t_hours):
        x = np.asarray(x_miles, dtype=np.float64)
        zero = np.zeros_like(x)
        return (
            Dual(np.ones_like(x), zero, zero),
            Dual(x * 5280.0, np.ones_like(x), zero),
        )


def test_4_physics_loss_zero_cases(capsys):
    t0 = time.perf_counter()
    box = NormalizationBox(0.0, 8.0, 0.0, 30.0)
    model = init_model(box, n_blocks=2, width=16, m=8, sigma=4.0, activation="tanh", seed=5)
    constant = dataclasses.replace(model, weights=np.zeros(model.n_weights))
    rng = np.random.default_rng(0)
    pts = np.column_stack([rng.uniform(0.0, 8.0, 64), rng.uniform(0.0, 30.0, 64)])
    const_loss = float(physics_loss(constant, pts))

    line = np.column_stack([np.zeros(8), np.linspace(0.0, 30.0, 8)])
    shear_loss = float(physics_loss(_UnitShear(), line))

    wall = time.perf_counter() - t0
    ok = const_loss < 1e-12 and shear_loss == 1.0 and wall < 1.0
    _verdict(
        capsys, 4, "physics-loss zero cases", ok,
        f"constant model {const_loss:.1e} (<1e-12), unit shear {shear_loss!r} (==1.0), "
        f"{wall:.2f}s (<1)",
    )


# ---------------------------------------------------------------------------
# 5/7/8 share one solved scenario and one full-configuration training run


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk")
    scenario = make_flood_wave_scenario(20, 3.0, seed=42, t_total_hours=24.0)
    write_scenario(scenario, root / "scenario.txt")

    t0 = time.perf_counter()
    field = solve(scenario, SolverConfig(n_cells=400))
    t_solve = time.perf_counter() - t0
    write_field(field, scenario_hash(scenario), root / "field.txt")

    ts = build_training_set(field, scenario)
    model = init_model(
        box_for_scenario(scenario), n_blocks=2, width=64, m=32, sigma=4.0,
        activation="tanh", seed=0,
    )
    config = TrainConfig(
        lambda_physics=0.1, sigma=4.0, batch_size=256, collocation_per_batch=256,
        lr_initial=1e-3, lr_decay_rate=0.5, lr_decay_every=20_000,
        max_iterations=20_000, seed=0, record_every=1000,
    )
    t0 = time.perf_counter()
    trained, _history = train(model, ts, config)
    t_train = time.perf_counter() - t0

    return SimpleNamespace(
        root=root, scenario=scenario, field=field, trained=trained,
        t_solve=t_solve, t_train=t_train,
    )


def test_5_surrogate_accuracy(desk, capsys):
    t0 = time.perf_counter()
    report = evaluate(desk.trained, desk.field, desk.scenario)
    wall = desk.t_solve + desk.t_train + (time.perf_counter() - t0)
    frac = float(np.mean(report.per_station_mrae <= 0.08))
    ok = report.overall_stage_mrae <= 0.05 and frac >= 0.80 and wall < 1800.0
    _verdict(
        capsys, 5, "surrogate accuracy", ok,
        f"overall stage MRAE {report.overall_stage_mrae:.4f} (<=0.05), "
        f"{frac:.0%} of 20 stations <=0.08 (>=80%), {wall / 60:.1f} min (<30)",
    )


# ---------------------------------------------------------------------------
# 6. ablation orderings


def test_6_ablation_ordering(capsys):
    t0 = time.perf_counter()
    scenario = make_flood_wave_scenario(
        12, 5.0, seed=7, pulse_sigma_hours=1.0, t_total_hours=24.0,
    )
    result = run_ablation(scenario, 10_000, 11, lambda_full=3.0)
    wall = time.perf_counter() - t0

    # a diverged configuration has no report or final loss to compare
    diverged = [name for name, run in result.runs.items() if run.diverged]
    if diverged:
        _verdict(
            capsys, 6, "ablation ordering", False,
            f"diverged: {', '.join(diverged)}, {wall / 60:.1f} min",
        )

    data = {name: run.training_data_loss for name, run in result.runs.items()}
    resid = {name: run.report.mean_physics_residual for name, run in result.runs.items()}
    ok = (
        data["fourier_only"] < data["base"]
        and 5.0 * resid["full"] <= resid["fourier_only"]
        and wall < 2700.0
    )
    _verdict(
        capsys, 6, "ablation ordering", ok,
        f"data loss fourier_only {data['fourier_only']:.2e} < base {data['base']:.2e}, "
        f"residual ratio {resid['fourier_only'] / resid['full']:.1f}x (>=5x), "
        f"{wall / 60:.1f} min (<45)",
    )


# ---------------------------------------------------------------------------
# 7. speed


def test_7_benchmark_direction(desk, capsys):
    t0 = time.perf_counter()
    result = benchmark(desk.trained, desk.scenario, repetitions=3, n_cells=400)
    wall = time.perf_counter() - t0
    ok = result.speedup >= 10.0 and wall < 300.0
    _verdict(
        capsys, 7, "benchmark direction", ok,
        f"surrogate {result.surrogate_median:.4f}s vs solver {result.solver_median:.2f}s on "
        f"{result.n_points} grid points -> {result.speedup:.0f}x (>=10x), {wall:.0f}s (<300)",
    )


# ---------------------------------------------------------------------------
# 8. determinism


def test_8_determinism(desk, capsys):
    t0 = time.perf_counter()
    runs = []
    for name in ("rerun_a", "rerun_b"):
        out = desk.root / name
        rc = main([
            "train",
            "--scenario", str(desk.root / "scenario.txt"),
            "--field", str(desk.root / "field.txt"),
            "--out-dir", str(out / "model"),
            "--iterations", "1000",
            "--batch-size", "256",
            "--collocation", "256",
            "--width", "64",
            "--blocks", "2",
            "--fourier-size", "32",
            "--activation", "tanh",
            "--sigma", "4.0",
            "--lambda", "0.1",
            "--seed", "0",
            "--record-every", "100",
        ])
        assert rc == 0
        rc = main([
            "eval",
            "--checkpoint", str(out / "model" / "checkpoint.bin"),
            "--field", str(desk.root / "field.txt"),
            "--scenario", str(desk.root / "scenario.txt"),
            "--out-dir", str(out / "report"),
        ])
        assert rc == 0
        runs.append(out)

    a, b = runs
    ckpt_same = (a / "model" / "checkpoint.bin").read_bytes() == (b / "model" / "checkpoint.bin").read_bytes()
    hist_same = (a / "model" / "history.csv").read_bytes() == (b / "model" / "history.csv").read_bytes()
    csv_same = all(
        (a / "report" / f).read_bytes() == (b / "report" / f).read_bytes()
        for f in ("per_station.csv", "error_histogram.csv")
    )
    report_a = json.loads((a / "report" / "report.json").read_text())
    report_b = json.loads((b / "report" / "report.json").read_text())
    report_a.pop("timing")
    report_b.pop("timing")
    wall = time.perf_counter() - t0
    ok = ckpt_same and hist_same and csv_same and report_a == report_b and wall < 300.0
    _verdict(
        capsys, 8, "determinism", ok,
        f"checkpoint bytes equal: {ckpt_same}, history equal: {hist_same}, "
        f"report (sans wall clock) equal: {csv_same and report_a == report_b}, "
        f"{wall:.0f}s (<300)",
    )
