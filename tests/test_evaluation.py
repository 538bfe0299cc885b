"""Metrics, reports, timing comparison, and the ablation harness."""

import warnings

import numpy as np
import pytest

import stagecast.evaluation as ev
from oracles import naive_mrae
from stagecast.surrogate import Dual
from stagecast.evaluation import (
    ABLATION_CONFIGS,
    benchmark,
    error_histogram,
    evaluate,
    mrae,
    run_ablation,
)
from stagecast.geometry import make_flood_wave_scenario
from stagecast.solver import SolverConfig, solve
from stagecast.surrogate import ExtrapolationWarning, box_for_scenario, init_model, predict_batch


def _tiny_scenario():
    return make_flood_wave_scenario(4, 2.0, seed=3, t_total_hours=6.0)


def _tiny_model(scenario, seed=0):
    return init_model(
        box_for_scenario(scenario), n_blocks=1, width=8, m=4, sigma=4.0, activation="tanh", seed=seed
    )


# ---------------------------------------------------------------------------
# mrae


def test_mrae_examples():
    assert mrae([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert mrae([1.1, 2.2, 3.3], [1.0, 2.0, 3.0]) == pytest.approx(0.1, rel=1e-12)
    assert mrae([0.0], [5.0]) == 1.0


def test_mrae_matches_naive_oracle():
    rng = np.random.default_rng(5)
    truth = rng.uniform(1, 10, 200)
    pred = truth + rng.normal(0, 0.5, 200)
    assert mrae(pred, truth) == pytest.approx(naive_mrae(pred, truth), rel=1e-12)


def test_mrae_scale_covariant():
    rng = np.random.default_rng(6)
    truth = rng.uniform(1, 10, 50)
    pred = truth + rng.normal(0, 0.5, 50)
    base = mrae(pred, truth)
    for c in (1e-3, 7.0, 1234.5):
        assert mrae(c * pred, c * truth) == pytest.approx(base, rel=1e-12)


def test_mrae_permutation_invariant():
    rng = np.random.default_rng(7)
    truth = rng.uniform(1, 10, 64)
    pred = truth + rng.normal(0, 1, 64)
    perm = rng.permutation(64)
    assert mrae(pred[perm], truth[perm]) == pytest.approx(mrae(pred, truth), rel=1e-12)


def test_mrae_rejects_bad_input():
    with pytest.raises(ValueError):
        mrae([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        mrae([1.0], [0.0])
    with pytest.raises(ValueError):
        mrae([1.0, 1.0], [2.0, -2.0])


# ---------------------------------------------------------------------------
# histogram


def test_error_histogram_default_bins():
    errs = np.linspace(0.0, 0.2, 100)
    edges, counts = error_histogram(errs)
    assert edges.size == 21
    assert counts.size == 20
    assert counts.sum() == 100
    assert edges[0] == 0.0
    assert edges[-1] == pytest.approx(0.2)


def test_error_histogram_degenerate_zero_errors():
    edges, counts = error_histogram(np.zeros(7), n_bins=5)
    assert counts.sum() == 7
    assert counts[0] == 7
    assert edges[-1] == 1.0


# ---------------------------------------------------------------------------
# evaluate


class _StillWaterDuals:
    """Physics-residual stub: constant depth, zero velocity."""

    output_datum = "depth"

    def physics_duals(self, x, t):
        z = np.zeros_like(np.asarray(x, dtype=np.float64))
        return Dual(z + 4.0, z, z), Dual(z, z, z)


def test_evaluate_exact_interpolant_scores_zero(monkeypatch):
    scenario = _tiny_scenario()
    field = solve(scenario, SolverConfig(n_cells=60))

    def exact(model, points):
        assert points.shape[0] == field.h.size
        return field.h.ravel().copy(), field.u.ravel().copy()

    monkeypatch.setattr(ev, "predict_batch", exact)
    report = evaluate(_StillWaterDuals(), field, scenario, n_collocation=100)
    assert report.overall_stage_mrae == 0.0
    assert report.overall_velocity_mrae == 0.0
    assert np.all(report.per_station_mrae == 0.0)
    assert report.max_stage_abs_error_ft == 0.0
    assert report.mean_physics_residual == 0.0


def test_evaluate_report_consistency():
    scenario = _tiny_scenario()
    field = solve(scenario, SolverConfig(n_cells=60))
    model = _tiny_model(scenario)
    report = evaluate(model, field, scenario, n_collocation=500)

    assert report.datum == "depth"
    assert report.n_stations == field.x_miles.size
    assert report.n_times == field.t_hours.size
    assert report.per_station_mrae.shape == (report.n_stations,)
    assert report.speedup == report.solver_seconds / report.surrogate_seconds

    # overall MRAE pools numerators and denominators, it is not the mean of
    # the per-station values
    h_pred, _ = predict_batch(
        model,
        np.column_stack(
            [np.meshgrid(field.x_miles, field.t_hours)[0].ravel(),
             np.meshgrid(field.x_miles, field.t_hours)[1].ravel()]
        ),
    )
    pooled = mrae(h_pred, field.h.ravel())
    assert report.overall_stage_mrae == pytest.approx(pooled, rel=1e-12)


def test_evaluate_elevation_datum_shrinks_relative_error():
    """Adding the bed to both sides grows the denominator only."""
    scenario = _tiny_scenario()
    field = solve(scenario, SolverConfig(n_cells=60))
    model = _tiny_model(scenario)
    depth = evaluate(model, field, scenario, datum="depth", n_collocation=100)
    elev = evaluate(model, field, scenario, datum="elevation", n_collocation=100)
    assert elev.datum == "elevation"
    assert elev.overall_stage_mrae < depth.overall_stage_mrae
    assert elev.max_stage_abs_error_ft == pytest.approx(depth.max_stage_abs_error_ft)


def test_evaluate_rejects_datum_mismatch():
    scenario = _tiny_scenario()
    field = solve(scenario, SolverConfig(n_cells=60))

    class ElevationModel(_StillWaterDuals):
        output_datum = "elevation"

    with pytest.raises(ValueError, match="datum"):
        evaluate(ElevationModel(), field, scenario)
    with pytest.raises(ValueError):
        evaluate(_tiny_model(scenario), field, scenario, datum="stage")


def test_evaluate_collocation_is_seeded():
    scenario = _tiny_scenario()
    field = solve(scenario, SolverConfig(n_cells=60))
    model = _tiny_model(scenario)
    a = evaluate(model, field, scenario, collocation_seed=3, n_collocation=200)
    b = evaluate(model, field, scenario, collocation_seed=3, n_collocation=200)
    c = evaluate(model, field, scenario, collocation_seed=4, n_collocation=200)
    assert a.mean_physics_residual == b.mean_physics_residual
    assert a.mean_physics_residual != c.mean_physics_residual


# ---------------------------------------------------------------------------
# benchmark


def test_benchmark_structure_and_speedup():
    scenario = _tiny_scenario()
    model = _tiny_model(scenario)
    report = benchmark(model, scenario, repetitions=3, n_cells=60)
    assert report.repetitions == 3
    assert len(report.solver_seconds) == 3
    assert len(report.surrogate_seconds) == 3
    assert report.solver_median == np.median(report.solver_seconds)
    assert report.surrogate_median == np.median(report.surrogate_seconds)
    assert report.speedup == report.solver_median / report.surrogate_median
    n_times = int(round(scenario.t_total_hours / scenario.output_dt_hours)) + 1
    assert report.n_points == len(scenario.station_positions_miles) * n_times
    assert all(t > 0 for t in report.solver_seconds + report.surrogate_seconds)


def test_benchmark_predicts_on_the_solver_grid():
    """A run length that is not a whole number of output steps: the solver
    clamps its last output time to the run length, and the benchmark must
    query that grid, not one that runs past the end of the domain."""
    scenario = make_flood_wave_scenario(4, 2.0, seed=3, t_total_hours=1.0, output_dt_hours=0.35)
    field = solve(scenario, SolverConfig(n_cells=60))
    assert field.t_hours[-1] == 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", ExtrapolationWarning)
        report = benchmark(_tiny_model(scenario), scenario, repetitions=3, n_cells=60)
    assert report.n_points == field.h.size


def test_physics_residual_in_chunks_matches_one_pass(monkeypatch):
    """evaluate() bounds its memory by scoring the residual in fixed chunks;
    the pooled value equals one pass over all points up to summation order."""
    scenario = _tiny_scenario()
    field = solve(scenario, SolverConfig(n_cells=60))
    model = _tiny_model(scenario, seed=2)
    model.weights[:] = np.random.default_rng(8).normal(0.0, 0.5, model.n_weights)
    one_pass = ev.physics_loss
    sizes = []

    def counted(model, colloc, **kwargs):
        sizes.append(len(colloc))
        return one_pass(model, colloc, **kwargs)

    monkeypatch.setattr(ev, "physics_loss", counted)
    chunk = ev._PHYSICS_CHUNK
    n = 2 * chunk + 123
    report = evaluate(model, field, scenario, collocation_seed=4, n_collocation=n)
    assert sizes == [chunk, chunk, 123]

    box = box_for_scenario(scenario)
    rng = np.random.default_rng(4)
    colloc = np.column_stack([
        rng.uniform(box.x_min_miles, box.x_max_miles, n),
        rng.uniform(box.t_min_hours, box.t_max_hours, n),
    ])
    expected = one_pass(model, colloc)
    assert expected > 0.0
    assert report.mean_physics_residual == pytest.approx(expected, rel=1e-12)
    # any object with physics_duals still works, chunk by chunk
    monkeypatch.setattr(ev, "predict_batch", lambda m, p: (np.ones(len(p)), np.ones(len(p))))
    still = evaluate(_StillWaterDuals(), field, scenario, n_collocation=n)
    assert still.mean_physics_residual == 0.0


def test_evaluate_rejects_an_empty_collocation_set():
    scenario = _tiny_scenario()
    field = solve(scenario, SolverConfig(n_cells=60))
    with pytest.raises(ValueError, match="n_collocation"):
        evaluate(_tiny_model(scenario), field, scenario, n_collocation=0)


def test_benchmark_rejects_too_few_repetitions():
    scenario = _tiny_scenario()
    with pytest.raises(ValueError):
        benchmark(_tiny_model(scenario), scenario, repetitions=2)


# ---------------------------------------------------------------------------
# ablation


@pytest.fixture(scope="module")
def small_ablation():
    return run_ablation(
        _tiny_scenario(),
        budget_iters=40,
        seed=5,
        width=8,
        n_blocks=1,
        m=4,
        batch_size=32,
        n_cells=60,
    )


def test_ablation_covers_all_configs(small_ablation):
    result = small_ablation
    assert set(result.reports) == set(ABLATION_CONFIGS) == {"base", "fourier_only", "full"}
    for name in ABLATION_CONFIGS:
        assert not result.diverged[name]
        assert result.reports[name].overall_stage_mrae >= 0.0
        assert result.histories[name], "every run records at least the final row"
        assert np.isfinite(result.training_data_loss[name])
        assert result.curves[name].shape == result.curve_t_hours.shape


def test_ablation_returns_its_settings_table(small_ablation):
    assert list(small_ablation.settings) == list(ABLATION_CONFIGS)
    assert small_ablation.settings == {
        "base": {"use_fourier": False, "lambda_physics": 0.0},
        "fourier_only": {"use_fourier": True, "lambda_physics": 0.0},
        "full": {"use_fourier": True, "lambda_physics": 0.1},
    }


def test_ablation_curve_is_the_field_slice(small_ablation):
    result = small_ablation
    mid = result.field.x_miles.size // 2
    assert result.curve_station_miles == result.field.x_miles[mid]
    np.testing.assert_array_equal(result.curve_truth_h, result.field.h[:, mid])


def test_ablation_reruns_bitwise(small_ablation):
    again = run_ablation(
        _tiny_scenario(),
        budget_iters=40,
        seed=5,
        width=8,
        n_blocks=1,
        m=4,
        batch_size=32,
        n_cells=60,
    )
    for name in ABLATION_CONFIGS:
        assert again.training_data_loss[name] == small_ablation.training_data_loss[name]
        assert again.reports[name].overall_stage_mrae == small_ablation.reports[name].overall_stage_mrae
        np.testing.assert_array_equal(again.curves[name], small_ablation.curves[name])
