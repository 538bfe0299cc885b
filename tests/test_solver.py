"""Shallow-water solver: equilibria, conservation, convergence, and an
independent-scheme cross check."""

import re
import warnings

import numpy as np
import pytest

from stagecast import SolverConfig, SolverError, check_mass_balance, make_flood_wave_scenario, solve
from stagecast.solver import _run

from oracles import (
    lake_at_rest_scenario,
    lax_friedrichs_solve,
    reference_run,
    reference_solve,
    uniform_flow_scenario,
)


# ---------------------------------------------------------------------------
# equilibria


def test_lake_at_rest_stays_still():
    scenario = lake_at_rest_scenario(t_total_hours=0.5)
    field = solve(scenario, SolverConfig(n_cells=100))
    assert np.abs(field.h - 10.0).max() < 1e-10
    assert np.abs(field.u).max() < 1e-10


def test_lake_at_rest_mass_balance():
    scenario = lake_at_rest_scenario(t_total_hours=0.5)
    field = solve(scenario, SolverConfig(n_cells=100))
    assert check_mass_balance(field, scenario) < 1e-10


def test_uniform_flow_is_steady():
    scenario = uniform_flow_scenario(t_total_hours=1.0)
    field = solve(scenario, SolverConfig(n_cells=100))
    h_n = scenario.boundaries.initial_depth_ft
    u_n = scenario.boundaries.initial_velocity_fps
    assert np.abs(field.h - h_n).max() / h_n < 1e-6
    assert np.abs(field.u - u_n).max() / u_n < 1e-6


def test_uniform_flow_mass_balance():
    scenario = uniform_flow_scenario(t_total_hours=1.0)
    field = solve(scenario, SolverConfig(n_cells=100))
    assert check_mass_balance(field, scenario) < 1e-8


# ---------------------------------------------------------------------------
# structure of the output


def test_field_shapes_and_grids(flood_field, flood_scenario):
    n_x = len(flood_scenario.station_positions_miles)
    n_t = int(round(flood_scenario.t_total_hours / flood_scenario.output_dt_hours)) + 1
    assert flood_field.h.shape == (n_t, n_x)
    assert flood_field.u.shape == (n_t, n_x)
    np.testing.assert_array_equal(flood_field.x_miles, flood_scenario.station_positions_miles)
    assert flood_field.t_hours[0] == 0.0
    assert flood_field.t_hours[-1] == pytest.approx(flood_scenario.t_total_hours)
    assert np.all(flood_field.h > 0.0)
    assert np.all(np.isfinite(flood_field.h)) and np.all(np.isfinite(flood_field.u))


def test_solve_is_deterministic(flood_scenario):
    a = solve(flood_scenario, SolverConfig(n_cells=80))
    b = solve(flood_scenario, SolverConfig(n_cells=80))
    assert np.array_equal(a.h, b.h)
    assert np.array_equal(a.u, b.u)


# ---------------------------------------------------------------------------
# conservation and convergence


def test_flood_mass_balance_shrinks_with_resolution(flood_scenario, flood_field):
    coarse = solve(flood_scenario, SolverConfig(n_cells=100))
    mb_coarse = check_mass_balance(coarse, flood_scenario)
    mb_fine = check_mass_balance(flood_field, flood_scenario)  # n_cells=200
    assert mb_coarse < 0.01
    assert mb_fine < mb_coarse


def test_grid_refinement_converges():
    scenario = make_flood_wave_scenario(6, 3.0, seed=11, t_total_hours=13.0)
    fields = {n: solve(scenario, SolverConfig(n_cells=n)) for n in (75, 150, 300)}
    d_coarse = np.abs(fields[150].h[-1] - fields[75].h[-1]).max()
    d_fine = np.abs(fields[300].h[-1] - fields[150].h[-1]).max()
    assert d_fine / d_coarse < 0.8


# ---------------------------------------------------------------------------
# independent-scheme cross check


def test_agrees_with_conservative_form_oracle(flood_scenario, flood_field):
    """MacCormack on (h,u) vs Rusanov on (A,Q): mean field agreement."""
    _, t_lf, h_lf, u_lf = lax_friedrichs_solve(flood_scenario, n_cells=200)
    np.testing.assert_array_equal(t_lf, flood_field.t_hours)
    rel_h = np.sum(np.abs(flood_field.h - h_lf)) / np.sum(flood_field.h)
    rel_u = np.sum(np.abs(flood_field.u - u_lf)) / np.sum(np.abs(flood_field.u))
    assert rel_h < 5e-4
    assert rel_u < 2e-3


def test_flood_peak_travels_downstream(flood_scenario, flood_field):
    """Stage peaks lag the upstream discharge peak, in both schemes."""
    q = flood_scenario.boundaries.upstream_discharge_cfs
    t_q_peak = q.t_hours[np.argmax(q.values)]

    _, t_lf, h_lf, _ = lax_friedrichs_solve(flood_scenario, n_cells=200)
    mid = flood_field.x_miles.size // 2
    t_mc_peak = flood_field.t_hours[np.argmax(flood_field.h[:, mid])]
    t_lf_peak = t_lf[np.argmax(h_lf[:, mid])]

    assert t_mc_peak > t_q_peak
    assert t_lf_peak > t_q_peak
    # the two schemes put the peak within one output step of each other
    assert abs(t_mc_peak - t_lf_peak) <= flood_scenario.output_dt_hours + 1e-12


# ---------------------------------------------------------------------------
# bitwise agreement with the original two-sweep loop


@pytest.mark.parametrize("n_cells", [100, 400])
@pytest.mark.parametrize("include_bed_slope", [True, False])
@pytest.mark.parametrize("include_friction", [True, False])
def test_fused_loop_matches_two_sweep_reference_bitwise(include_friction, include_bed_slope,
                                                        n_cells):
    """Half an hour of a fast pulse: every boundary and source path is live."""
    scenario = make_flood_wave_scenario(
        4, 3.0, seed=11, t_total_hours=0.5, output_dt_hours=0.05,
        pulse_center_hours=0.25, pulse_sigma_hours=0.1,
    )
    config = SolverConfig(n_cells=n_cells, include_friction=include_friction,
                          include_bed_slope=include_bed_slope)
    field = solve(scenario, config)
    t_ref, h_ref, u_ref = reference_solve(scenario, n_cells, include_friction, include_bed_slope)
    assert np.array_equal(field.t_hours, t_ref)
    assert np.array_equal(field.h, h_ref)
    assert np.array_equal(field.u, u_ref)


# ---------------------------------------------------------------------------
# symmetry of the homogeneous scheme


def test_symmetric_hump_stays_symmetric():
    """No slope, no friction, wall boundaries: mirror symmetry is exact."""
    n = 201
    length_ft = 10000.0
    x = np.linspace(0.0, length_ft, n)
    dx = length_ft / (n - 1)
    h = 5.0 + 0.5 * np.exp(-(((x - length_ft / 2) / 800.0) ** 2))
    u = np.zeros(n)

    def bc(h, u, t):
        u[0] = 0.0
        u[-1] = 0.0
        h[0] = 2 * h[1] - h[2]
        h[-1] = 2 * h[-2] - h[-3]

    def no_source(h, u):
        return np.zeros_like(h)

    h_final, u_final = _run(
        h, u, dx, 600.0, bc, lambda *args: None, source_fn=no_source, cfl=0.9
    )
    assert np.abs(h_final - h_final[::-1]).max() < 1e-8
    # the averaged two-sweep scheme is in fact bitwise symmetric
    assert np.array_equal(h_final, h_final[::-1])
    assert np.array_equal(u_final, -u_final[::-1])


# ---------------------------------------------------------------------------
# failure modes and validation


def test_cfl_collapse_is_diagnosed():
    scenario = lake_at_rest_scenario(t_total_hours=0.5)
    with pytest.raises(SolverError, match="CFL"):
        solve(scenario, SolverConfig(n_cells=100, dt_floor_s=1e9))


def test_step_budget_is_enforced():
    scenario = lake_at_rest_scenario(t_total_hours=1.0)
    with pytest.raises(SolverError, match="steps"):
        solve(scenario, SolverConfig(n_cells=100, max_steps=10))


def test_negative_depth_names_the_cell():
    """A boundary forcing that drains the channel must abort loudly."""
    n = 50
    h = np.full(n, 2.0)
    u = np.zeros(n)

    def draining_bc(h, u, t):
        h[-1] = 2.0 - 0.05 * t  # crosses zero at t = 40 s
        u[0] = 0.0
        u[-1] = 0.0
        h[0] = 2 * h[1] - h[2]

    def no_source(h, u):
        return np.zeros_like(h)

    with pytest.raises(SolverError, match="cell"):
        _run(h, u, 100.0, 3600.0, draining_bc, lambda *args: None,
             source_fn=no_source, cfl=0.9)


def _wall_bc(h, u):
    u[0] = 0.0
    u[-1] = 0.0
    h[0] = 2 * h[1] - h[2]


def _no_source(h, u):
    return np.zeros_like(h)


def _diagnosis(run, bc_fn):
    """Run a 50-cell still channel under ``bc_fn``; return the SolverError
    message, with every RuntimeWarning turned into an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SolverError) as info:
            run(np.full(50, 2.0), np.zeros(50), 100.0, 3600.0, bc_fn, lambda *args: None,
                source_fn=_no_source, cfl=0.9)
    return str(info.value)


def test_negative_depth_diagnosis_is_silent_and_unchanged():
    """The draining channel above: no RuntimeWarning on the way to the
    error, and the message the two-sweep reference gives."""
    def draining_bc(h, u, t):
        _wall_bc(h, u)
        h[-1] = 2.0 - 0.05 * t

    message = _diagnosis(_run, draining_bc)
    assert message == _diagnosis(reference_run, draining_bc)
    assert message.startswith("non-positive depth at step ")


@pytest.mark.parametrize("variable", ["h", "u"])
def test_non_finite_state_names_the_cell(variable):
    """A NaN that enters through the boundary condition is named at its
    cell, with the same step and time as the two-sweep reference."""
    def poisoned_bc(h, u, t):
        _wall_bc(h, u)
        h[-1] = 2 * h[-2] - h[-3]
        if t > 30.0:
            (h if variable == "h" else u)[0] = np.nan

    message = _diagnosis(_run, poisoned_bc)
    assert message == _diagnosis(reference_run, poisoned_bc)
    assert re.match(r"non-finite state at step \d+, cell 0, t=", message)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(n_cells=2)
    with pytest.raises(ValueError):
        SolverConfig(cfl=0.0)
    with pytest.raises(ValueError):
        SolverConfig(cfl=1.5)


def test_friction_flag_changes_the_solution(flood_scenario):
    config_on = SolverConfig(n_cells=80)
    config_off = SolverConfig(n_cells=80, include_friction=False, include_bed_slope=False)
    with_friction = solve(flood_scenario, config_on)
    without = solve(flood_scenario, config_off)
    assert not np.array_equal(with_friction.h, without.h)
