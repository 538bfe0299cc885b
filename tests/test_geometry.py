"""Channel, boundary-condition, and scenario-generator behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stagecast.geometry import (
    MANNING_K,
    STATION_SPACING_MILES,
    BoundaryConditions,
    ChannelGeometry,
    RiverScenario,
    TimeSeries,
    bed_elevation_at,
    friction_slope,
    friction_slope_partials,
    hydraulic_radius,
    interpolate_boundary,
    make_flood_wave_scenario,
    manning_discharge,
    normal_depth,
)


def _series(pairs):
    t, v = zip(*pairs)
    return TimeSeries(np.asarray(t, float), np.asarray(v, float))


def test_interpolation_midpoint():
    assert interpolate_boundary(_series([(0, 100), (2, 300)]), 1.0) == 200.0


def test_interpolation_exact_at_knots():
    series = _series([(0, 100), (2, 300)])
    assert interpolate_boundary(series, 0.0) == 100.0
    assert interpolate_boundary(series, 2.0) == 300.0


def test_interpolation_refuses_extrapolation():
    series = _series([(0, 100), (2, 300)])
    with pytest.raises(ValueError):
        interpolate_boundary(series, 2.5)
    with pytest.raises(ValueError):
        interpolate_boundary(series, -0.1)


def test_time_series_must_increase():
    with pytest.raises(ValueError):
        TimeSeries(np.array([0.0, 1.0, 1.0]), np.array([1.0, 2.0, 3.0]))


def test_bed_elevation_profile():
    geom = ChannelGeometry(
        length_miles=10.0,
        width_ft=200.0,
        bed_slope=1e-4,
        manning_n=0.03,
        bed_elevation_upstream_ft=500.0,
    )
    assert bed_elevation_at(geom, 0.0) == 500.0
    # one mile downstream drops slope * 5280 feet
    assert np.isclose(bed_elevation_at(geom, 1.0), 500.0 - 1e-4 * 5280.0, rtol=1e-15)


def test_hydraulic_radius_rectangular():
    assert hydraulic_radius(10.0, 2.0) == pytest.approx(20.0 / 14.0, rel=1e-15)


def test_friction_slope_sign_follows_velocity():
    sf_pos = friction_slope(100.0, 0.03, 5.0, 3.0)
    sf_neg = friction_slope(100.0, 0.03, 5.0, -3.0)
    assert sf_pos > 0
    assert sf_neg == -sf_pos


def test_friction_slope_manning_formula():
    w, n, h, u = 120.0, 0.035, 4.0, 2.5
    r = w * h / (w + 2 * h)
    expected = n * n * u * abs(u) / (MANNING_K**2 * r ** (4.0 / 3.0))
    assert friction_slope(w, n, h, u) == pytest.approx(expected, rel=1e-15)


def test_friction_slope_partials_match_central_differences(rng):
    for _ in range(20):
        w, n = rng.uniform(50.0, 500.0), rng.uniform(0.01, 0.1)
        h, u = rng.uniform(0.5, 40.0), rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 8.0)
        ds_dh, ds_du = friction_slope_partials(w, n, np.array([h]), np.array([u]))
        eps_h, eps_u = 1e-6 * h, 1e-6 * abs(u)
        fd_h = (friction_slope(w, n, h + eps_h, u) - friction_slope(w, n, h - eps_h, u)) / (2 * eps_h)
        fd_u = (friction_slope(w, n, h, u + eps_u) - friction_slope(w, n, h, u - eps_u)) / (2 * eps_u)
        assert ds_dh[0] == pytest.approx(fd_h, rel=1e-7)
        assert ds_du[0] == pytest.approx(fd_u, rel=1e-7)


def test_normal_depth_satisfies_manning():
    geom = ChannelGeometry(
        length_miles=5.0,
        width_ft=250.0,
        bed_slope=3e-4,
        manning_n=0.03,
        bed_elevation_upstream_ft=100.0,
    )
    q = 15000.0
    h_n = normal_depth(geom, q)
    assert manning_discharge(geom, h_n) == pytest.approx(q, rel=1e-10)


# ---------------------------------------------------------------------------
# synthetic scenario generation


def test_flat_hydrograph_when_peak_factor_is_one():
    scenario = make_flood_wave_scenario(20, 1.0, seed=7)
    q = scenario.boundaries.upstream_discharge_cfs.values
    assert np.all(q == q[0])


def test_peak_equals_factor_times_baseflow():
    scenario = make_flood_wave_scenario(20, 3.0, seed=7)
    q = scenario.boundaries.upstream_discharge_cfs.values
    # far from the pulse the Gaussian underflows, so min(q) is the baseflow
    baseflow = q.min()
    assert q.max() == pytest.approx(3.0 * baseflow, rel=1e-12)


def test_generation_is_deterministic():
    a = make_flood_wave_scenario(20, 3.0, seed=7)
    b = make_flood_wave_scenario(20, 3.0, seed=7)
    assert a == b
    c = make_flood_wave_scenario(20, 3.0, seed=8)
    assert a != c


def test_station_spacing():
    scenario = make_flood_wave_scenario(12, 2.0, seed=0)
    spacing = np.diff(scenario.station_positions_miles)
    np.testing.assert_allclose(spacing, STATION_SPACING_MILES, rtol=1e-9)
    assert scenario.mean_station_spacing_miles == pytest.approx(0.74, rel=1e-9)


def test_too_few_stations_rejected():
    with pytest.raises(ValueError):
        make_flood_wave_scenario(3, 2.0, seed=0)
    with pytest.raises(ValueError):
        make_flood_wave_scenario(10, 0.5, seed=0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       peak=st.floats(min_value=1.0, max_value=10.0))
def test_hydrograph_never_negative(seed, peak):
    scenario = make_flood_wave_scenario(5, peak, seed=seed)
    assert np.all(scenario.boundaries.upstream_discharge_cfs.values >= 0.0)
    assert np.all(scenario.boundaries.downstream_stage_ft.values > 0.0)


def test_boundary_series_cover_run_window():
    scenario = make_flood_wave_scenario(6, 2.0, seed=5)
    for series in (scenario.boundaries.upstream_discharge_cfs,
                   scenario.boundaries.downstream_stage_ft):
        assert series.t_hours[0] <= 0.0
        assert series.t_hours[-1] >= scenario.t_total_hours


def test_scenario_rejects_station_outside_reach():
    base = make_flood_wave_scenario(5, 2.0, seed=1)
    with pytest.raises(ValueError):
        RiverScenario(
            geometry=base.geometry,
            boundaries=base.boundaries,
            station_positions_miles=(0.0, 1.0, base.geometry.length_miles + 1.0),
            t_total_hours=base.t_total_hours,
            output_dt_hours=base.output_dt_hours,
        )
