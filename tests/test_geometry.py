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
    hydraulic_radius,
    make_flood_wave_scenario,
    manning_discharge,
    normal_depth,
)


def _series(pairs):
    t, v = zip(*pairs)
    return TimeSeries(np.asarray(t, float), np.asarray(v, float))


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


def test_too_few_stations_rejected():
    with pytest.raises(ValueError):
        make_flood_wave_scenario(3, 2.0, seed=0)
    with pytest.raises(ValueError):
        make_flood_wave_scenario(10, 0.5, seed=0)


@pytest.mark.parametrize("key, value", [
    ("pulse_sigma_hours", 0.0), ("pulse_sigma_hours", -2.0), ("pulse_sigma_hours", np.inf),
    ("pulse_center_hours", np.nan), ("pulse_center_hours", -np.inf),
])
def test_flood_wave_rejects_a_bad_pulse_by_key(key, value):
    """Each pulse parameter is checked before it is drawn on; the message
    starts with its key."""
    with pytest.raises(ValueError, match=f"^{key} must be "):
        make_flood_wave_scenario(5, 3.0, **{key: value})


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


def test_friction_slope_into_caller_scratch_is_the_same_bits():
    rng = np.random.default_rng(7)
    depth = rng.uniform(0.5, 30.0, (2, 50))
    velocity = rng.uniform(-6.0, 6.0, (2, 50))
    out = np.empty((2, 2, 50))
    slope = friction_slope(300.0, 0.03, depth, velocity, out=out)
    assert np.shares_memory(slope, out[0])
    assert np.array_equal(slope, friction_slope(300.0, 0.03, depth, velocity))
    # the formula as written before the scratch form: same operations, same order
    r = (depth * 300.0) / (depth * 2.0 + 300.0)
    expected = (0.03**2 * (velocity * np.abs(velocity))) / (MANNING_K**2 * r ** (4.0 / 3.0))
    assert np.array_equal(slope, expected)


_GEOMETRY = dict(
    length_miles=2.0, width_ft=100.0, bed_slope=1e-4, manning_n=0.03,
    bed_elevation_upstream_ft=0.0,
)


@pytest.mark.parametrize("field", ["length_miles", "width_ft", "bed_slope", "manning_n"])
def test_channel_geometry_rejects_nan(field):
    with pytest.raises(ValueError, match=field):
        ChannelGeometry(**{**_GEOMETRY, field: float("nan")})


def _boundaries_with_depth(depth):
    b = make_flood_wave_scenario(5, 2.0, seed=1, t_total_hours=2.0).boundaries
    return BoundaryConditions(depth, b.initial_velocity_fps, b.upstream_discharge_cfs,
                              b.downstream_stage_ft)


@pytest.mark.parametrize("key, build", [
    *[pytest.param(field, lambda field=field: ChannelGeometry(**{**_GEOMETRY, field: np.inf}),
                   id=f"{field}-inf")
      for field in ("length_miles", "width_ft", "bed_slope", "manning_n")],
    *[pytest.param("bed_elevation_upstream_ft",
                   lambda value=value: ChannelGeometry(
                       **{**_GEOMETRY, "bed_elevation_upstream_ft": value}),
                   id=f"bed_elevation_upstream_ft-{value}")
      for value in (np.nan, np.inf, -np.inf)],
    pytest.param("initial_depth_ft", lambda: _boundaries_with_depth(np.inf),
                 id="initial_depth_ft-inf"),
])
def test_geometry_and_initial_state_reject_non_finite_numbers(key, build):
    """Each message starts with its key, which the scenario reader names."""
    with pytest.raises(ValueError, match=f"^{key} must be .*finite"):
        build()


def test_scenario_checks_reject_nan():
    base = make_flood_wave_scenario(5, 2.0, seed=1, t_total_hours=2.0)
    nan = float("nan")
    b = base.boundaries
    with pytest.raises(ValueError, match="initial_depth_ft"):
        BoundaryConditions(nan, b.initial_velocity_fps, b.upstream_discharge_cfs,
                           b.downstream_stage_ft)
    with pytest.raises(ValueError, match="initial_velocity_fps"):
        BoundaryConditions(b.initial_depth_ft, nan, b.upstream_discharge_cfs,
                           b.downstream_stage_ft)
    with pytest.raises(ValueError, match="finite"):
        _series([(0.0, 1.0), (1.0, nan)])
    for t_total, dt_out, stations in [
        (nan, 0.25, base.station_positions_miles),
        (2.0, nan, base.station_positions_miles),
        (2.0, 0.25, (0.0, nan, 1.0)),
    ]:
        with pytest.raises(ValueError):
            RiverScenario(base.geometry, b, stations, t_total, dt_out)


def test_runtime_warning_in_geometry_fails_the_suite():
    """The suite turns RuntimeWarnings from every stagecast module into
    errors, geometry's included: friction runs inside every solver step."""
    with pytest.raises(RuntimeWarning, match="invalid value"):
        friction_slope(100.0, 0.03, np.array([-1.0]), np.array([1.0]))
