"""Channel geometry, boundary forcing, and synthetic river scenarios.

Everything downstream of this module works in US customary units: feet for
depth and width, river miles for along-channel position, hours for clock
time, cubic feet per second for discharge.  A scenario is a rectangular
prismatic channel with a constant bed slope, a prescribed upstream
discharge hydrograph, a prescribed downstream stage series, and a set of
reporting stations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "G_FT_S2",
    "MILE_FT",
    "HOUR_S",
    "MANNING_K",
    "STATION_SPACING_MILES",
    "TimeSeries",
    "ChannelGeometry",
    "BoundaryConditions",
    "RiverScenario",
    "make_flood_wave_scenario",
    "bed_elevation_at",
    "hydraulic_radius",
    "friction_slope",
    "manning_discharge",
    "normal_depth",
]

G_FT_S2 = 32.174  # gravitational acceleration, ft/s^2
MILE_FT = 5280.0
HOUR_S = 3600.0
MANNING_K = 1.486  # US-unit Manning coefficient; 1.486^2 = 2.208...
STATION_SPACING_MILES = 0.74  # gauge spacing used by the synthetic scenarios


def _read_only(values) -> np.ndarray:
    """A float64 copy of ``values`` that no caller can write into."""
    arr = np.array(values, dtype=np.float64)
    arr.setflags(write=False)
    return arr


def _frozen_array(values, name: str) -> np.ndarray:
    arr = _read_only(values)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return arr


# friction_slope's constant operands: a ufunc takes a read-only 0-d array
# operand faster than a Python float, with the same bits
_TWO = _read_only(2.0)
_FOUR_THIRDS = _read_only(4.0 / 3.0)
_MANNING_K_SQUARED = _read_only(MANNING_K**2)


@dataclass(frozen=True)
class TimeSeries:
    """A piecewise-linear time series of boundary forcing.

    Parameters
    ----------
    t_hours:
        Knot times in hours, strictly increasing.
    values:
        Knot values, same length as ``t_hours``.
    """

    t_hours: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t_hours", _frozen_array(self.t_hours, "t_hours"))
        object.__setattr__(self, "values", _frozen_array(self.values, "values"))
        if self.t_hours.size != self.values.size:
            raise ValueError("time series knots and values differ in length")
        if self.t_hours.size < 2:
            raise ValueError("time series needs at least two knots")
        if not np.all(np.diff(self.t_hours) > 0):
            raise ValueError("time series knots must be strictly increasing")
        if not np.all(np.isfinite(self.t_hours) & np.isfinite(self.values)):
            raise ValueError("time series knots and values must be finite")

    def __eq__(self, other):
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return np.array_equal(self.t_hours, other.t_hours) and np.array_equal(
            self.values, other.values
        )


@dataclass(frozen=True)
class ChannelGeometry:
    """A prismatic rectangular channel reach.

    Parameters
    ----------
    length_miles:
        Reach length in river miles.
    width_ft:
        Constant channel width in feet.
    bed_slope:
        Bed slope S0 (dimensionless drop per foot run), positive downhill.
    manning_n:
        Manning roughness coefficient (US units).
    bed_elevation_upstream_ft:
        Bed elevation at river mile 0.
    """

    length_miles: float
    width_ft: float
    bed_slope: float
    manning_n: float
    bed_elevation_upstream_ft: float

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not 0 < self.length_miles < math.inf:
            raise ValueError("length_miles must be positive and finite")
        if not 0 < self.width_ft < math.inf:
            raise ValueError("width_ft must be positive and finite")
        if not 0 <= self.bed_slope < math.inf:
            raise ValueError("bed_slope must be non-negative and finite")
        if not 0 < self.manning_n < math.inf:
            raise ValueError("manning_n must be positive and finite")
        if not math.isfinite(self.bed_elevation_upstream_ft):
            raise ValueError("bed_elevation_upstream_ft must be finite")


@dataclass(frozen=True)
class BoundaryConditions:
    """Initial state and boundary forcing for one run.

    ``upstream_discharge_cfs`` prescribes Q at the upstream end;
    ``downstream_stage_ft`` prescribes depth above bed at the downstream
    end.  The initial state is uniform along the reach.
    """

    initial_depth_ft: float
    initial_velocity_fps: float
    upstream_discharge_cfs: TimeSeries
    downstream_stage_ft: TimeSeries

    def __post_init__(self):
        if not 0 < self.initial_depth_ft < math.inf:
            raise ValueError("initial_depth_ft must be positive and finite")
        if not math.isfinite(self.initial_velocity_fps):
            raise ValueError("initial_velocity_fps must be finite")


@dataclass(frozen=True)
class RiverScenario:
    """A complete, solvable description of one river reach and event."""

    geometry: ChannelGeometry
    boundaries: BoundaryConditions
    station_positions_miles: tuple[float, ...]
    t_total_hours: float
    output_dt_hours: float

    def __post_init__(self):
        stations = tuple(float(x) for x in self.station_positions_miles)
        object.__setattr__(self, "station_positions_miles", stations)
        if len(stations) < 2:
            raise ValueError("need at least two stations")
        # as in ChannelGeometry, NaN fails every check
        if not all(b > a for a, b in zip(stations, stations[1:])):
            raise ValueError("stations must be strictly increasing")
        if not (stations[0] >= 0 and stations[-1] <= self.geometry.length_miles * (1 + 1e-12)):
            raise ValueError("stations must lie within the reach")
        if not (self.t_total_hours > 0 and self.output_dt_hours > 0):
            raise ValueError("t_total_hours and output_dt_hours must be positive")
        if not self.output_dt_hours <= self.t_total_hours:
            raise ValueError("output_dt_hours exceeds the run length")
        for name in ("upstream_discharge_cfs", "downstream_stage_ft"):
            series: TimeSeries = getattr(self.boundaries, name)
            if series.t_hours[0] > 0.0 or series.t_hours[-1] < self.t_total_hours:
                raise ValueError(f"{name} must cover [0, t_total_hours]")

    def output_times_hours(self) -> np.ndarray:
        """The output times of a solve: every ``output_dt_hours``, ending at the run length."""
        n_t = math.ceil(self.t_total_hours / self.output_dt_hours - 1e-9) + 1
        return np.minimum(self.output_dt_hours * np.arange(n_t), self.t_total_hours)


def bed_elevation_at(geometry: ChannelGeometry, x_miles):
    """Bed elevation (ft) at river mile ``x_miles``; slope drops downstream."""
    return geometry.bed_elevation_upstream_ft - geometry.bed_slope * np.asarray(x_miles) * MILE_FT


def hydraulic_radius(width_ft: float, depth):
    """R = w*h / (w + 2h) for a rectangular section."""
    return (depth * width_ft) / (depth * 2.0 + width_ft)


def friction_slope(width_ft, manning_n: float, depth, velocity, out=None):
    """Manning friction slope S_f = n^2 u|u| / (2.208 R^(4/3)), US units.

    Scalar and array ``depth`` and ``velocity`` both work.  ``out`` is
    optional scratch the caller owns: a pair of float arrays (or one
    array of shape ``(2,) + shape``).  The slope is written into
    ``out[0]`` and returned, and ``out[1]`` holds intermediates, so the
    call allocates nothing; without ``out`` each operation allocates its
    result.  The constants 2, 4/3 and K^2 enter as read-only 0-d arrays
    of this module, which a ufunc takes faster than a Python float, with
    the same bits; a caller that evaluates one reach many times may pass
    ``width_ft`` as one too.  n^2 is squared here in Python, as the
    scalar callers square it.
    """
    slope, work = (None, None) if out is None else out
    # R = w h / (2 h + w), as hydraulic_radius, which stays plain Python
    # arithmetic for the scalar callers
    radius = np.add(np.multiply(depth, _TWO, work), width_ft, work)
    radius = np.divide(np.multiply(depth, width_ft, slope), radius, slope)
    denominator = np.multiply(_MANNING_K_SQUARED, np.power(radius, _FOUR_THIRDS, slope), slope)
    numerator = np.multiply(velocity, np.abs(velocity, work), work)
    numerator = np.multiply(manning_n**2, numerator, work)
    return np.divide(numerator, denominator, slope)


def manning_discharge(geometry: ChannelGeometry, depth: float) -> float:
    """Steady uniform-flow discharge (cfs) at the given depth."""
    if geometry.bed_slope <= 0:
        raise ValueError("uniform flow requires a positive bed slope")
    area = geometry.width_ft * depth
    r = hydraulic_radius(geometry.width_ft, depth)
    return (MANNING_K / geometry.manning_n) * area * r ** (2.0 / 3.0) * math.sqrt(geometry.bed_slope)


def normal_depth(geometry: ChannelGeometry, discharge_cfs: float) -> float:
    """Depth at which Manning uniform flow carries ``discharge_cfs``.

    Solved by bisection to machine precision; monotonicity of the Manning
    relation in depth makes the bracket safe.
    """
    if discharge_cfs <= 0:
        raise ValueError("normal depth is defined for positive discharge")
    lo, hi = 1e-9, 1e5
    if manning_discharge(geometry, hi) < discharge_cfs:
        raise ValueError("discharge out of range for this channel")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if manning_discharge(geometry, mid) < discharge_cfs:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    return 0.5 * (lo + hi)


def _gaussian_pulse(t, baseflow: float, peak_factor: float, center_h: float, sigma_h: float):
    z = (np.asarray(t, dtype=np.float64) - center_h) / sigma_h
    return baseflow * (1.0 + (peak_factor - 1.0) * np.exp(-0.5 * z * z))


def make_flood_wave_scenario(
    n_stations: int,
    peak_factor: float,
    seed: int = 0,
    *,
    pulse_center_hours: float = 12.0,
    pulse_sigma_hours: float = 2.0,
    t_total_hours: float = 48.0,
    output_dt_hours: float = 0.25,
) -> RiverScenario:
    """Build a synthetic single-pulse flood scenario.

    The reach is one fixed synthetic channel: 300 ft wide, bed slope
    2e-4, Manning n 0.03, bed at 100 ft at river mile 0.  Stations sit
    exactly ``STATION_SPACING_MILES`` apart starting at river mile 0, so
    the reach length is ``0.74 * (n_stations - 1)`` miles.  The upstream
    hydrograph is a baseflow of 20,000 cfs plus one smooth Gaussian pulse
    whose maximum is ``peak_factor * baseflow`` at the pulse center.  The
    downstream stage is the normal-depth rating of the hydrograph delayed
    by the kinematic travel time of the reach, so the downstream boundary
    responds after the upstream peak the way a real gauge would.  The run
    starts from steady uniform flow at baseflow.

    A fixed ``seed`` yields a bitwise-identical scenario; the seed jitters
    baseflow, pulse center, and pulse width by up to +/-10 %.
    """
    if n_stations < 4:
        raise ValueError("need at least 4 stations for a usable reach")
    if not 1.0 <= peak_factor < math.inf:
        raise ValueError("peak_factor must be finite and at least 1 (below 1 inverts the pulse)")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if not math.isfinite(pulse_center_hours):
        raise ValueError("pulse_center_hours must be finite")
    if not 0.0 < pulse_sigma_hours < math.inf:
        raise ValueError("pulse_sigma_hours must be finite and positive")

    rng = np.random.default_rng(seed)
    baseflow = 20_000.0 * rng.uniform(0.9, 1.1)
    center = pulse_center_hours * rng.uniform(0.9, 1.1)
    sigma = pulse_sigma_hours * rng.uniform(0.9, 1.1)

    stations = tuple(STATION_SPACING_MILES * k for k in range(n_stations))
    geometry = ChannelGeometry(
        length_miles=stations[-1],
        width_ft=300.0,
        bed_slope=2.0e-4,
        manning_n=0.03,
        bed_elevation_upstream_ft=100.0,
    )

    # boundary knots: a uniform 3-minute grid, with the pulse center inserted
    # so the advertised peak value sits exactly on a knot
    knots = np.arange(0.0, t_total_hours + 1e-9, 0.05)
    knots[-1] = t_total_hours
    knots = np.unique(np.concatenate([knots, [center]]))
    hydrograph = TimeSeries(knots, _gaussian_pulse(knots, baseflow, peak_factor, center, sigma))

    depth0 = normal_depth(geometry, baseflow)
    velocity0 = baseflow / (geometry.width_ft * depth0)
    # kinematic wave celerity ~ (5/3) u; delay the downstream rating by one
    # reach travel time so the outlet stage lags the inflow peak
    travel_h = geometry.length_miles * MILE_FT / ((5.0 / 3.0) * velocity0) / HOUR_S
    q_delayed = _gaussian_pulse(knots - travel_h, baseflow, peak_factor, center, sigma)
    stage = TimeSeries(knots, np.array([normal_depth(geometry, q) for q in q_delayed]))

    boundaries = BoundaryConditions(
        initial_depth_ft=depth0,
        initial_velocity_fps=velocity0,
        upstream_discharge_cfs=hydrograph,
        downstream_stage_ft=stage,
    )
    return RiverScenario(
        geometry=geometry,
        boundaries=boundaries,
        station_positions_miles=stations,
        t_total_hours=t_total_hours,
        output_dt_hours=output_dt_hours,
    )
