"""Explicit MacCormack reference solver for 1-D unsteady channel flow.

The solver advances depth ``h`` and section-averaged velocity ``u`` on a
uniform grid using the non-conservative form of the shallow-water
equations,

    dh/dt + u dh/dx + h du/dx = 0
    du/dt + u du/dx + g dh/dx = g (S0 - Sf)

with Manning friction.  Each step averages the two one-sided MacCormack
sweeps (forward-then-backward and backward-then-forward), which removes
the directional bias of the classic scheme; on symmetric data the update
is symmetric to the last bit.  The time step adapts to the CFL limit.

The state is one (2, N) ``[h; u]`` stack.  Both sweeps run as one fused
pass over ``[variable, sweep, cell]`` stacks, so each step costs one set
of array operations rather than two per variable and sweep; the scheme
and its bits are those of two separate sweeps.  A step costs about the
same at 100 cells as at 400, so its cost is the number of numpy calls,
not the cells: a solve prepares everything a step touches once, and a
step pays for little but the ufuncs themselves.  The work buffers, every
row and window view of them, and every scalar operand (g, dx, 1/4, the
bed slope and the channel width, as read-only 0-d arrays, which a ufunc
takes faster than a Python float) are made once per solve; dt is written
into one 0-d buffer per step, and ufuncs take ``out`` positionally.  The
one-sided differences of h and u come from one subtraction and one
division into a padded buffer whose shifted windows are the forward and
backward differences, and friction is computed into scratch the solve
owns.  The boundary condition does its arithmetic in Python floats and
rewrites the same boundary cells on every call, so it runs on the two
predicted profiles and on the averaged one, not on the corrected sweeps.
Boundary values are interpolated once per step time, and the per-cell
state scan runs only when a cheap reduction flags bad state.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .geometry import (
    G_FT_S2,
    HOUR_S,
    MILE_FT,
    RiverScenario,
    TimeSeries,
    _read_only,
    friction_slope,
)

__all__ = ["SolverConfig", "FlowField", "SolverError", "solve", "check_mass_balance"]

# a ufunc takes a read-only 0-d array operand faster than a Python float
_G = _read_only(G_FT_S2)
_QUARTER = _read_only(0.25)

_DT_FLOOR_S = 1e-9  # a step below this is a CFL collapse
_MAX_STEPS = 2_000_000


class SolverError(RuntimeError):
    """Raised when a run goes physically or numerically bad; the message
    names the step, the grid cell, and the simulated time."""


@dataclass(frozen=True)
class SolverConfig:
    """Numerical knobs for :func:`solve`.

    ``n_cells`` counts grid points along the reach, endpoints included.
    ``cfl`` is the Courant number applied to ``max(|u| + sqrt(g h))``.
    The momentum source always carries Manning friction and the bed slope;
    the step budget and the dt floor are the defaults of the step loop.
    """

    n_cells: int = 400
    cfl: float = 0.9

    def __post_init__(self):
        if self.n_cells < 4:
            raise ValueError("n_cells must be at least 4")
        if not 0 < self.cfl < 1:
            raise ValueError("cfl must be in (0, 1)")


@dataclass
class FlowField:
    """Solver output sampled on the reporting grid.

    ``h`` and ``u`` have shape (n_times, n_stations); ``h`` is depth above
    the bed in feet, ``u`` velocity in ft/s.  Fields are equal when their
    grids and data are, bit for bit, whatever their ``wall_clock_seconds``.
    """

    x_miles: np.ndarray
    t_hours: np.ndarray
    h: np.ndarray
    u: np.ndarray
    wall_clock_seconds: float

    @property
    def points(self) -> np.ndarray:
        """The (x_miles, t_hours) rows of the station-time grid, time-major
        (x varies fastest) as ``h.ravel()``."""
        xx, tt = np.meshgrid(self.x_miles, self.t_hours)
        return np.column_stack((xx.ravel(), tt.ravel()))

    def __eq__(self, other):
        if not isinstance(other, FlowField):
            return NotImplemented
        return (
            np.array_equal(self.x_miles, other.x_miles)
            and np.array_equal(self.t_hours, other.t_hours)
            and np.array_equal(self.h, other.h)
            and np.array_equal(self.u, other.u)
        )


def _check_state(h, u, step, t_s):
    if not (np.all(np.isfinite(h)) and np.all(np.isfinite(u))):
        bad = int(np.argmax(~(np.isfinite(h) & np.isfinite(u))))
        raise SolverError(f"non-finite state at step {step}, cell {bad}, t={t_s:.3f} s")
    if np.any(h <= 0.0):
        bad = int(np.argmax(h <= 0.0))
        raise SolverError(f"non-positive depth at step {step}, cell {bad}, t={t_s:.3f} s")


def _difference_views(f, pad):
    """Views that write the one-sided differences of the (..., N) stack
    ``f`` into ``pad``, shaped (..., N + 1).

    Entry k + 1 of ``pad`` holds (f[k + 1] - f[k]) / dx, and each end entry
    repeats its neighbour.  The window of ``pad`` starting at column 1 is
    then the forward difference of every cell and the window starting at
    column 0 the backward one, each falling back one-sided at its off end.
    """
    n = f.shape[-1]
    # the end columns 0 and n take columns 1 and n - 1
    return f[..., 1:], f[..., :-1], pad[..., 1:n], pad, pad[..., ::n], pad[..., 1 : n : n - 2]


def _differentiate(views, dx):
    ahead, behind, inner, pad, ends, next_to_ends = views
    np.subtract(ahead, behind, inner)
    # the whole pad divides faster than its strided inner part; the end
    # columns are overwritten next
    np.divide(pad, dx, pad)
    ends[...] = next_to_ends


def _run(
    h,
    u,
    dx_ft,
    t_end_s,
    bc_fn,
    on_interval,
    *,
    source_fn,
    cfl,
):
    """Advance (h, u) to ``t_end_s``, reporting each accepted step.

    ``bc_fn(h, u, t)`` fixes the boundary cells of one profile in place.
    On every call it rewrites the same boundary cells, from interior
    cells and ``t`` only; the averaged profile gets the last call of a
    step, so whatever the two sweeps left in those cells is discarded.
    ``source_fn(h, u)`` returns the momentum source of one profile or of a
    (2, N) stack of them, and may reuse its result array from one call to
    the next.  ``on_interval`` receives (t_prev, t_new, h_prev, u_prev,
    h_new, u_new) after every step so the caller can interpolate output
    times that the step crossed; the arrays are work buffers that the next
    step overwrites.  The input profiles are left untouched and the
    returned ones are fresh arrays.

    Both MacCormack sweeps run in one pass over stacks indexed
    ``[variable, sweep, cell]``: sweep 0 predicts with forward differences
    and corrects with backward ones, sweep 1 the reverse, and the step is
    the average of the two.  Everything the loop touches is made here,
    once per solve: the work buffers, every row and window view of them,
    and the scalar operands g, dx and 1/4 as read-only 0-d arrays.  dt is
    written into one 0-d buffer per step.  Each step then only calls
    ufuncs into those buffers, in the operation order of two separate
    sweeps, so the bits are theirs; their two halvings and the average are
    one exact scaling of the sum by 1/4.
    """
    n = h.size
    dt_floor_s, max_steps = _DT_FLOOR_S, _MAX_STEPS
    dx = _read_only(dx_ft)
    cfl_dx = cfl * dx_ft
    dt_now = np.empty(())
    predicted = np.empty((2, 2, n))
    corrected = np.empty((2, 2, n))
    flux = np.empty((2, 2, n))
    flux_work = np.empty((2, 2, n))
    source = np.empty((2, n))
    speed = np.empty(n)
    speed_work = np.empty(n)
    # zeroed, so the end columns divided before their first write hold numbers
    diff_state = np.zeros((2, n + 1))
    diff_predicted = np.zeros((2, 2, n + 1))
    # predictor differences: sweep 0 reads the forward window, sweep 1 the backward one
    d_state = sliding_window_view(diff_state, n, axis=-1)[:, ::-1]
    # corrector differences: sweep s reads the window starting at column s
    s_var, s_sweep, s_cell = diff_predicted.strides
    d_predicted = as_strided(
        diff_predicted, (2, 2, n), (s_var, s_sweep + s_cell, s_cell), writeable=False
    )
    dh_state, du_state = d_state
    dh_predicted, du_predicted = d_predicted
    h_du, g_dh = flux_work
    predicted_diff_views = _difference_views(predicted, diff_predicted)
    hp, up = predicted
    (hp0, hp1), (up0, up1) = hp, up
    source0 = source[0]
    corrected_u = corrected[1]
    corrected0, corrected1 = corrected[:, 0], corrected[:, 1]

    def state_views(stack):
        return stack, stack[0], stack[1], stack[:, None], _difference_views(stack, diff_state)

    # the state [h; u] and its successor swap buffers after every step
    state = np.empty((2, n))
    state[0] = h
    state[1] = u
    current, following = state_views(state), state_views(np.empty((2, n)))
    t = 0.0
    step = 0
    while t < t_end_s:
        _, h, u, state_rows, state_diff_views = current
        # cheap reductions first; the per-cell scan runs only to name a bad cell
        if not np.minimum.reduce(h) > 0.0:
            _check_state(h, u, step, t)
        np.abs(u, speed)
        np.multiply(_G, h, speed_work)
        np.sqrt(speed_work, speed_work)
        np.add(speed, speed_work, speed)
        celerity_max = np.maximum.reduce(speed).item()
        if not celerity_max < math.inf:
            _check_state(h, u, step, t)
        dt = cfl_dx / celerity_max
        if not math.isfinite(dt) or dt < dt_floor_s:
            raise SolverError(f"CFL collapse: dt={dt!r} s at step {step}, t={t:.3f} s")
        if step >= max_steps:
            raise SolverError(f"exceeded {max_steps} steps at t={t:.3f} s of {t_end_s:.3f} s")
        t_new = t + dt
        dt_now[()] = dt

        # predictor: h - dt (u dh + h du), u - dt (u du + g dh) - dt S(h, u)
        _differentiate(state_diff_views, dx)
        np.multiply(u, d_state, flux)
        np.multiply(h, du_state, h_du)
        np.multiply(_G, dh_state, g_dh)
        np.add(flux, flux_work, flux)
        np.multiply(dt_now, flux, flux)
        np.subtract(state_rows, flux, predicted)
        np.multiply(dt_now, source_fn(h, u), source0)
        # row by row: contiguous operands skip the broadcast iterator
        np.subtract(up0, source0, up0)
        np.subtract(up1, source0, up1)
        bc_fn(hp0, up0, t_new)
        bc_fn(hp1, up1, t_new)

        # corrector, before its halving: h + hp - dt (up dhp + hp dup),
        # u + up - dt (up dup + g dhp) - dt S(hp, up)
        _differentiate(predicted_diff_views, dx)
        np.add(state_rows, predicted, corrected)
        np.multiply(up, d_predicted, flux)
        np.multiply(hp, du_predicted, h_du)
        np.multiply(_G, dh_predicted, g_dh)
        np.add(flux, flux_work, flux)
        np.multiply(dt_now, flux, flux)
        np.subtract(corrected, flux, corrected)
        np.multiply(dt_now, source_fn(hp, up), source)
        np.subtract(corrected_u, source, corrected_u)

        # the step is the average of the two halved sweeps: a quarter of their sum
        successor, h_new, u_new, _, _ = following
        np.add(corrected0, corrected1, successor)
        np.multiply(_QUARTER, successor, successor)
        bc_fn(h_new, u_new, t_new)

        on_interval(t, t_new, h, u, h_new, u_new)
        current, following = following, current
        t = t_new
        step += 1
    h, u = current[1:3]
    _check_state(h, u, step, t)
    return h.copy(), u.copy()


def _interpolant(series: TimeSeries):
    """``t -> float(np.interp(t, series.t_hours, series.values))`` for ``t``
    from the first knot on, in Python floats.

    It takes the knot interval and does the arithmetic of numpy's compiled
    loop, to the bit, without the wrapper's array set-up on every call: a
    time on a knot returns that knot's value, and the last knot's value
    holds from there on.
    """
    knots = series.t_hours.tolist()
    values = series.values.tolist()
    last = len(knots) - 1

    def at(t):
        j = bisect_right(knots, t) - 1
        if j == last or knots[j] == t:
            return values[j]
        slope = (values[j + 1] - values[j]) / (knots[j + 1] - knots[j])
        return slope * (t - knots[j]) + values[j]

    return at


def solve(scenario: RiverScenario, config: SolverConfig = SolverConfig()) -> FlowField:
    """Run the scenario and sample the solution at its stations and output times.

    The upstream boundary imposes the discharge series via ``u = Q/(w h)``
    with depth linearly extrapolated from the interior; the downstream
    boundary imposes the stage series with velocity extrapolated.  Station
    and output-time sampling is linear interpolation of the grid solution.
    """
    started = time.perf_counter()
    geom = scenario.geometry
    bounds = scenario.boundaries
    length_ft = geom.length_miles * MILE_FT
    x_ft = np.linspace(0.0, length_ft, config.n_cells)
    dx = length_ft / (config.n_cells - 1)
    stations_ft = np.asarray(scenario.station_positions_miles) * MILE_FT

    # the last output step may be partial: the grid ends at the run length
    n_t = math.ceil(scenario.t_total_hours / scenario.output_dt_hours - 1e-9) + 1
    t_out_h = scenario.output_dt_hours * np.arange(n_t)
    t_out_h[-1] = min(float(t_out_h[-1]), scenario.t_total_hours)
    t_out_s = t_out_h * HOUR_S

    # the reach's operands of the source, made once per solve
    width_ft = geom.width_ft
    manning_n = geom.manning_n
    width = _read_only(width_ft)
    bed_slope = _read_only(geom.bed_slope)
    # friction scratch per profile shape: (N,) in the predictor, (2, N) in the corrector
    scratch = {}

    def source_fn(h, u):
        out = scratch.get(h.shape)
        if out is None:
            out = scratch[h.shape] = tuple(np.empty((2,) + h.shape))
        slope = friction_slope(width, manning_n, h, u, out)
        np.subtract(slope, bed_slope, slope)
        return np.multiply(_G, slope, slope)

    discharge = bounds.upstream_discharge_cfs
    stage = bounds.downstream_stage_ft
    # RiverScenario guarantees this, so the series are read without range checks
    assert all(
        s.t_hours[0] <= 0.0 and s.t_hours[-1] >= scenario.t_total_hours
        for s in (discharge, stage)
    )
    discharge_at = _interpolant(discharge)
    stage_at = _interpolant(stage)
    # every bc_fn call of a step shares one time: interpolate once per time
    cached_t_s = None
    q_up = h_down = 0.0

    def bc_fn(h, u, t_s):
        # Python-float arithmetic, the bits of numpy's scalar arithmetic
        nonlocal cached_t_s, q_up, h_down
        if t_s != cached_t_s:
            t_h = min(t_s / HOUR_S, scenario.t_total_hours)
            q_up = discharge_at(t_h)
            h_down = stage_at(t_h)
            cached_t_s = t_s
        h_up = 2.0 * h.item(1) - h.item(2)
        if h_up <= 0.0:
            raise SolverError(f"upstream depth extrapolated non-positive at t={t_s:.3f} s")
        h[0] = h_up
        u[0] = q_up / (width_ft * h_up)
        h[-1] = h_down
        u[-1] = 2.0 * u.item(-2) - u.item(-3)

    h = np.full(config.n_cells, bounds.initial_depth_ft, dtype=np.float64)
    u = np.full(config.n_cells, bounds.initial_velocity_fps, dtype=np.float64)
    bc_fn(h, u, 0.0)

    h_out = np.empty((n_t, stations_ft.size))
    u_out = np.empty((n_t, stations_ft.size))
    h_out[0] = np.interp(stations_ft, x_ft, h)
    u_out[0] = np.interp(stations_ft, x_ft, u)
    t_out = t_out_s.tolist()
    cursor = 1

    def on_interval(t0, t1, h0, u0, h1, u1):
        nonlocal cursor
        while cursor < n_t and t_out[cursor] <= t1 + 1e-9:
            theta = (t_out[cursor] - t0) / (t1 - t0)
            h_mid = h0 + theta * (h1 - h0)
            u_mid = u0 + theta * (u1 - u0)
            h_out[cursor] = np.interp(stations_ft, x_ft, h_mid)
            u_out[cursor] = np.interp(stations_ft, x_ft, u_mid)
            cursor += 1

    _run(
        h,
        u,
        dx,
        t_out[-1],
        bc_fn,
        on_interval,
        source_fn=source_fn,
        cfl=config.cfl,
    )
    if cursor != n_t:
        raise SolverError(f"run ended with {n_t - cursor} output times unsampled")

    return FlowField(
        x_miles=np.asarray(scenario.station_positions_miles, dtype=np.float64),
        t_hours=t_out_h,
        h=h_out,
        u=u_out,
        wall_clock_seconds=time.perf_counter() - started,
    )


def check_mass_balance(field: FlowField, scenario: RiverScenario) -> float:
    """Relative volume-conservation error of a solved field.

    Compares the storage change ``integral of w*h dx`` between the first
    and last output times against the net boundary influx (trapezoidal
    quadrature of the sampled boundary fluxes), normalized by the total
    inflow volume.  A zero-flux run (still water) falls back to the
    initial storage as the normalizer so the error is still well defined.
    """
    w = scenario.geometry.width_ft
    x_ft = field.x_miles * MILE_FT
    t_s = field.t_hours * HOUR_S
    storage = w * np.trapezoid(field.h, x_ft, axis=1)
    q_in = w * field.u[:, 0] * field.h[:, 0]
    q_out = w * field.u[:, -1] * field.h[:, -1]
    net_influx = np.trapezoid(q_in - q_out, t_s)
    inflow_volume = float(np.trapezoid(q_in, t_s))
    denominator = inflow_volume if inflow_volume > 0.0 else float(storage[0])
    if denominator <= 0.0:
        raise ValueError("need positive inflow volume or initial storage to normalize the balance error")
    return float(abs((storage[-1] - storage[0]) - net_influx) / denominator)
