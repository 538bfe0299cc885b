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

Both sweeps run as one fused pass over (2, N) stacks, one row per sweep,
so each step costs one set of array operations rather than two; the
scheme and its bits are those of two separate sweeps.  Boundary values
are interpolated once per step time, friction is plain numpy, and the
per-cell state scan runs only when a cheap reduction flags bad state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .geometry import (
    G_FT_S2,
    HOUR_S,
    MILE_FT,
    RiverScenario,
    friction_slope,
)

__all__ = ["SolverConfig", "FlowField", "SolverError", "solve", "check_mass_balance"]


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
    the bed in feet, ``u`` velocity in ft/s.
    """

    x_miles: np.ndarray
    t_hours: np.ndarray
    h: np.ndarray
    u: np.ndarray
    wall_clock_seconds: float

    def __eq__(self, other):
        if not isinstance(other, FlowField):
            return NotImplemented
        return (
            np.array_equal(self.x_miles, other.x_miles)
            and np.array_equal(self.t_hours, other.t_hours)
            and np.array_equal(self.h, other.h)
            and np.array_equal(self.u, other.u)
            and self.wall_clock_seconds == other.wall_clock_seconds
        )


def _one_sided(f, dx, out, forward_row):
    """Fill the (2, N) stack ``out`` with one-sided differences of ``f``:
    forward in row ``forward_row``, backward in the other row.

    ``f`` is one profile (N,) shared by both rows, or a (2, N) stack with
    one profile per row.  The off-end entry of each row falls back
    one-sided and is always overwritten by a boundary condition afterwards.
    """
    d = (f[..., 1:] - f[..., :-1]) / dx
    rows = (d, d) if d.ndim == 1 else d
    backward_row = 1 - forward_row
    fwd, bwd = rows[forward_row], rows[backward_row]
    out[forward_row, :-1] = fwd
    out[forward_row, -1] = fwd[-1]
    out[backward_row, 1:] = bwd
    out[backward_row, 0] = bwd[0]
    return out


def _check_state(h, u, step, t_s):
    if not (np.all(np.isfinite(h)) and np.all(np.isfinite(u))):
        bad = int(np.argmax(~(np.isfinite(h) & np.isfinite(u))))
        raise SolverError(f"non-finite state at step {step}, cell {bad}, t={t_s:.3f} s")
    if np.any(h <= 0.0):
        bad = int(np.argmax(h <= 0.0))
        raise SolverError(f"non-positive depth at step {step}, cell {bad}, t={t_s:.3f} s")


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
    dt_floor_s=1e-9,
    max_steps=2_000_000,
):
    """Advance (h, u) to ``t_end_s``, reporting each accepted step.

    ``bc_fn(h, u, t)`` fixes the boundary rows of one profile in place;
    ``source_fn(h, u)`` takes one profile or a (2, N) stack of them;
    ``on_interval`` receives (t_prev, t_new, h_prev, u_prev, h_new, u_new)
    after every step so the caller can interpolate output times that the
    step crossed.

    Both MacCormack sweeps run in one pass over (2, N) stacks: row 0
    predicts with forward differences and corrects with backward ones,
    row 1 the reverse.  The step is the average of the two rows.
    """
    n = h.size
    dh, du, dhp, dup = (np.empty((2, n)) for _ in range(4))
    t = 0.0
    step = 0
    while t < t_end_s:
        # cheap reductions first; the per-cell scan runs only to name a bad cell
        if not h.min() > 0.0:
            _check_state(h, u, step, t)
        celerity_max = float((np.abs(u) + np.sqrt(G_FT_S2 * h)).max())
        if not celerity_max < np.inf:
            _check_state(h, u, step, t)
        dt = cfl * dx_ft / celerity_max
        if not np.isfinite(dt) or dt < dt_floor_s:
            raise SolverError(f"CFL collapse: dt={dt!r} s at step {step}, t={t:.3f} s")
        if step >= max_steps:
            raise SolverError(f"exceeded {max_steps} steps at t={t:.3f} s of {t_end_s:.3f} s")
        t_new = t + dt

        _one_sided(h, dx_ft, dh, forward_row=0)
        _one_sided(u, dx_ft, du, forward_row=0)
        hp = h - dt * (u * dh + h * du)
        up = u - dt * (u * du + G_FT_S2 * dh) - dt * source_fn(h, u)
        bc_fn(hp[0], up[0], t_new)
        bc_fn(hp[1], up[1], t_new)

        _one_sided(hp, dx_ft, dhp, forward_row=1)
        _one_sided(up, dx_ft, dup, forward_row=1)
        hn = 0.5 * (h + hp - dt * (up * dhp + hp * dup))
        un = 0.5 * (u + up - dt * (up * dup + G_FT_S2 * dhp) - dt * source_fn(hp, up))
        bc_fn(hn[0], un[0], t_new)
        bc_fn(hn[1], un[1], t_new)

        h_new = 0.5 * (hn[0] + hn[1])
        u_new = 0.5 * (un[0] + un[1])
        bc_fn(h_new, u_new, t_new)

        on_interval(t, t_new, h, u, h_new, u_new)
        h, u = h_new, u_new
        t = t_new
        step += 1
    _check_state(h, u, step, t)
    return h, u


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
    g = G_FT_S2
    length_ft = geom.length_miles * MILE_FT
    x_ft = np.linspace(0.0, length_ft, config.n_cells)
    dx = length_ft / (config.n_cells - 1)
    stations_ft = np.asarray(scenario.station_positions_miles) * MILE_FT

    n_t = int(round(scenario.t_total_hours / scenario.output_dt_hours)) + 1
    t_out_h = scenario.output_dt_hours * np.arange(n_t)
    t_out_h[-1] = min(float(t_out_h[-1]), scenario.t_total_hours)
    t_out_s = t_out_h * HOUR_S

    def source_fn(h, u):
        return g * (friction_slope(geom.width_ft, geom.manning_n, h, u) - geom.bed_slope)

    discharge = bounds.upstream_discharge_cfs
    stage = bounds.downstream_stage_ft
    # RiverScenario guarantees this, so the series are read without range checks
    assert all(
        s.t_hours[0] <= 0.0 and s.t_hours[-1] >= scenario.t_total_hours
        for s in (discharge, stage)
    )
    # every bc_fn call of a step shares one time: interpolate once per time
    cached_t_s = None
    q_up = h_down = 0.0

    def bc_fn(h, u, t_s):
        nonlocal cached_t_s, q_up, h_down
        if t_s != cached_t_s:
            t_h = min(t_s / HOUR_S, scenario.t_total_hours)
            q_up = float(np.interp(t_h, discharge.t_hours, discharge.values))
            h_down = float(np.interp(t_h, stage.t_hours, stage.values))
            cached_t_s = t_s
        h[0] = 2.0 * h[1] - h[2]
        if h[0] <= 0.0:
            raise SolverError(f"upstream depth extrapolated non-positive at t={t_s:.3f} s")
        u[0] = q_up / (geom.width_ft * h[0])
        h[-1] = h_down
        u[-1] = 2.0 * u[-2] - u[-3]

    h = np.full(config.n_cells, bounds.initial_depth_ft, dtype=np.float64)
    u = np.full(config.n_cells, bounds.initial_velocity_fps, dtype=np.float64)
    bc_fn(h, u, 0.0)

    h_out = np.empty((n_t, stations_ft.size))
    u_out = np.empty((n_t, stations_ft.size))
    h_out[0] = np.interp(stations_ft, x_ft, h)
    u_out[0] = np.interp(stations_ft, x_ft, u)
    cursor = 1

    def on_interval(t0, t1, h0, u0, h1, u1):
        nonlocal cursor
        while cursor < n_t and t_out_s[cursor] <= t1 + 1e-9:
            theta = (t_out_s[cursor] - t0) / (t1 - t0)
            h_mid = h0 + theta * (h1 - h0)
            u_mid = u0 + theta * (u1 - u0)
            h_out[cursor] = np.interp(stations_ft, x_ft, h_mid)
            u_out[cursor] = np.interp(stations_ft, x_ft, u_mid)
            cursor += 1

    _run(
        h,
        u,
        dx,
        float(t_out_s[-1]),
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
