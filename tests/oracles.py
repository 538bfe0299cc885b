"""Independent reference implementations used only by the tests.

Nothing here shares code with the package under test: the flow solver
below uses the conservative (A, Q) variables and a Lax-Friedrichs flux,
whereas the package solves the non-conservative (h, u) form with a
MacCormack scheme.  Agreement between the two is therefore meaningful
evidence rather than a tautology.

Two sections are exceptions.  The first is a frozen copy of the package's
original MacCormack step loop (two separate sweeps, boundary values
interpolated on every call).  It is a bitwise regression reference for
the fused solver loop, so it keeps the package's own boundary and
friction functions on purpose.  The second is a frozen copy of the
original inference forward pass, the bitwise reference for predictions.
"""

import numpy as np

G = 32.174
MILE_FT = 5280.0
HOUR_S = 3600.0


def manning_sf(width, n, h, u):
    r = width * h / (width + 2.0 * h)
    return n * n * u * np.abs(u) / (2.208 * r ** (4.0 / 3.0))


def lax_friedrichs_solve(scenario, n_cells=200, cfl=0.45):
    """First-order conservative solve of the same scenario.

    Local Lax-Friedrichs (Rusanov) flux on the (A, Q) system.  The global
    LF flux is unusable here: its checkerboard mode sits exactly at
    amplification -1 and the friction source tips it unstable, so the
    interface dissipation uses the local wave speed instead.

    Returns (x_miles_grid, t_hours, h, u) sampled on the scenario's
    stations and output times, like the package solver does.
    """
    geom = scenario.geometry
    bounds = scenario.boundaries
    w = geom.width_ft
    length_ft = geom.length_miles * MILE_FT
    x = np.linspace(0.0, length_ft, n_cells)
    dx = length_ft / (n_cells - 1)
    stations_ft = np.asarray(scenario.station_positions_miles) * MILE_FT

    n_t = int(round(scenario.t_total_hours / scenario.output_dt_hours)) + 1
    t_out_h = scenario.output_dt_hours * np.arange(n_t)
    t_out_s = t_out_h * HOUR_S
    t_end = float(t_out_s[-1])

    def q_up(t_s):
        t_h = min(t_s / HOUR_S, scenario.t_total_hours)
        ts = bounds.upstream_discharge_cfs
        return float(np.interp(t_h, ts.t_hours, ts.values))

    def h_down(t_s):
        t_h = min(t_s / HOUR_S, scenario.t_total_hours)
        ts = bounds.downstream_stage_ft
        return float(np.interp(t_h, ts.t_hours, ts.values))

    a = np.full(n_cells, w * bounds.initial_depth_ft)
    q = a * bounds.initial_velocity_fps

    def apply_bc(a, q, t_s):
        # characteristic (Riemann-invariant) closures for subcritical flow;
        # LF's centered flux needs these to avoid boundary reflections
        h1 = a[1] / w
        u1 = q[1] / a[1]
        r_minus = u1 - 2.0 * np.sqrt(G * h1)  # outgoing invariant at inflow
        q_bc = q_up(t_s)

        def mismatch(h):
            return q_bc / (w * h) - 2.0 * np.sqrt(G * h) - r_minus

        lo, hi = 1e-3, 100.0 * h1
        for _ in range(80):  # bisection: mismatch is monotone decreasing in h
            mid = 0.5 * (lo + hi)
            if mismatch(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        h0 = 0.5 * (lo + hi)
        a[0] = w * h0
        q[0] = q_bc

        h_int = a[-2] / w
        u_int = q[-2] / a[-2]
        r_plus = u_int + 2.0 * np.sqrt(G * h_int)  # outgoing invariant at outflow
        h_bc = h_down(t_s)
        a[-1] = w * h_bc
        q[-1] = w * h_bc * (r_plus - 2.0 * np.sqrt(G * h_bc))

    apply_bc(a, q, 0.0)

    h_out = np.empty((n_t, stations_ft.size))
    u_out = np.empty((n_t, stations_ft.size))
    h_out[0] = np.interp(stations_ft, x, a / w)
    u_out[0] = np.interp(stations_ft, x, q / a)
    cursor = 1

    t = 0.0
    while t < t_end:
        h = a / w
        u = q / a
        if np.any(h <= 0.0) or not np.all(np.isfinite(h)):
            raise RuntimeError(f"oracle lost positivity at t={t:.1f} s")
        c = np.abs(u) + np.sqrt(G * h)
        dt = cfl * dx / float(c.max())
        t_new = t + dt

        # physical fluxes of the conservative system
        f_a = q
        f_q = q * u + 0.5 * G * w * h * h
        # Rusanov interface fluxes with the local wave speed
        s_half = np.maximum(c[:-1], c[1:])
        fa_half = 0.5 * (f_a[:-1] + f_a[1:]) - 0.5 * s_half * (a[1:] - a[:-1])
        fq_half = 0.5 * (f_q[:-1] + f_q[1:]) - 0.5 * s_half * (q[1:] - q[:-1])

        src = G * a * (geom.bed_slope - manning_sf(w, geom.manning_n, h, u))
        a_new = a.copy()
        q_new = q.copy()
        a_new[1:-1] = a[1:-1] - dt / dx * (fa_half[1:] - fa_half[:-1])
        q_new[1:-1] = q[1:-1] - dt / dx * (fq_half[1:] - fq_half[:-1]) + dt * src[1:-1]
        apply_bc(a_new, q_new, t_new)

        while cursor < n_t and t_out_s[cursor] <= t_new + 1e-9:
            theta = (t_out_s[cursor] - t) / dt
            a_mid = a + theta * (a_new - a)
            q_mid = q + theta * (q_new - q)
            h_out[cursor] = np.interp(stations_ft, x, a_mid / w)
            u_out[cursor] = np.interp(stations_ft, x, q_mid / a_mid)
            cursor += 1
        a, q = a_new, q_new
        t = t_new

    if cursor != n_t:
        raise RuntimeError("oracle ended before sampling all output times")
    return np.asarray(scenario.station_positions_miles, float), t_out_h, h_out, u_out


def central_diff(f, x, eps=1e-6):
    """Scalar central finite difference of a scalar function."""
    return (f(x + eps) - f(x - eps)) / (2.0 * eps)


def fd_gradient(f, w, eps=1e-5):
    """Per-component central differences of scalar f at parameter vector w."""
    w = np.asarray(w, dtype=np.float64)
    out = np.empty_like(w)
    for i in range(w.size):
        wp = w.copy()
        wm = w.copy()
        wp[i] += eps
        wm[i] -= eps
        out[i] = (f(wp) - f(wm)) / (2.0 * eps)
    return out


def adam_first_step(w, g, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Closed-form Adam update at step 1 (zero-initialized moments)."""
    w = np.asarray(w, float)
    g = np.asarray(g, float)
    m_hat = g                     # (1-b1)g / (1-b1)
    v_hat = g * g                 # (1-b2)g^2 / (1-b2)
    return w - lr * m_hat / (np.sqrt(v_hat) + eps)


def loop_mse(pred_h, pred_u, h, u):
    """Naive per-sample loop version of the supervised loss."""
    total = 0.0
    n = len(h)
    for i in range(n):
        total += (pred_h[i] - h[i]) ** 2 + (pred_u[i] - u[i]) ** 2
    return total / n


def naive_mrae(pred, truth):
    num = sum(abs(p - t) for p, t in zip(pred, truth))
    den = sum(truth)
    return num / den


# ---------------------------------------------------------------------------
# hand-built equilibrium scenarios


def lake_at_rest_scenario(depth_ft=10.0, length_miles=2.0, width_ft=100.0,
                          t_total_hours=1.6, n_stations=5):
    """Flat channel, still water, zero discharge: nothing should move."""
    from stagecast.geometry import (BoundaryConditions, ChannelGeometry,
                                    RiverScenario, TimeSeries)

    geom = ChannelGeometry(
        length_miles=length_miles,
        width_ft=width_ft,
        bed_slope=0.0,
        manning_n=0.03,
        bed_elevation_upstream_ft=100.0,
    )
    knots = np.array([0.0, t_total_hours])
    bounds = BoundaryConditions(
        initial_depth_ft=depth_ft,
        initial_velocity_fps=0.0,
        upstream_discharge_cfs=TimeSeries(knots, np.zeros(2)),
        downstream_stage_ft=TimeSeries(knots, np.full(2, depth_ft)),
    )
    stations = tuple(np.linspace(0.0, length_miles, n_stations))
    return RiverScenario(
        geometry=geom,
        boundaries=bounds,
        station_positions_miles=stations,
        t_total_hours=t_total_hours,
        output_dt_hours=t_total_hours / 16,
    )


def uniform_flow_scenario(depth_ft=8.0, length_miles=4.0, width_ft=200.0,
                          bed_slope=3e-4, manning_n=0.03,
                          t_total_hours=3.0, n_stations=5):
    """Normal-depth steady flow: S_f = S0 exactly at the initial state."""
    from stagecast.geometry import (BoundaryConditions, ChannelGeometry,
                                    RiverScenario, TimeSeries, manning_discharge)

    geom = ChannelGeometry(
        length_miles=length_miles,
        width_ft=width_ft,
        bed_slope=bed_slope,
        manning_n=manning_n,
        bed_elevation_upstream_ft=250.0,
    )
    q_n = manning_discharge(geom, depth_ft)
    u_n = q_n / (width_ft * depth_ft)
    knots = np.array([0.0, t_total_hours])
    bounds = BoundaryConditions(
        initial_depth_ft=depth_ft,
        initial_velocity_fps=u_n,
        upstream_discharge_cfs=TimeSeries(knots, np.full(2, q_n)),
        downstream_stage_ft=TimeSeries(knots, np.full(2, depth_ft)),
    )
    stations = tuple(np.linspace(0.0, length_miles, n_stations))
    return RiverScenario(
        geometry=geom,
        boundaries=bounds,
        station_positions_miles=stations,
        t_total_hours=t_total_hours,
        output_dt_hours=t_total_hours / 16,
    )


# ---------------------------------------------------------------------------
# frozen two-sweep MacCormack loop (bitwise regression reference)


def _reference_diff(f, dx, forward):
    out = np.empty_like(f)
    if forward:
        out[:-1] = (f[1:] - f[:-1]) / dx
        out[-1] = (f[-1] - f[-2]) / dx
    else:
        out[1:] = (f[1:] - f[:-1]) / dx
        out[0] = (f[1] - f[0]) / dx
    return out


def _reference_check_state(h, u, step, t_s):
    from stagecast import SolverError

    if not (np.all(np.isfinite(h)) and np.all(np.isfinite(u))):
        bad = int(np.argmax(~(np.isfinite(h) & np.isfinite(u))))
        raise SolverError(f"non-finite state at step {step}, cell {bad}, t={t_s:.3f} s")
    if np.any(h <= 0.0):
        bad = int(np.argmax(h <= 0.0))
        raise SolverError(f"non-positive depth at step {step}, cell {bad}, t={t_s:.3f} s")


def _reference_sweep(h, u, dt, dx, g, source_fn, bc_fn, t_new, predictor_forward):
    dh = _reference_diff(h, dx, predictor_forward)
    du = _reference_diff(u, dx, predictor_forward)
    hp = h - dt * (u * dh + h * du)
    up = u - dt * (u * du + g * dh) - dt * source_fn(h, u)
    bc_fn(hp, up, t_new)

    dhp = _reference_diff(hp, dx, not predictor_forward)
    dup = _reference_diff(up, dx, not predictor_forward)
    hn = 0.5 * (h + hp - dt * (up * dhp + hp * dup))
    un = 0.5 * (u + up - dt * (up * dup + g * dhp) - dt * source_fn(hp, up))
    bc_fn(hn, un, t_new)
    return hn, un


def reference_run(h, u, dx_ft, t_end_s, bc_fn, on_interval, *, source_fn, cfl,
                  g=G, dt_floor_s=1e-9, max_steps=2_000_000):
    """The original step loop: the same contract as ``stagecast.solver._run``."""
    from stagecast import SolverError

    t = 0.0
    step = 0
    while t < t_end_s:
        _reference_check_state(h, u, step, t)
        celerity = np.abs(u) + np.sqrt(g * h)
        dt = cfl * dx_ft / float(np.max(celerity))
        if not np.isfinite(dt) or dt < dt_floor_s:
            raise SolverError(f"CFL collapse: dt={dt!r} s at step {step}, t={t:.3f} s")
        if step >= max_steps:
            raise SolverError(f"exceeded {max_steps} steps at t={t:.3f} s of {t_end_s:.3f} s")
        t_new = t + dt

        ha, ua = _reference_sweep(h, u, dt, dx_ft, g, source_fn, bc_fn, t_new, True)
        hb, ub = _reference_sweep(h, u, dt, dx_ft, g, source_fn, bc_fn, t_new, False)
        h_new = 0.5 * (ha + hb)
        u_new = 0.5 * (ua + ub)
        bc_fn(h_new, u_new, t_new)

        on_interval(t, t_new, h, u, h_new, u_new)
        h, u = h_new, u_new
        t = t_new
        step += 1
    _reference_check_state(h, u, step, t)
    return h, u


def reference_solve(scenario, n_cells=400, include_friction=True, include_bed_slope=True,
                    cfl=0.9):
    """The original ``solve()`` around :func:`reference_run`.

    Returns (t_hours, h, u) sampled like ``FlowField``.
    """
    from stagecast import SolverError
    from stagecast.geometry import friction_slope, interpolate_boundary

    geom = scenario.geometry
    bounds = scenario.boundaries
    g = G
    length_ft = geom.length_miles * MILE_FT
    x_ft = np.linspace(0.0, length_ft, n_cells)
    dx = length_ft / (n_cells - 1)
    stations_ft = np.asarray(scenario.station_positions_miles) * MILE_FT

    n_t = int(round(scenario.t_total_hours / scenario.output_dt_hours)) + 1
    t_out_h = scenario.output_dt_hours * np.arange(n_t)
    t_out_h[-1] = min(float(t_out_h[-1]), scenario.t_total_hours)
    t_out_s = t_out_h * HOUR_S

    s0 = geom.bed_slope if include_bed_slope else 0.0
    if include_friction:
        def source_fn(h, u):
            return g * (friction_slope(geom.width_ft, geom.manning_n, h, u) - s0)
    else:
        def source_fn(h, u):
            return g * (np.zeros_like(h) - s0)

    def bc_fn(h, u, t_s):
        t_h = t_s / HOUR_S
        h[0] = 2.0 * h[1] - h[2]
        if h[0] <= 0.0:
            raise SolverError(f"upstream depth extrapolated non-positive at t={t_s:.3f} s")
        q = interpolate_boundary(bounds.upstream_discharge_cfs, min(t_h, scenario.t_total_hours))
        u[0] = q / (geom.width_ft * h[0])
        h[-1] = interpolate_boundary(bounds.downstream_stage_ft, min(t_h, scenario.t_total_hours))
        u[-1] = 2.0 * u[-2] - u[-3]

    h = np.full(n_cells, bounds.initial_depth_ft, dtype=np.float64)
    u = np.full(n_cells, bounds.initial_velocity_fps, dtype=np.float64)
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

    reference_run(h, u, dx, float(t_out_s[-1]), bc_fn, on_interval, source_fn=source_fn,
                  cfl=cfl, g=g)
    if cursor != n_t:
        raise SolverError(f"run ended with {n_t - cursor} output times unsampled")
    return t_out_h, h_out, u_out


# ---------------------------------------------------------------------------
# frozen inference forward pass (bitwise regression reference)


def reference_forward(model, points):
    """The original ``predict_batch``: (N, 2) points -> (h, u).

    Coordinates are clamped into the box and scaled to the unit square,
    then the network runs on zero-padded 64-row blocks, with the original
    operation order: ``(v @ B.T) * 2 pi``, ``[cos, sin]``, ``x @ W + b``,
    ``z + (a @ W2 + b2)``, ``logaddexp(0, .) + floor``.
    """
    block = 64
    box = model.norm
    pts = np.asarray(points, dtype=np.float64)
    x = np.clip(pts[:, 0], box.x_min_miles, box.x_max_miles)
    t = np.clip(pts[:, 1], box.t_min_hours, box.t_max_hours)
    xhat = (x - box.x_min_miles) / (box.x_max_miles - box.x_min_miles)
    that = (t - box.t_min_hours) / (box.t_max_hours - box.t_min_hours)
    v = np.column_stack([xhat, that])

    params = {}
    offset = 0
    for name, shape in model.manifest:
        size = int(np.prod(shape))
        params[name] = model.weights[offset:offset + size].reshape(shape)
        offset += size
    act = (lambda a: np.maximum(a, 0.0)) if model.activation == "relu" else np.tanh

    def forward(rows):
        feats = rows
        if model.encoder is not None:
            arg = (rows @ model.encoder.b_matrix.T) * (2.0 * np.pi)
            feats = np.concatenate((np.cos(arg), np.sin(arg)), axis=-1)
        z = feats @ params["proj.W"] + params["proj.b"]
        for k in range(model.n_blocks):
            a = act(z @ params[f"block{k}.W1"] + params[f"block{k}.b1"])
            z = z + (a @ params[f"block{k}.W2"] + params[f"block{k}.b2"])
        out = z @ params["head.W"] + params["head.b"]
        return np.logaddexp(0.0, out[:, 0]) + 0.01, out[:, 1]

    h_parts, u_parts = [], []
    for start in range(0, v.shape[0], block):
        rows = v[start:start + block]
        n = rows.shape[0]
        padded = np.zeros((block, 2))
        padded[:n] = rows
        h, u = forward(padded)
        h_parts.append(h[:n])
        u_parts.append(u[:n])
    return np.concatenate(h_parts), np.concatenate(u_parts)
