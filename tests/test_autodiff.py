"""Network derivatives: the tangent rows (d/dx, d/dt) and the hand-written
weight gradient, against frozen examples, closed forms and FD oracles."""

import dataclasses

import numpy as np
import pytest

import stagecast.training as training
from oracles import fd_gradient
from stagecast.geometry import G_FT_S2, ChannelGeometry
from stagecast.surrogate import (
    DEPTH_FLOOR_FT,
    Dual,
    FourierEncoder,
    NormalizationBox,
    _views,
    init_model,
    physics_duals,
    predict,
    weight_views,
)
from stagecast.training import (
    TrainConfig,
    TrainingDiverged,
    TrainingSet,
    _residuals,
    forward_loss,
    loss_gradient,
    physics_loss,
    train,
)

BOX = NormalizationBox(x_min_miles=0.0, x_max_miles=8.0, t_min_hours=0.0, t_max_hours=30.0)
GEOMETRY = ChannelGeometry(
    length_miles=8.0, width_ft=300.0, bed_slope=2e-4, manning_n=0.03, bed_elevation_upstream_ft=100.0
)


def _model(activation="tanh", seed=1, scale=0.4, **kwargs):
    defaults = dict(n_blocks=2, width=8, m=4, sigma=4.0, activation=activation, seed=seed)
    defaults.update(kwargs)
    model = init_model(BOX, **defaults)
    rng = np.random.default_rng(seed + 100)
    return dataclasses.replace(model, weights=rng.normal(0.0, scale, model.n_weights))


def _batch(rng, n=8):
    return (rng.uniform(0, 8, n), rng.uniform(0, 30, n), rng.uniform(2, 9, n), rng.uniform(-1, 4, n))


def _colloc(rng, n=16):
    return np.column_stack([rng.uniform(0, 8, n), rng.uniform(0, 30, n)])


def _linear_model(w, b):
    """No encoder, no blocks: out = v @ w + b on the unit-square coordinates."""
    model = init_model(BOX, n_blocks=0, width=2, activation="tanh", use_fourier=False)
    views = weight_views(model)
    views["proj.W"][:] = np.eye(2)
    views["head.W"][:] = w
    views["head.b"][:] = b
    return model


# ---------------------------------------------------------------------------
# tangent rows


def test_product_rule_example():
    """r_c = h_t + (h u)_x and r_m = u_t + u u_x + g h_x on exact numbers."""
    h = Dual(np.array([2.0]), np.array([3.0]), np.array([5.0]))
    u = Dual(np.array([7.0]), np.array([11.0]), np.array([13.0]))
    r_c, r_m = _residuals(h, u, None)
    assert r_c[0] == 5.0 + 3.0 * 7.0 + 2.0 * 11.0
    assert r_m[0] == 13.0 + 7.0 * 11.0 + G_FT_S2 * 3.0


def test_sin_example():
    """u = sin(2 pi xhat) through the encoder: u_x = 2 pi cos(2 pi xhat) / L."""
    model = init_model(BOX, n_blocks=0, width=2, m=1, activation="tanh")
    model = dataclasses.replace(model, encoder=FourierEncoder(np.array([[1.0, 0.0]]), 1.0))
    views = weight_views(model)
    views["proj.W"][:] = np.eye(2)  # z = [cos, sin]
    views["head.W"][:] = np.array([[0.0, 0.0], [0.0, 1.0]])  # u = sin
    _, u = physics_duals(model, 0.0, 17.5)
    assert u.value[0] == 0.0
    assert u.dx[0] == pytest.approx(2.0 * np.pi / (8.0 * 5280.0), rel=1e-15)
    assert u.dt[0] == 0.0


def test_constant_function_has_zero_tangents():
    model = _model()
    model = dataclasses.replace(model, weights=np.zeros(model.n_weights))
    h, u = physics_duals(model, np.array([1.0, 4.0]), np.array([2.0, 20.0]))
    np.testing.assert_array_equal(h.value, np.log(2.0) + DEPTH_FLOOR_FT)
    np.testing.assert_array_equal(u.value, 0.0)
    for tangent in (h.dx, h.dt, u.dx, u.dt):
        np.testing.assert_array_equal(tangent, 0.0)


def test_dual_linearity_of_tangents():
    """Doubling the box halves d/dx exactly: tangent rows are linear in their seed."""
    model = _model(seed=4)
    wide = dataclasses.replace(model, norm=dataclasses.replace(BOX, x_max_miles=16.0))
    x, t = np.array([1.0, 3.0, 7.5]), np.array([2.0, 11.0, 29.0])
    h, u = physics_duals(model, x, t)
    h2, u2 = physics_duals(wide, 2.0 * x, t)
    np.testing.assert_array_equal(h2.value, h.value)
    np.testing.assert_array_equal(h2.dx, 0.5 * h.dx)
    np.testing.assert_array_equal(u2.dx, 0.5 * u.dx)
    np.testing.assert_array_equal(u2.dt, u.dt)


def test_dual_quotient_and_chain():
    """h = softplus(a xhat + c) + floor: h_x = sigmoid(a xhat + c) a / (L * 5280)."""
    a, c = 1.75, -0.5
    model = _linear_model(np.array([[a, 0.0], [0.0, 0.0]]), np.array([c, 0.0]))
    x = np.array([0.0, 2.0, 5.0, 8.0])
    h, _ = physics_duals(model, x, np.full(4, 3.0))
    arg = a * (x / 8.0) + c
    np.testing.assert_allclose(h.dx, a / (1.0 + np.exp(-arg)) / (8.0 * 5280.0), rtol=1e-14)
    np.testing.assert_array_equal(h.dt, 0.0)


def test_dual_array_payloads_elementwise():
    """A batch of points gives each point's own tangents (to rounding: the
    gemm shapes differ)."""
    model = _model(seed=6)
    rng = np.random.default_rng(6)
    x, t = rng.uniform(0, 8, 5), rng.uniform(0, 30, 5)
    h, u = physics_duals(model, x, t)
    for i in range(5):
        h1, u1 = physics_duals(model, x[i], t[i])
        for batched, single in zip((*h, *u), (*h1, *u1)):
            assert batched[i] == pytest.approx(single[0], rel=1e-9, abs=1e-15)


def test_forward_dual_matches_central_differences():
    """relu and tanh, with and without the encoder, at random points."""
    rng = np.random.default_rng(42)
    eps = 1e-5  # miles / hours
    for activation in ("relu", "tanh"):
        for use_fourier in (True, False):
            model = _model(activation, seed=8, use_fourier=use_fourier)
            for _ in range(10):
                x0, t0 = rng.uniform(0.5, 7.5), rng.uniform(0.5, 29.5)
                h, u = physics_duals(model, x0, t0)
                px, mx = predict(model, x0 + eps, t0), predict(model, x0 - eps, t0)
                pt, mt = predict(model, x0, t0 + eps), predict(model, x0, t0 - eps)
                for exact, plus, minus, unit in (
                    (h.dx[0], px[0], mx[0], 5280.0), (u.dx[0], px[1], mx[1], 5280.0),
                    (h.dt[0], pt[0], mt[0], 3600.0), (u.dt[0], pt[1], mt[1], 3600.0),
                ):
                    fd = (plus - minus) / (2 * eps * unit)
                    assert abs(fd - exact) <= 1e-5 * (abs(exact) + 1e-9)


# ---------------------------------------------------------------------------
# weight gradient


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_weight_gradients_match_finite_differences(activation):
    """Every loss term: data only, data + physics, and the friction source."""
    rng = np.random.default_rng(2024)
    for lam in (0.0, 0.1):
        for extended in (False, True):
            model = _model(activation, seed=int(rng.integers(1000)))
            batch = _batch(rng)
            colloc = _colloc(rng) if lam > 0 else None
            kwargs = dict(lambda_physics=lam, geometry=GEOMETRY if extended else None)
            g = loss_gradient(forward_loss(model, batch, colloc, **kwargs))

            def f(w):
                return forward_loss(dataclasses.replace(model, weights=w), batch, colloc, **kwargs).total

            fd = fd_gradient(f, model.weights.copy(), eps=1e-6)
            scale = np.maximum(np.abs(fd), 1e-4)
            assert np.max(np.abs(g - fd) / scale) < 1e-5, (lam, extended)


def test_dual_through_tape_composition():
    """The weight gradient of the physics loss alone -- derivatives of the
    input tangents with respect to the weights -- matches FD."""
    rng = np.random.default_rng(12)
    model = _model(seed=12)
    batch, colloc = _batch(rng), _colloc(rng)
    g_data = loss_gradient(forward_loss(model, batch, colloc, lambda_physics=0.0))
    g_total = loss_gradient(forward_loss(model, batch, colloc, lambda_physics=1.0))
    fd = fd_gradient(
        lambda w: physics_loss(dataclasses.replace(model, weights=w), colloc), model.weights.copy()
    )
    scale = np.maximum(np.abs(fd), 1e-4)
    assert np.max(np.abs((g_total - g_data) - fd) / scale) < 1e-5


def test_gradient_linearity():
    rng = np.random.default_rng(3)
    model = _model(seed=3)
    batch, colloc = _batch(rng), _colloc(rng)

    def grad(lam):
        return loss_gradient(forward_loss(model, batch, colloc, lambda_physics=lam))

    lam = 0.625  # exactly representable
    np.testing.assert_allclose(grad(lam), grad(0.0) + lam * (grad(1.0) - grad(0.0)), rtol=0, atol=1e-12)


def test_linear_layer_gradient_closed_form():
    """out = v W + b: dL/dW = (2/n) v^T [(h - h*) sigmoid(out_0), u - u*]."""
    rng = np.random.default_rng(7)
    w, b = rng.normal(size=(2, 2)), rng.normal(size=2)
    model = _linear_model(w, b)
    x, t, h_true, u_true = _batch(rng, 5)
    v = np.column_stack([x / 8.0, t / 30.0])
    out = v @ w + b
    h = np.logaddexp(0.0, out[:, 0]) + DEPTH_FLOOR_FT
    g_out = (2.0 / 5) * np.column_stack([(h - h_true) / (1.0 + np.exp(-out[:, 0])), out[:, 1] - u_true])

    grads = _views(model.manifest, loss_gradient(forward_loss(model, (x, t, h_true, u_true))))
    np.testing.assert_allclose(grads["head.W"], v.T @ g_out, rtol=1e-13)
    np.testing.assert_allclose(grads["head.b"], g_out.sum(axis=0), rtol=1e-13)


def test_square_weight_gradient_example():
    """Zero network, velocity target -3: loss 9 and dL/d(head.b_u) = 6."""
    model = _model()
    model = dataclasses.replace(model, weights=np.zeros(model.n_weights))
    x, t = np.array([1.0, 2.0, 3.0, 4.0]), np.array([1.0, 5.0, 9.0, 13.0])
    lp = forward_loss(model, (x, t, np.full(4, np.log(2.0) + DEPTH_FLOOR_FT), np.full(4, -3.0)))
    assert lp.data_loss == 9.0
    grads = loss_gradient(lp)
    assert grads[-1] == 6.0  # head.b, velocity component
    assert grads[-2] == 0.0  # head.b, depth component


def test_untouched_weight_gets_zero_gradient():
    """A fresh block closes with a zero layer, so its opening layer gets no gradient."""
    model = init_model(BOX, n_blocks=2, width=8, m=4, activation="tanh", seed=0)
    rng = np.random.default_rng(5)
    lp = forward_loss(model, _batch(rng), _colloc(rng), lambda_physics=0.1)
    for name, part in _views(model.manifest, loss_gradient(lp)).items():
        if ".W1" in name or ".b1" in name:
            assert np.all(part == 0.0), name
        else:
            assert np.any(part != 0.0), name


def test_relu_subgradient_at_zero_is_zero_in_both_modes():
    """A pre-activation of exactly 0 passes neither its tangent nor gradient
    under relu; tanh, with slope 1 there, passes both."""
    for activation, blocked in (("relu", True), ("tanh", False)):
        model = init_model(BOX, n_blocks=1, width=2, activation=activation, use_fourier=False)
        views = weight_views(model)
        for name in ("proj.W", "block0.W1", "block0.W2", "head.W"):
            views[name][:] = np.eye(2)  # pre-activations = the coordinates, (0, 0) here
        origin = np.zeros(1)
        lp = forward_loss(model, (origin, origin, np.ones(1), np.ones(1)), np.zeros((1, 2)),
                          lambda_physics=0.1)
        activations = lp.net.inputs[2]  # rows: data, collocation, x tangent, t tangent
        assert np.all(activations[:2] == 0.0)
        assert np.all(activations[2:] == 0.0) == blocked
        grads = _views(model.manifest, loss_gradient(lp))
        assert np.all(grads["block0.W1"] == 0.0) == blocked
        assert np.all(grads["block0.b1"] == 0.0) == blocked


def test_replay_reproduces_values_bitwise():
    """The backward pass leaves the forward rows intact: repeating it, or the
    forward pass, gives the same bits."""
    rng = np.random.default_rng(0)
    model = _model(seed=5)
    batch, colloc = _batch(rng), _colloc(rng)
    lp = forward_loss(model, batch, colloc, lambda_physics=0.1)
    first = loss_gradient(lp)
    np.testing.assert_array_equal(loss_gradient(lp), first)
    again = forward_loss(model, batch, colloc, lambda_physics=0.1)
    assert (again.data_loss, again.physics_loss, again.total) == (lp.data_loss, lp.physics_loss, lp.total)
    np.testing.assert_array_equal(loss_gradient(again), first)


def test_non_finite_loss_aborts_before_backward(monkeypatch):
    """A NaN sample makes the first loss non-finite; no gradient is computed."""
    calls = []
    monkeypatch.setattr(training, "loss_gradient", lambda lp: calls.append(lp))
    rng = np.random.default_rng(1)
    n = 64
    h = np.full(n, 5.0)
    h[::2] = np.nan
    ts = TrainingSet(rng.uniform(0, 8, n), rng.uniform(0, 30, n), h, np.full(n, 1.0), BOX)
    with pytest.raises(TrainingDiverged) as info:
        train(_model(), ts, TrainConfig(lambda_physics=0.1, batch_size=16, max_iterations=3))
    assert info.value.iteration == 0
    assert not np.isfinite(info.value.history[-1].total_loss)
    assert calls == []
