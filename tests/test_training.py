"""Losses, Adam, and the hybrid training loop."""

import dataclasses
import warnings

import numpy as np
import pytest

from oracles import adam_first_step, loop_mse, reference_adam_step, reference_train
from stagecast.geometry import G_FT_S2
from stagecast.surrogate import (
    Dual,
    NormalizationBox,
    init_model,
    physics_duals,
    predict,
    predict_batch,
)
from stagecast.training import (
    AdamState,
    TrainConfig,
    TrainingDiverged,
    TrainingSet,
    adam_step,
    build_training_set,
    data_loss,
    forward_loss,
    init_adam,
    loss_gradient,
    physics_loss,
    train,
)

BOX = NormalizationBox(x_min_miles=0.0, x_max_miles=8.0, t_min_hours=0.0, t_max_hours=30.0)


def _model(seed=0, **kwargs):
    defaults = dict(n_blocks=2, width=16, m=8, sigma=4.0, activation="tanh", seed=seed)
    defaults.update(kwargs)
    return init_model(BOX, **defaults)


def _constant_training_set(n=512, h=5.0, u=1.0):
    rng = np.random.default_rng(7)
    x = rng.uniform(BOX.x_min_miles, BOX.x_max_miles, n)
    t = rng.uniform(BOX.t_min_hours, BOX.t_max_hours, n)
    points = np.column_stack((x, t))
    return TrainingSet(points=points, h_ft=np.full(n, h), u_fps=np.full(n, u), norm=BOX)


# ---------------------------------------------------------------------------
# losses


def _internal_prediction(model, x, t):
    """The (h, u) values data_loss sees for a raw batch, bit for bit."""
    from stagecast.surrogate import _features, _forward, _normalize, _Workspace

    net = _Workspace(model, len(x))
    _features(model, _normalize(model, np.column_stack((x, t)), clamp=False), net.x)
    _forward(net)
    return net.h, net.u


def test_data_loss_zero_when_targets_match():
    model = _model()
    x, t = np.array([3.0]), np.array([12.0])
    h_hat, u_hat = _internal_prediction(model, x, t)
    assert data_loss(model, (x, t, h_hat, u_hat)) == 0.0


def test_data_loss_single_sample_unit_error():
    """One sample whose stage is off by exactly 1 ft scores exactly 1."""
    model = _model()
    x, t = np.array([3.0]), np.array([12.0])
    h_hat, u_hat = _internal_prediction(model, x, t)
    assert 0.5 <= h_hat[0] <= 2.0  # keeps the subtraction below exact
    batch = (x, t, h_hat - 1.0, u_hat)
    assert data_loss(model, batch) == 1.0


def test_data_loss_matches_loop_oracle():
    model = _model(seed=3)
    rng = np.random.default_rng(11)
    n = 37
    x = rng.uniform(0, 8, n)
    t = rng.uniform(0, 30, n)
    h_true = rng.uniform(2, 12, n)
    u_true = rng.uniform(-1, 4, n)

    pred_h, pred_u = predict_batch(model, np.column_stack([x, t]))
    expected = loop_mse(pred_h, pred_u, h_true, u_true)
    got = data_loss(model, (x, t, h_true, u_true))
    assert got == pytest.approx(expected, rel=1e-12)


class _MockField:
    """Closed-form (h, u) field exposing the dual interface the residual needs."""

    def __init__(self, h_fn, u_fn):
        self._h = h_fn
        self._u = u_fn

    def physics_duals(self, x_miles, t_hours):
        return self._h(np.asarray(x_miles), np.asarray(t_hours)), self._u(
            np.asarray(x_miles), np.asarray(t_hours)
        )


def test_physics_loss_zero_for_still_water():
    """Constant depth, zero velocity satisfies both equations identically."""
    zeros = lambda x: np.zeros_like(x)
    field = _MockField(
        h_fn=lambda x, t: Dual(np.full_like(x, 4.0), zeros(x), zeros(x)),
        u_fn=lambda x, t: Dual(zeros(x), zeros(x), zeros(x)),
    )
    pts = np.column_stack([np.linspace(0, 8, 50), np.linspace(0, 30, 50)])
    assert physics_loss(field, pts) == 0.0


def test_physics_loss_known_residual():
    """h = 1 ft, u = x ft/s: continuity residual is exactly 1 everywhere and
    the momentum residual vanishes on the x = 0 line, so the loss is 1."""
    field = _MockField(
        h_fn=lambda x, t: Dual(np.ones_like(x), np.zeros_like(x), np.zeros_like(x)),
        u_fn=lambda x, t: Dual(x * 5280.0, np.ones_like(x), np.zeros_like(x)),
    )
    pts = np.column_stack([np.zeros(8), np.linspace(0, 30, 8)])
    assert physics_loss(field, pts) == 1.0


def test_physics_loss_momentum_gravity_term():
    """Tilted steady surface: only g * dh/dx survives."""
    slope = 1e-3
    field = _MockField(
        h_fn=lambda x, t: Dual(np.full_like(x, 6.0), np.full_like(x, slope), np.zeros_like(x)),
        u_fn=lambda x, t: Dual(np.zeros_like(x), np.zeros_like(x), np.zeros_like(x)),
    )
    pts = np.column_stack([np.linspace(0, 8, 16), np.linspace(0, 30, 16)])
    assert physics_loss(field, pts) == pytest.approx((G_FT_S2 * slope) ** 2, rel=1e-14)


def test_physics_loss_rejects_bad_points():
    field = _MockField(
        h_fn=lambda x, t: Dual(np.ones_like(x), np.zeros_like(x), np.zeros_like(x)),
        u_fn=lambda x, t: Dual(np.zeros_like(x), np.zeros_like(x), np.zeros_like(x)),
    )
    with pytest.raises(ValueError):
        physics_loss(field, np.zeros((4, 3)))


def test_total_loss_combination():
    """The total is L_data + lambda * L_physics, with each part as the
    stand-alone losses compute it."""
    model = _model(seed=5)
    rng = np.random.default_rng(5)
    batch = tuple(rng.uniform(lo, hi, 16) for lo, hi in ((0, 8), (0, 30), (2, 9), (-1, 4)))
    colloc = np.column_stack([rng.uniform(0, 8, 64), rng.uniform(0, 30, 64)])
    for lam in (0.0, 0.1, 1.0):
        lp = forward_loss(model, batch, colloc, lambda_physics=lam)
        assert lp.total == lp.data_loss + lam * lp.physics_loss
        assert lp.data_loss == pytest.approx(data_loss(model, batch), rel=1e-12)
        assert lp.physics_loss == pytest.approx(physics_loss(model, colloc), rel=1e-12)


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_gradient_is_noop():
    w = np.array([1.0, -2.0, 3.5])
    state = init_adam(3)
    adam_step(w, np.zeros(3), state, lr=0.1)
    np.testing.assert_array_equal(w, [1.0, -2.0, 3.5])
    assert state.step == 1


def test_adam_first_step_closed_form():
    rng = np.random.default_rng(9)
    w = rng.normal(size=20)
    g = rng.normal(size=20)
    expected = adam_first_step(w, g, 1e-3)
    adam_step(w, g, init_adam(20), lr=1e-3)
    np.testing.assert_allclose(w, expected, rtol=1e-12)


def test_adam_matches_frozen_reference_bitwise():
    """60 steps with a decaying learning rate and gradients across six decades
    give the bits of the original one-array-per-term update, written into
    the weights and moments it is given."""
    rng = np.random.default_rng(21)
    n = 2000
    w = rng.normal(size=n)
    w_ref = w.copy()
    state = init_adam(n)
    m_ref, v_ref, step_ref = np.zeros(n), np.zeros(n), 0
    for i in range(60):
        g = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
        lr = 1e-2 * 0.5 ** (i / 7)
        g_copy = g.copy()
        adam_step(w, g, state, lr)
        assert np.array_equal(g, g_copy)  # the gradient is left alone
        w_ref, m_ref, v_ref, step_ref = reference_adam_step(w_ref, g, m_ref, v_ref, step_ref, lr)
        assert np.array_equal(w, w_ref)
        assert np.array_equal(state.m, m_ref) and np.array_equal(state.v, v_ref)
        assert state.step == step_ref


def test_adam_descends_quadratic():
    w = np.array([5.0, -3.0])
    state = init_adam(2)
    for _ in range(2000):
        adam_step(w, 2.0 * w, state, lr=0.05)
    assert np.all(np.abs(w) < 1e-3)


@pytest.mark.parametrize("bad_value", [np.nan, np.inf, 2e154], ids=["nan", "inf", "2e154"])
def test_a_bad_gradient_diverges_naming_its_parameter(monkeypatch, bad_value):
    """A NaN or inf component, or one whose square overflows Adam's second
    moment, ends training as a divergence that names the parameter holding
    it, without a RuntimeWarning."""
    import stagecast.training as training

    model = _model()
    first, second = model.manifest[0], model.manifest[1]
    bad = int(np.prod(first[1])) + 1  # second component of the second parameter

    def poisoned_loss_gradient(lp):
        grads = loss_gradient(lp)
        grads[bad] = bad_value
        return grads

    monkeypatch.setattr(training, "loss_gradient", poisoned_loss_gradient)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = rf"parameter {second[0]!r} at iteration 1"
        with pytest.raises(TrainingDiverged, match=expected) as info:
            train(model, _constant_training_set(), TrainConfig(max_iterations=3, batch_size=32))
    assert str(info.value).endswith(f"at iteration {info.value.history[-1].iteration}")
    assert [row.iteration for row in info.value.history] == [1]


def test_adam_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        adam_step(np.zeros(5), np.zeros(4), init_adam(5), lr=1e-3)


def test_adam_updates_the_state_it_is_given():
    """adam_step returns nothing: the weights, the moments and the step it
    was given are the ones that move."""
    w = np.array([1.0, -2.0])
    state = init_adam(2)
    m, v, scratch = state.m, state.v, state.scratch
    for step in (1, 2):
        assert adam_step(w, np.array([0.5, 0.25]), state, lr=0.1) is None
        assert state.step == step
        assert state.m is m and state.v is v and state.scratch is scratch
    assert m.all() and v.all() and w[0] < 1.0 and w[1] < -2.0


def test_every_pass_of_a_run_reads_the_weights_adam_writes(monkeypatch):
    """The training pass and the validation pass are built from the one
    model whose weights adam_step updates, not from the caller's."""
    import stagecast.training as training

    read, written = [], []
    loss_pass, step = training._loss_pass, training.adam_step

    def recorded_loss_pass(net, *args):
        read.append(net.model.weights)
        return loss_pass(net, *args)

    def recorded_step(weights, *args):
        written.append(weights)
        return step(weights, *args)

    monkeypatch.setattr(training, "_loss_pass", recorded_loss_pass)
    monkeypatch.setattr(training, "adam_step", recorded_step)
    model = _model()
    config = TrainConfig(max_iterations=3, batch_size=16, collocation_per_batch=8, record_every=1)
    train(model, _constant_training_set(), config)
    assert len(read) == 6 and len(written) == 3  # a training and a validation pass per step
    assert all(w is written[0] for w in read + written) and written[0] is not model.weights


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lambda_physics=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(lr_decay_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(lr_decay_rate=1.5)
    with pytest.raises(ValueError):
        TrainConfig(max_iterations=-1)
    with pytest.raises(ValueError):
        TrainConfig(record_every=0)
    with pytest.raises(ValueError):
        TrainConfig(collocation_per_batch=0)
    with pytest.raises(ValueError):
        TrainConfig(lr_initial=-1.0)
    for value in (np.nan, np.inf):  # nan passes a < 0 check and would train as supervised
        with pytest.raises(ValueError, match="lambda_physics must be finite"):
            TrainConfig(lambda_physics=value)
        with pytest.raises(ValueError, match="lr_initial must be finite"):
            TrainConfig(lr_initial=value)


def test_collocation_count_defaults_to_batch_size():
    assert TrainConfig(batch_size=256).collocation_count == 256
    assert TrainConfig(batch_size=256, collocation_per_batch=64).collocation_count == 64


# ---------------------------------------------------------------------------
# training set


def test_build_training_set_layout(flood_scenario, flood_field):
    ts = build_training_set(flood_field, flood_scenario)
    nx = flood_field.x_miles.size
    nt = flood_field.t_hours.size
    assert len(ts) == nx * nt
    # x varies fastest: row k of the field's grid is station k % nx at time
    # k // nx, the sample that h.ravel()[k] and u.ravel()[k] hold
    points = flood_field.points
    np.testing.assert_array_equal(points[:, 0], np.tile(flood_field.x_miles, nt))
    np.testing.assert_array_equal(points[:, 1], np.repeat(flood_field.t_hours, nx))
    np.testing.assert_array_equal(ts.points, points)
    np.testing.assert_array_equal(ts.h_ft, flood_field.h.ravel())
    np.testing.assert_array_equal(ts.u_fps, flood_field.u.ravel())
    assert ts.norm.x_max_miles == pytest.approx(flood_scenario.geometry.length_miles)
    assert ts.norm.t_max_hours == pytest.approx(flood_scenario.t_total_hours)


def test_training_set_validation():
    with pytest.raises(ValueError):
        TrainingSet(points=np.zeros((3, 2)), h_ft=np.zeros(3), u_fps=np.zeros(2), norm=BOX)
    with pytest.raises(ValueError):
        TrainingSet(points=np.zeros((2, 2)), h_ft=np.zeros(3), u_fps=np.zeros(3), norm=BOX)
    with pytest.raises(ValueError):  # rows of (x, t), not a flat column
        TrainingSet(points=np.zeros(6), h_ft=np.zeros(3), u_fps=np.zeros(3), norm=BOX)
    with pytest.raises(ValueError):
        TrainingSet(points=np.zeros((1, 2)), h_ft=np.zeros(1), u_fps=np.zeros(1), norm=BOX)


# ---------------------------------------------------------------------------
# the loop


def test_zero_iterations_returns_initial_model():
    model = _model()
    ts = _constant_training_set()
    trained, history = train(model, ts, TrainConfig(max_iterations=0, batch_size=32))
    assert history == []
    np.testing.assert_array_equal(trained.weights, model.weights)


def test_train_rejects_a_training_set_in_another_box():
    """Collocation points are drawn over the training set's box and
    normalized by the model's, so the two must be one box."""
    model = init_model(NormalizationBox(0.0, 16.0, 0.0, 30.0), n_blocks=1, width=8, m=4)
    with pytest.raises(ValueError, match="box"):
        train(model, _constant_training_set(), TrainConfig(max_iterations=1, batch_size=32))


def test_training_fits_constant_field():
    model = _model(seed=1)
    ts = _constant_training_set()
    config = TrainConfig(
        lambda_physics=0.0,
        batch_size=64,
        lr_initial=5e-2,
        max_iterations=200,
        record_every=50,
        seed=4,
    )
    trained, history = train(model, ts, config)
    assert history[-1].data_loss < 1e-3
    assert history[-1].data_loss < history[0].data_loss
    h, u = predict(trained, 4.0, 15.0)
    assert abs(h - 5.0) < 0.1
    assert abs(u - 1.0) < 0.1


def test_training_is_deterministic():
    ts = _constant_training_set()
    config = TrainConfig(lambda_physics=0.1, batch_size=32, max_iterations=20, record_every=5, seed=2)
    runs = []
    for _ in range(2):
        trained, history = train(_model(seed=1), ts, config)
        runs.append((trained.weights, history))
    np.testing.assert_array_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]


def test_supervised_run_replicated_by_hand():
    """With lambda = 0 the loop must be a plain Adam-on-data-loss iteration
    drawing batches from its own seeded stream; replicate it step by step."""
    from stagecast.training import _learning_rate, _split_indices, init_adam

    ts = _constant_training_set(n=256)
    config = TrainConfig(lambda_physics=0.0, batch_size=32, max_iterations=6, record_every=1, seed=5)
    model = _model(seed=2)
    trained, history = train(model, ts, config)

    batch_seed, _colloc_seed = np.random.SeedSequence(config.seed).spawn(2)
    rng_batch = np.random.default_rng(batch_seed)
    train_idx, val_idx = _split_indices(len(ts), config.seed)
    val_batch = (*ts.points[val_idx].T, ts.h_ft[val_idx], ts.u_fps[val_idx])

    weights = model.weights.copy()
    state = init_adam(weights.size)
    best_val, best_weights = np.inf, weights.copy()
    for i in range(config.max_iterations):
        current = dataclasses.replace(model, weights=weights)
        pick = rng_batch.integers(0, train_idx.size, config.batch_size)
        idx = train_idx[pick]
        lp = forward_loss(current, (*ts.points[idx].T, ts.h_ft[idx], ts.u_fps[idx]))
        assert lp.data_loss == history[i].data_loss  # bitwise trajectory match
        grads = loss_gradient(lp)
        adam_step(weights, grads, state, _learning_rate(config, i))
        val = data_loss(dataclasses.replace(model, weights=weights), val_batch)
        if val < best_val:
            best_val, best_weights = val, weights.copy()
    np.testing.assert_array_equal(trained.weights, best_weights)


def test_physics_run_replicated_by_hand():
    """With lambda > 0 the loop draws a fresh collocation set from its own
    stream each iteration; replicate it with the public forward_loss,
    loss_gradient and adam_step and match weights and history bit for bit."""
    from stagecast.training import _learning_rate, _split_indices, init_adam

    ts = _constant_training_set(n=256)
    config = TrainConfig(
        lambda_physics=0.1, batch_size=32, collocation_per_batch=24, max_iterations=5,
        record_every=2, seed=6,
    )
    model = _model(seed=4)
    trained, history = train(model, ts, config)

    batch_seed, colloc_seed = np.random.SeedSequence(config.seed).spawn(2)
    rng_batch = np.random.default_rng(batch_seed)
    rng_colloc = np.random.default_rng(colloc_seed)
    train_idx, val_idx = _split_indices(len(ts), config.seed)
    val_batch = (*ts.points[val_idx].T, ts.h_ft[val_idx], ts.u_fps[val_idx])

    weights = model.weights.copy()
    state = init_adam(weights.size)
    rows = []
    best_val, best_weights = np.inf, weights.copy()
    for i in range(config.max_iterations):
        current = dataclasses.replace(model, weights=weights)
        idx = train_idx[rng_batch.integers(0, train_idx.size, config.batch_size)]
        colloc = np.column_stack([
            rng_colloc.uniform(BOX.x_min_miles, BOX.x_max_miles, 24),
            rng_colloc.uniform(BOX.t_min_hours, BOX.t_max_hours, 24),
        ])
        batch = (*ts.points[idx].T, ts.h_ft[idx], ts.u_fps[idx])
        lp = forward_loss(current, batch, colloc, lambda_physics=config.lambda_physics)
        lr = _learning_rate(config, i)
        adam_step(weights, loss_gradient(lp), state, lr)
        if (i + 1) % config.record_every == 0 or (i + 1) == config.max_iterations:
            rows.append((i + 1, lp.data_loss, lp.physics_loss, lp.total, lr))
            val = data_loss(dataclasses.replace(model, weights=weights), val_batch)
            if val < best_val:
                best_val, best_weights = val, weights.copy()
    assert [tuple(row) for row in history] == rows
    assert all(row[2] > 0.0 for row in rows)
    np.testing.assert_array_equal(trained.weights, best_weights)


@pytest.mark.parametrize("batch, collocation", [(32, 32), (30, 17)])
@pytest.mark.parametrize("lam", [0.0, 0.1])
@pytest.mark.parametrize("use_fourier", [True, False], ids=["fourier", "raw"])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_training_matches_the_frozen_loop_bitwise(activation, use_fourier, lam, batch,
                                                   collocation):
    """Weights and history equal, bit for bit, those of the original loop
    whose every array was fresh, at row counts that are and are not whole
    4-row tiles."""
    rng = np.random.default_rng(17)
    points = np.column_stack((rng.uniform(0.0, 8.0, 300), rng.uniform(0.0, 30.0, 300)))
    ts = TrainingSet(points=points, h_ft=4.0 + np.sin(points[:, 0]) + 0.1 * points[:, 1],
                     u_fps=np.cos(points[:, 1] / 5.0), norm=BOX)
    config = TrainConfig(
        lambda_physics=lam, batch_size=batch, collocation_per_batch=collocation,
        lr_initial=1e-2, lr_decay_every=10, max_iterations=40, record_every=7, seed=3,
    )
    model = _model(seed=6, activation=activation, use_fourier=use_fourier)
    trained, history = train(model, ts, config)
    weights, rows = reference_train(model, ts, config)
    assert [tuple(row) for row in history] == rows
    assert np.array_equal(trained.weights, weights)


def test_training_encodes_its_samples_once(monkeypatch):
    """The training samples are encoded once per run; only the freshly
    drawn collocation points are encoded every iteration."""
    import stagecast.surrogate as surrogate

    calls = []

    def counted(encoder, v, out=None):
        calls.append(v.shape[0])
        return encode(encoder, v, out)

    encode = surrogate.encode
    monkeypatch.setattr(surrogate, "encode", counted)
    ts = _constant_training_set(n=256)
    kwargs = dict(batch_size=32, max_iterations=7, record_every=2, seed=3)
    train(_model(), ts, TrainConfig(lambda_physics=0.0, **kwargs))
    assert calls == [256]
    calls.clear()
    train(_model(), ts, TrainConfig(lambda_physics=0.1, collocation_per_batch=16, **kwargs))
    assert calls == [256] + [16] * 7


def test_physics_toggle_leaves_batch_stream_alone():
    """The first-iteration supervised loss is identical whether or not the
    physics term is on: collocation draws come from a separate stream."""
    ts = _constant_training_set()
    kwargs = dict(batch_size=32, max_iterations=1, record_every=1, seed=9)
    _, hist_plain = train(_model(seed=3), ts, TrainConfig(lambda_physics=0.0, **kwargs))
    _, hist_hybrid = train(_model(seed=3), ts, TrainConfig(lambda_physics=0.5, **kwargs))
    assert hist_plain[0].data_loss == hist_hybrid[0].data_loss
    assert hist_hybrid[0].physics_loss > 0.0
    assert hist_plain[0].physics_loss == 0.0


@pytest.mark.parametrize("lam", [0.0, 0.1])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_divergence_guard_raises_with_history(activation, lam):
    """At lambda > 0 the diverging pass's physics adjoints are computed
    before the guard, under the suite's RuntimeWarning-as-error filter."""
    ts = _constant_training_set()
    config = TrainConfig(
        lambda_physics=lam, batch_size=32, lr_initial=1e5, max_iterations=50, record_every=1, seed=0
    )
    with pytest.raises(TrainingDiverged) as exc_info:
        train(_model(seed=0, activation=activation), ts, config)
    err = exc_info.value
    assert err.history, "partial history must be attached"
    assert err.history[-1].iteration >= 2
    assert str(err).endswith(f"at iteration {err.history[-1].iteration}")
    assert err.history[-1].total_loss > 1e6 * err.history[0].total_loss or not np.isfinite(
        err.history[-1].total_loss
    )


def test_an_overflowing_physics_weight_diverges_without_a_warning():
    """lambda * 2 already overflows at lambda = 1e308; under the suite's
    RuntimeWarning-as-error filter the step still ends as a divergence, with
    its row in the partial history."""
    config = TrainConfig(lambda_physics=1e308, batch_size=32, max_iterations=5, seed=0)
    with pytest.raises(TrainingDiverged) as exc_info:
        train(_model(), _constant_training_set(), config)
    assert [row.iteration for row in exc_info.value.history] == [1]


def test_learning_rate_schedule_in_history():
    ts = _constant_training_set()
    config = TrainConfig(
        lambda_physics=0.0,
        batch_size=16,
        lr_initial=1e-3,
        lr_decay_rate=0.5,
        lr_decay_every=2,
        max_iterations=3,
        record_every=1,
        seed=1,
    )
    _, history = train(_model(), ts, config)
    lrs = [row.lr for row in history]
    assert lrs[0] == 1e-3
    assert lrs[1] == pytest.approx(1e-3 * 0.5**0.5, rel=1e-12)
    assert lrs[2] == pytest.approx(5e-4, rel=1e-12)


# ---------------------------------------------------------------------------
# buffers made once per run


def _scrambled_model(seed):
    model = _model(seed=seed)
    weights = np.random.default_rng(seed).normal(0.0, 0.4, model.n_weights)
    return dataclasses.replace(model, weights=weights)


def test_loss_passes_held_at_once_keep_their_own_gradients():
    """Each forward_loss pass has buffers of its own: two passes at different
    weights, held at once, each give the gradient they give alone."""
    rng = np.random.default_rng(8)
    batch = tuple(rng.uniform(lo, hi, 12) for lo, hi in ((0, 8), (0, 30), (2, 9), (-1, 4)))
    colloc = np.column_stack([rng.uniform(0, 8, 20), rng.uniform(0, 30, 20)])
    models = [_scrambled_model(1), _scrambled_model(2)]
    alone = [loss_gradient(forward_loss(m, batch, colloc, lambda_physics=0.1)).copy()
             for m in models]
    assert not np.array_equal(*alone)
    passes = [forward_loss(m, batch, colloc, lambda_physics=0.1) for m in models]
    grads = [loss_gradient(lp) for lp in passes]
    for lp, grad, expected in zip(passes, grads, alone):
        assert np.array_equal(grad, expected)
        assert np.array_equal(loss_gradient(lp), expected)


def test_later_queries_leave_earlier_results_alone():
    model = _scrambled_model(3)
    rng = np.random.default_rng(9)
    points = np.column_stack([rng.uniform(0, 8, 150), rng.uniform(0, 30, 150)])
    h, u = predict_batch(model, points)
    h_dual, u_dual = physics_duals(model, *points[:70].T)
    held = [a.copy() for a in (h, u, *h_dual, *u_dual)]
    predict_batch(model, points[::-1])
    physics_duals(model, *points[70:].T)
    predict(model, 1.0, 2.0)
    assert all(np.array_equal(a, b) for a, b in zip((h, u, *h_dual, *u_dual), held))


@pytest.mark.parametrize("lam", [0.0, 0.1])
def test_train_leaves_its_input_weights_alone(lam):
    model = _scrambled_model(4)
    before = model.weights.copy()
    config = TrainConfig(lambda_physics=lam, batch_size=32, max_iterations=9, record_every=3)
    trained, _ = train(model, _constant_training_set(), config)
    assert np.array_equal(model.weights, before)
    assert not np.shares_memory(trained.weights, model.weights)
    assert not np.array_equal(trained.weights, before)


def test_a_training_iteration_faults_no_new_memory():
    """A physics-informed iteration on gate 8's network writes into buffers
    made once per run: 200 more iterations take fewer than 20 minor page
    faults each, so a run's set-up faults cancel in the difference."""
    resource = pytest.importorskip("resource")
    rng = np.random.default_rng(10)
    n = 1940
    points = np.column_stack([rng.uniform(0, 8, n), rng.uniform(0, 30, n)])
    ts = TrainingSet(points=points, h_ft=5.0 + np.sin(points[:, 0]), u_fps=np.cos(points[:, 1]),
                     norm=BOX)
    model = init_model(BOX, n_blocks=2, width=64, m=32, sigma=4.0, activation="tanh", seed=0)

    def faults(iterations):
        config = TrainConfig(lambda_physics=0.1, batch_size=256, collocation_per_batch=256,
                             max_iterations=iterations, record_every=100)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        train(model, ts, config)
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    short = faults(50)
    assert faults(250) - short < 20 * 200
