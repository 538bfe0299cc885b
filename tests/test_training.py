"""Losses, Adam, and the hybrid training loop."""

import dataclasses

import numpy as np
import pytest

from oracles import adam_first_step, loop_mse, reference_adam_step
from stagecast.geometry import G_FT_S2
from stagecast.surrogate import Dual, NormalizationBox, init_model, predict, predict_batch, weight_views
from stagecast.training import (
    AdamState,
    NonFiniteGradient,
    TrainConfig,
    TrainingDiverged,
    TrainingSet,
    adam_step,
    build_training_set,
    data_loss,
    forward_loss,
    grid_search,
    init_adam,
    loss_gradient,
    physics_loss,
    total_loss,
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
    return TrainingSet(x_miles=x, t_hours=t, h_ft=np.full(n, h), u_fps=np.full(n, u), norm=BOX)


# ---------------------------------------------------------------------------
# losses


def _internal_prediction(model, x, t):
    """The (h, u) values data_loss sees for a raw batch, bit for bit."""
    from stagecast.surrogate import _features, _forward, _normalize

    v = _normalize(model, np.asarray(x), np.asarray(t), clamp=False)
    fwd = _forward(model, weight_views(model), _features(model, v))
    return fwd.h, fwd.u


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
    assert total_loss(0.5, 0.25, 1.0) == 0.75
    assert total_loss(0.5, 0.25, 0.0) == 0.5
    assert total_loss(2.0, 3.0, 0.1) == pytest.approx(2.3, rel=1e-15)


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_gradient_is_noop():
    w = np.array([1.0, -2.0, 3.5])
    state = init_adam(3)
    w2, s2 = adam_step(w, np.zeros(3), state, lr=0.1)
    np.testing.assert_array_equal(w2, w)
    assert s2.step == 1


def test_adam_first_step_closed_form():
    rng = np.random.default_rng(9)
    w = rng.normal(size=20)
    g = rng.normal(size=20)
    w2, _ = adam_step(w, g, init_adam(20), lr=1e-3)
    np.testing.assert_allclose(w2, adam_first_step(w, g, 1e-3), rtol=1e-12)


def test_adam_matches_frozen_reference_bitwise():
    """60 steps with a decaying learning rate and gradients across six decades
    give the bits of the original one-array-per-term update."""
    rng = np.random.default_rng(21)
    n = 2000
    w = w_ref = rng.normal(size=n)
    state = init_adam(n)
    m_ref, v_ref, step_ref = np.zeros(n), np.zeros(n), 0
    for i in range(60):
        g = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
        lr = 1e-2 * 0.5 ** (i / 7)
        inputs = (w, g, state.m, state.v)
        copies = [a.copy() for a in inputs]
        w, state = adam_step(w, g, state, lr)
        assert all(np.array_equal(a, b) for a, b in zip(inputs, copies))  # inputs left alone
        w_ref, m_ref, v_ref, step_ref = reference_adam_step(w_ref, g, m_ref, v_ref, step_ref, lr)
        assert np.array_equal(w, w_ref)
        assert np.array_equal(state.m, m_ref) and np.array_equal(state.v, v_ref)
        assert state.step == step_ref


def test_adam_descends_quadratic():
    w = np.array([5.0, -3.0])
    state = init_adam(2)
    for _ in range(2000):
        w, state = adam_step(w, 2.0 * w, state, lr=0.05)
    assert np.all(np.abs(w) < 1e-3)


def test_adam_rejects_nonfinite_gradient():
    with pytest.raises(ValueError, match="component 3"):
        adam_step(np.zeros(5), np.array([0.0, 1.0, 2.0, np.inf, 4.0]), init_adam(5), lr=1e-3)


def test_adam_nonfinite_gradient_carries_its_index():
    with pytest.raises(NonFiniteGradient) as info:
        adam_step(np.zeros(5), np.array([0.0, 1.0, np.nan, np.inf, 4.0]), init_adam(5), lr=1e-3)
    assert info.value.index == 2


def test_train_names_the_parameter_with_a_nonfinite_gradient(monkeypatch):
    """The flat index of the bad component maps back to its manifest entry."""
    import stagecast.training as training

    model = _model()
    first, second = model.manifest[0], model.manifest[1]
    bad = int(np.prod(first[1])) + 1  # second component of the second parameter

    def poisoned_loss_gradient(lp):
        grads = loss_gradient(lp)
        grads[bad] = np.nan
        return grads

    monkeypatch.setattr(training, "loss_gradient", poisoned_loss_gradient)
    with pytest.raises(ValueError, match=rf"parameter {second[0]!r} at iteration 0") as info:
        train(model, _constant_training_set(), TrainConfig(max_iterations=3, batch_size=32))
    assert isinstance(info.value.__cause__, NonFiniteGradient)
    assert info.value.__cause__.index == bad


def test_adam_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        adam_step(np.zeros(5), np.zeros(4), init_adam(5), lr=1e-3)


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
        TrainConfig(validation_fraction=1.0)


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
    # x varies fastest: the first nx samples are the t=0 snapshot
    np.testing.assert_array_equal(ts.x_miles[:nx], flood_field.x_miles)
    np.testing.assert_array_equal(ts.t_hours[:nx], np.full(nx, flood_field.t_hours[0]))
    np.testing.assert_array_equal(ts.h_ft[:nx], flood_field.h[0])
    np.testing.assert_array_equal(ts.u_fps[:nx], flood_field.u[0])
    assert ts.norm.x_max_miles == pytest.approx(flood_scenario.geometry.length_miles)
    assert ts.norm.t_max_hours == pytest.approx(flood_scenario.t_total_hours)


def test_training_set_validation():
    with pytest.raises(ValueError):
        TrainingSet(
            x_miles=np.zeros(3),
            t_hours=np.zeros(2),
            h_ft=np.zeros(3),
            u_fps=np.zeros(3),
            norm=BOX,
        )
    with pytest.raises(ValueError):
        TrainingSet(
            x_miles=np.zeros(1),
            t_hours=np.zeros(1),
            h_ft=np.zeros(1),
            u_fps=np.zeros(1),
            norm=BOX,
        )


# ---------------------------------------------------------------------------
# the loop


def test_zero_iterations_returns_initial_model():
    model = _model()
    ts = _constant_training_set()
    trained, history = train(model, ts, TrainConfig(max_iterations=0, batch_size=32))
    assert history == []
    np.testing.assert_array_equal(trained.weights, model.weights)


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
    train_idx, val_idx = _split_indices(len(ts), config.validation_fraction, config.seed)
    val_batch = (ts.x_miles[val_idx], ts.t_hours[val_idx], ts.h_ft[val_idx], ts.u_fps[val_idx])

    weights = model.weights.copy()
    state = init_adam(weights.size)
    best_val, best_weights = np.inf, weights.copy()
    for i in range(config.max_iterations):
        current = dataclasses.replace(model, weights=weights)
        pick = rng_batch.integers(0, train_idx.size, config.batch_size)
        idx = train_idx[pick]
        lp = forward_loss(current, (ts.x_miles[idx], ts.t_hours[idx], ts.h_ft[idx], ts.u_fps[idx]))
        assert lp.data_loss == history[i].data_loss  # bitwise trajectory match
        grads = loss_gradient(lp)
        weights, state = adam_step(weights, grads, state, _learning_rate(config, i))
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
    train_idx, val_idx = _split_indices(len(ts), config.validation_fraction, config.seed)
    val_batch = (ts.x_miles[val_idx], ts.t_hours[val_idx], ts.h_ft[val_idx], ts.u_fps[val_idx])

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
        batch = (ts.x_miles[idx], ts.t_hours[idx], ts.h_ft[idx], ts.u_fps[idx])
        lp = forward_loss(current, batch, colloc, lambda_physics=config.lambda_physics)
        lr = _learning_rate(config, i)
        weights, state = adam_step(weights, loss_gradient(lp), state, lr)
        if (i + 1) % config.record_every == 0 or (i + 1) == config.max_iterations:
            rows.append((i + 1, lp.data_loss, lp.physics_loss, lp.total, lr))
            val = data_loss(dataclasses.replace(model, weights=weights), val_batch)
            if val < best_val:
                best_val, best_weights = val, weights.copy()
    assert [tuple(row) for row in history] == rows
    assert all(row[2] > 0.0 for row in rows)
    np.testing.assert_array_equal(trained.weights, best_weights)


def test_training_encodes_its_samples_once(monkeypatch):
    """The training samples are encoded once per run; only the freshly
    drawn collocation points are encoded every iteration."""
    import stagecast.surrogate as surrogate

    calls = []

    def counted(encoder, v, n=None):
        calls.append(v.shape[0])
        return encode(encoder, v, n)

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


def test_divergence_guard_raises_with_history():
    ts = _constant_training_set()
    config = TrainConfig(
        lambda_physics=0.0, batch_size=32, lr_initial=1e5, max_iterations=50, record_every=1, seed=0
    )
    with pytest.raises(TrainingDiverged) as exc_info:
        train(_model(seed=0), ts, config)
    err = exc_info.value
    assert err.history, "partial history must be attached"
    assert err.iteration >= 1
    assert err.history[-1].total_loss > 1e6 * err.history[0].total_loss or not np.isfinite(
        err.history[-1].total_loss
    )


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
# grid search


def test_grid_search_single_cell():
    ts = _constant_training_set(n=128)
    base = TrainConfig(batch_size=16, record_every=10, seed=3)
    (lam, sigma), table = grid_search(
        ts, [0.05], [2.0], budget_iters=10, base_config=base, width=8, n_blocks=1, m=4
    )
    assert (lam, sigma) == (0.05, 2.0)
    assert len(table) == 1
    assert table[0]["lambda_physics"] == 0.05
    assert np.isfinite(table[0]["val_mrae"])
    assert not table[0]["diverged"]


def test_grid_search_picks_minimum():
    ts = _constant_training_set(n=128)
    base = TrainConfig(batch_size=16, record_every=10, seed=3)
    (lam, sigma), table = grid_search(
        ts, [0.0, 0.1], [1.0, 4.0], budget_iters=15, base_config=base, width=8, n_blocks=1, m=4
    )
    assert len(table) == 4
    best_row = min(table, key=lambda r: r["val_mrae"])
    assert (lam, sigma) == (best_row["lambda_physics"], best_row["sigma"])
    for row in table:
        assert set(row) == {"lambda_physics", "sigma", "val_mrae", "diverged"}


def test_grid_search_rejects_zero_budget():
    ts = _constant_training_set(n=64)
    with pytest.raises(ValueError):
        grid_search(ts, [0.1], [4.0], budget_iters=0)
