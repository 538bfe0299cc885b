"""Fourier encoder and residual network behavior."""

import warnings

import numpy as np
import pytest

import stagecast.surrogate as surrogate
from oracles import reference_forward
from stagecast.surrogate import (
    DEPTH_FLOOR_FT,
    ExtrapolationWarning,
    FourierEncoder,
    NormalizationBox,
    encode,
    init_model,
    physics_duals,
    predict,
    predict_batch,
    weight_views,
)

BOX = NormalizationBox(x_min_miles=0.0, x_max_miles=10.0, t_min_hours=0.0, t_max_hours=48.0)


def _small_model(seed=0, **kwargs):
    defaults = dict(n_blocks=2, width=16, m=8, sigma=4.0, activation="tanh", seed=seed)
    defaults.update(kwargs)
    return init_model(BOX, **defaults)


def init_encoder(m, sigma, seed=0):
    """The Fourier encoder a model built with this seed carries."""
    return init_model(BOX, n_blocks=1, width=4, m=m, sigma=sigma, seed=seed).encoder


# ---------------------------------------------------------------------------
# encoder


def test_encode_at_origin():
    enc = init_encoder(m=6, sigma=4.0, seed=0)
    out = encode(enc, np.zeros(2))
    np.testing.assert_array_equal(out[:6], np.ones(6))
    np.testing.assert_array_equal(out[6:], np.zeros(6))


def test_encode_quarter_period():
    enc = FourierEncoder(b_matrix=np.array([[1.0, 0.0]]), sigma=1.0)
    out = encode(enc, np.array([0.25, 0.87]))
    assert abs(out[0] - 0.0) < 1e-12  # cos(pi/2)
    assert abs(out[1] - 1.0) < 1e-12  # sin(pi/2)


def test_encode_output_dimension_and_order():
    enc = init_encoder(m=5, sigma=2.0, seed=3)
    assert enc.output_dim == 10
    v = np.array([0.3, 0.7])
    out = encode(enc, v)
    angles = 2.0 * np.pi * (enc.b_matrix @ v)
    np.testing.assert_allclose(out[:5], np.cos(angles), rtol=1e-15)
    np.testing.assert_allclose(out[5:], np.sin(angles), rtol=1e-15)


def test_encode_bounded():
    enc = init_encoder(m=16, sigma=8.0, seed=1)
    v = np.random.default_rng(0).uniform(0, 1, size=(1_000_000, 2))
    out = encode(enc, v)
    assert out.shape == (1_000_000, 32)
    assert out.min() >= -1.0 and out.max() <= 1.0


def test_encoder_is_frozen():
    enc = init_encoder(m=4, sigma=4.0, seed=0)
    with pytest.raises(ValueError):
        enc.b_matrix[0, 0] = 99.0


def test_encoder_deterministic_by_seed():
    a = init_encoder(m=8, sigma=4.0, seed=5)
    b = init_encoder(m=8, sigma=4.0, seed=5)
    c = init_encoder(m=8, sigma=4.0, seed=6)
    assert np.array_equal(a.b_matrix, b.b_matrix)
    assert not np.array_equal(a.b_matrix, c.b_matrix)


# ---------------------------------------------------------------------------
# model structure


def test_initial_blocks_are_identity():
    """Residual blocks close with zero-initialized layers, so corrupting a
    block's opening layer must not change the output at initialization."""
    model = _small_model(seed=2)
    h0, u0 = predict(model, 3.0, 10.0)

    views = weight_views(model)
    assert np.all(views["block0.W2"] == 0.0)
    assert np.all(views["block0.b2"] == 0.0)
    views["block0.W1"][:] = 7.7  # opening layer feeds a zeroed closing layer
    h1, u1 = predict(model, 3.0, 10.0)
    assert (h0, u0) == (h1, u1)


def test_depth_is_positive_over_random_weights():
    rng = np.random.default_rng(0)
    points = np.column_stack([rng.uniform(0, 10, 1000), rng.uniform(0, 48, 1000)])
    for seed in range(100):
        model = _small_model(seed=seed)
        model.weights[:] = rng.normal(scale=2.0, size=model.weights.shape)
        h, _ = predict_batch(model, points)
        assert np.all(h > 0.0)
        assert np.all(h >= DEPTH_FLOOR_FT)


def test_predict_is_deterministic():
    model = _small_model()
    a = predict(model, 4.2, 17.3)
    b = predict(model, 4.2, 17.3)
    assert a == b


@pytest.mark.parametrize("n_points", [3, 64, 100])
def test_predict_batch_matches_single_calls(n_points):
    model = _small_model(seed=9)
    rng = np.random.default_rng(4)
    points = np.column_stack(
        [rng.uniform(0, 10, n_points), rng.uniform(0, 48, n_points)]
    )
    h_batch, u_batch = predict_batch(model, points)
    for i, (x, t) in enumerate(points):
        h_single, u_single = predict(model, x, t)
        assert h_batch[i] == h_single  # bitwise
        assert u_batch[i] == u_single


def test_predict_batch_of_one_and_empty():
    model = _small_model()
    h, u = predict_batch(model, np.array([[2.0, 3.0]]))
    assert (h[0], u[0]) == predict(model, 2.0, 3.0)
    h0, u0 = predict_batch(model, np.zeros((0, 2)))
    assert h0.size == 0 and u0.size == 0


def test_no_fourier_model_uses_raw_coordinates():
    model = _small_model(use_fourier=False)
    assert model.encoder is None
    assert not model.uses_fourier
    h, u = predict(model, 1.0, 2.0)
    assert np.isfinite(h) and np.isfinite(u) and h > 0


@pytest.mark.parametrize("n_points", [1, 64, 65, 1940])
@pytest.mark.parametrize("use_fourier", [True, False])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_predict_batch_equals_reference_forward_bitwise(activation, use_fourier, n_points):
    model = _small_model(seed=17, activation=activation, use_fourier=use_fourier)
    rng = np.random.default_rng(n_points)
    model.weights[:] = rng.normal(0.0, 0.5, model.n_weights)
    points = np.column_stack([rng.uniform(0, 10, n_points), rng.uniform(0, 48, n_points)])
    h, u = predict_batch(model, points)
    h_ref, u_ref = reference_forward(model, points)
    assert np.array_equal(h, h_ref)
    assert np.array_equal(u, u_ref)


def test_predict_batch_builds_weight_views_once(monkeypatch):
    calls = []

    def counted(model):
        calls.append(1)
        return weight_views(model)

    monkeypatch.setattr(surrogate, "weight_views", counted)
    model = _small_model()
    points = np.column_stack([np.linspace(0, 10, 1940), np.linspace(0, 48, 1940)])
    predict_batch(model, points)
    assert len(calls) == 1


def test_weight_views_share_storage():
    model = _small_model()
    views = weight_views(model)
    total = sum(v.size for v in views.values())
    assert total == model.weights.size == model.n_weights
    views["head.b"][0] = 123.0
    assert 123.0 in model.weights


def test_extrapolation_warns_and_clamps():
    model = _small_model()
    with pytest.warns(ExtrapolationWarning):
        h_out, u_out = predict(model, 50.0, 10.0)  # x beyond the box
    h_edge, u_edge = predict(model, 10.0, 10.0)
    assert (h_out, u_out) == (h_edge, u_edge)


def test_activation_choice_changes_output():
    a = _small_model(activation="tanh")
    b = _small_model(activation="relu")
    assert predict(a, 5.0, 20.0) != predict(b, 5.0, 20.0)
    with pytest.raises(ValueError):
        _small_model(activation="sigmoid")


# ---------------------------------------------------------------------------
# input derivatives


def test_physics_duals_match_finite_differences():
    """dh/dx and du/dt in physical units vs central differences of predict."""
    model = _small_model(seed=13)
    x0, t0 = 4.0, 20.0
    h_dual, u_dual = physics_duals(model, x0, t0)

    dm = 1e-4   # miles
    dh = 1e-4   # hours
    h_px = (predict(model, x0 + dm, t0)[0] - predict(model, x0 - dm, t0)[0]) / (2 * dm * 5280.0)
    h_pt = (predict(model, x0, t0 + dh)[0] - predict(model, x0, t0 - dh)[0]) / (2 * dh * 3600.0)
    u_px = (predict(model, x0 + dm, t0)[1] - predict(model, x0 - dm, t0)[1]) / (2 * dm * 5280.0)
    u_pt = (predict(model, x0, t0 + dh)[1] - predict(model, x0, t0 - dh)[1]) / (2 * dh * 3600.0)

    assert np.isclose(h_dual.dx, h_px, rtol=1e-5, atol=1e-12)
    assert np.isclose(h_dual.dt, h_pt, rtol=1e-5, atol=1e-12)
    assert np.isclose(u_dual.dx, u_px, rtol=1e-5, atol=1e-12)
    assert np.isclose(u_dual.dt, u_pt, rtol=1e-5, atol=1e-12)


def test_physics_duals_value_matches_predict():
    model = _small_model(seed=21)
    h_dual, u_dual = physics_duals(model, 2.5, 30.0)
    h, u = predict(model, 2.5, 30.0)
    assert float(np.asarray(h_dual.value).ravel()[0]) == pytest.approx(h, rel=1e-12)
    assert float(np.asarray(u_dual.value).ravel()[0]) == pytest.approx(u, rel=1e-12)


# ---------------------------------------------------------------------------
# normalization box


def test_degenerate_box_rejected():
    with pytest.raises(ValueError):
        NormalizationBox(x_min_miles=1.0, x_max_miles=1.0, t_min_hours=0.0, t_max_hours=2.0)
