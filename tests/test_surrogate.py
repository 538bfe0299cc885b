"""Fourier encoder and residual network behavior."""

import dataclasses
import sys
import threading
import time
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
    SurrogateModel,
    encode,
    init_model,
    physics_duals,
    predict,
    predict_batch,
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

    views = model.views
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


@pytest.mark.parametrize("n_points", [1, 2, 3, 4, 5, 64, 65, 67, 1940])
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


def _points(rng, n):
    return np.column_stack([rng.uniform(0, 10, n), rng.uniform(0, 48, n)])


def test_layer_gemms_take_at_most_128_rows_and_the_projection_one_per_span(monkeypatch):
    """Every layer gemm of an inference pass takes a multiple of 4 rows and
    at most 128, and the encoder's projection runs once per span, on a
    multiple of 4 rows and at most a span's points (512, or 168 with
    duals): a gemm's rows keep their bits at any such row count, and
    OpenBLAS runs each on one thread."""
    gemms, projections = [], []
    matmul, encode = np.matmul, surrogate.encode

    def recorded_matmul(a, b, *args, **kwargs):
        gemms.append(a.shape[0])
        return matmul(a, b, *args, **kwargs)

    def recorded_encode(encoder, v, out=None):
        projections.append(v.shape[0])
        return encode(encoder, v, out)

    monkeypatch.setattr(np, "matmul", recorded_matmul)
    monkeypatch.setattr(surrogate, "encode", recorded_encode)
    model = _small_model()
    rng = np.random.default_rng(0)
    predict(model, 2.0, 3.0)
    assert set(gemms) == {4} and projections == [4]
    cases = [(n, False) for n in [*range(1, 10), *range(125, 131), 512, 513, 1300]]
    cases += [(n, True) for n in [*range(1, 6), 43, 168, 169, 170, 400]]
    for n, duals in cases:
        projections.clear()
        points = _points(rng, n)
        if duals:
            physics_duals(model, *points.T)
        else:
            predict_batch(model, points)
        rows, span = -(-n // 4) * 4, 168 if duals else 512
        assert sorted(projections) == sorted(min(span, rows - s) for s in range(0, rows, span))
    assert all(k % 4 == 0 and 0 < k <= 128 for k in gemms)
    assert 128 in gemms


def _thread_starts(monkeypatch):
    """The threads started from now on, counted as they start."""
    started = []
    start = surrogate.threading.Thread.start

    def counted(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(surrogate.threading.Thread, "start", counted)
    return started


@pytest.mark.parametrize("cores, n_points, helpers", [
    (1, 2600, 0), (2, 2600, 1), (8, 1100, 1), (8, 512, 0), (8, 513, 1), (8, 0, 0),
])
def test_a_second_thread_only_for_two_spans_and_two_cores(monkeypatch, cores, n_points, helpers):
    """A batch of at most one span (512 points; an empty batch has none), or
    a process with one usable core, starts no thread; otherwise one thread
    joins the caller's, however many cores there are.  The bits do not move."""
    model = _small_model()
    points = _points(np.random.default_rng(n_points), n_points)
    expected = predict_batch(model, points)
    monkeypatch.setattr(surrogate.os, "sched_getaffinity", lambda pid: set(range(cores)))
    started = _thread_starts(monkeypatch)
    h, u = predict_batch(model, points)
    assert len(started) == helpers
    assert np.array_equal(h, expected[0]) and np.array_equal(u, expected[1])


def test_empty_duals_start_no_thread(monkeypatch):
    """No points make no span, so ``physics_duals`` starts no thread either."""
    monkeypatch.setattr(surrogate.os, "sched_getaffinity", lambda pid: {0, 1})
    started = _thread_starts(monkeypatch)
    h, u = physics_duals(_small_model(), [], [])
    assert not started
    assert all(part.shape == (0,) for part in (*h, *u))


def test_two_threads_switching_often_fill_every_row(monkeypatch):
    """Two threads switching as often as the interpreter allows: each span
    is taken once and written, so every row equals the one-thread result,
    call after call."""
    model = _small_model()
    points = _points(np.random.default_rng(3), 5_000)
    monkeypatch.setattr(surrogate.os, "sched_getaffinity", lambda pid: {0})
    h_one, u_one = predict_batch(model, points)
    monkeypatch.setattr(surrogate.os, "sched_getaffinity", lambda pid: {0, 1})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            h, u = predict_batch(model, points)
            assert np.array_equal(h, h_one) and np.array_equal(u, u_one)
    finally:
        sys.setswitchinterval(interval)


def test_without_cpu_affinity_the_core_count_decides(monkeypatch):
    """Where ``os.sched_getaffinity`` is missing, ``os.cpu_count()`` counts
    the usable cores; one that is unknown counts as one."""
    model = _small_model()
    points = _points(np.random.default_rng(1), 2600)
    monkeypatch.delattr(surrogate.os, "sched_getaffinity")
    started = _thread_starts(monkeypatch)
    for cores, helpers in ((None, 0), (1, 0), (3, 1)):
        monkeypatch.setattr(surrogate.os, "cpu_count", lambda: cores)
        started.clear()
        predict_batch(model, points)
        assert len(started) == helpers


@pytest.mark.parametrize("failing", ["helper", "caller"])
def test_a_failure_in_a_span_reaches_the_caller_with_no_thread_left(monkeypatch, failing):
    """An exception raised in a span, on the helper thread or on the
    calling one, is raised by the call once every thread has stopped."""
    monkeypatch.setattr(surrogate.os, "sched_getaffinity", lambda pid: {0, 1})
    forward = surrogate._forward
    failed = threading.Event()

    def fail_on_one_thread(ws):
        on_caller = threading.current_thread() is threading.main_thread()
        if on_caller == (failing == "caller"):
            failed.set()
            raise RuntimeError(f"span failed on the {failing}")
        failed.wait(timeout=30)  # the other thread fails before this one goes on
        forward(ws)

    monkeypatch.setattr(surrogate, "_forward", fail_on_one_thread)
    started = _thread_starts(monkeypatch)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match=f"^span failed on the {failing}$"):
        predict_batch(_small_model(), _points(np.random.default_rng(2), 2600))
    assert len(started) == 1 and not started[0].is_alive()
    assert set(threading.enumerate()) == before


def test_predict_batch_builds_weight_views_once(monkeypatch):
    """A model makes its weight views once, however many blocks and
    queries read them."""
    calls = []
    make_views = surrogate._views

    def counted(manifest, flat):
        calls.append(1)
        return make_views(manifest, flat)

    monkeypatch.setattr(surrogate, "_views", counted)
    model = _small_model()
    points = np.column_stack([np.linspace(0, 10, 1940), np.linspace(0, 48, 1940)])
    predict_batch(model, points)
    predict_batch(model, points)
    assert len(calls) == 1


def test_a_fresh_model_makes_its_views_once_on_two_threads(monkeypatch):
    """A batch of several spans on a model that has not made its views yet
    makes them once, before a second thread could race to make them too
    (``functools.cached_property`` holds no lock from Python 3.12)."""
    calls = []
    make_views = surrogate._views

    def slow(manifest, flat):
        calls.append(threading.current_thread())
        time.sleep(0.05)  # long enough for a second thread to arrive
        return make_views(manifest, flat)

    model = _small_model()
    fresh = dataclasses.replace(model, weights=model.weights.copy())
    monkeypatch.setattr(surrogate, "_views", slow)
    monkeypatch.setattr(surrogate.os, "sched_getaffinity", lambda pid: {0, 1})
    started = _thread_starts(monkeypatch)
    h, u = predict_batch(fresh, _points(np.random.default_rng(4), 2600))
    assert len(started) == 1 and calls == [threading.main_thread()]
    h_ref, u_ref = predict_batch(model, _points(np.random.default_rng(4), 2600))
    assert np.array_equal(h, h_ref) and np.array_equal(u, u_ref)


@pytest.mark.parametrize("n, c, grad", [(64, 0, False), (256, 0, True), (256, 128, True), (504, 504, False)])
def test_a_workspace_of_64_rows_or_more_starts_every_buffer_on_a_cache_line(n, c, grad):
    """Training's and a span's buffers start on 64-byte boundaries, whatever
    the heap held before, so a run's speed does not rest on where they fall."""
    model = _small_model()
    ws = surrogate._Workspace(model, n, c, grad=grad)
    buffers = [ws.x, *ws.p, *ws.a, *ws.z, ws.out, ws.h]
    buffers += [*ws.slope, ws.h_tan] if c else []
    buffers += [ws.g, ws.g_z, ws.g_a, ws.g_p, ws.scratch, ws.grad] if grad else []
    assert all(b.ctypes.data % 64 == 0 for b in buffers if b.size)  # an empty one has no data
    assert ws.x.shape == (n + 2 * c, 2 * model.encoder.m)


@pytest.mark.parametrize("shape", [5, (3, 7), (2, 4, 6)])
def test_aligned_buffers_at_every_heap_offset(shape):
    """Wherever the heap puts the allocation, the buffer starts on a line
    and has the shape asked for."""
    held = []
    for _ in range(16):
        held.append(np.empty(1))  # moves the heap along
        buf = surrogate._aligned_empty(shape)
        assert buf.ctypes.data % 64 == 0
        assert buf.shape == np.empty(shape).shape and buf.dtype == np.float64


def test_weights_cannot_be_swapped_under_the_views():
    """The model is frozen, so its cached views always see its weights;
    a new weight vector makes a new model."""
    model = _small_model()
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.weights = np.zeros(model.n_weights)
    other = dataclasses.replace(model, weights=np.zeros(model.n_weights))
    assert not other.views["proj.W"].any() and model.views["proj.W"].any()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("build", ["constructor", "replace"])
def test_a_non_finite_weight_is_refused_naming_the_first(build, bad):
    model = _small_model()
    weights = model.weights.copy()
    weights[[7, 40]] = bad
    with pytest.raises(ValueError, match=r"^weight 7 is not finite$"):
        if build == "replace":
            dataclasses.replace(model, weights=weights)
        else:
            SurrogateModel(model.encoder, weights, model.width, model.n_blocks,
                           model.activation, model.norm, model.seed)


def test_a_pass_holds_the_model_it_was_made_for():
    """Two models with different encoders share no pass: each workspace
    runs its own model's weights with its own encoder."""
    a, b = _small_model(seed=1), _small_model(seed=2)
    points = np.column_stack([np.linspace(0, 10, 8), np.linspace(0, 48, 8)])
    outputs = []
    for model in (a, b):
        ws = surrogate._Workspace(model, len(points))
        assert ws.model is model
        surrogate._features(model, surrogate._normalize(model, points, clamp=False), ws.x)
        surrogate._forward(ws)
        outputs.append(ws.h.copy())
        assert np.array_equal(ws.h, predict_batch(model, points)[0])
    assert not np.array_equal(*outputs)


def test_weight_views_share_storage():
    model = _small_model()
    views = model.views
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


@pytest.mark.parametrize("x, t", [(50.0, 10.0), (-1.0, 3.0), (5.0, -2.0), (5.0, 1e9), (5.0, 3.0)])
def test_single_point_normalize_matches_the_batched_one(x, t):
    """predict normalizes its one point as a one-row batch: the bits, the
    clamp and the warning (text and attributed caller) are predict_batch's."""
    model = _small_model()
    with warnings.catch_warnings(record=True) as single:
        warnings.simplefilter("always")
        one = predict(model, x, t)
    with warnings.catch_warnings(record=True) as batch:
        warnings.simplefilter("always")
        h, u = predict_batch(model, np.array([[x, t]]))
    assert one == (float(h[0]), float(u[0]))
    assert [(str(w.message), w.category, w.filename) for w in single] == [
        (str(w.message), w.category, w.filename) for w in batch
    ]
    assert all(w.filename == __file__ for w in single)


@pytest.mark.parametrize("x, t", [(np.nan, 1.0), (2.0, np.inf), (-np.inf, np.nan)])
def test_non_finite_query_point_raises(x, t):
    """No query computes on a NaN or infinite coordinate, single or batched."""
    model = _small_model()
    with pytest.raises(ValueError, match="query points must be finite"):
        predict(model, x, t)
    with pytest.raises(ValueError, match="query points must be finite"):
        predict_batch(model, [[1.0, 2.0], [x, t]])
    with pytest.raises(ValueError, match="query points must be finite"):
        physics_duals(model, x, t)


def test_activation_choice_changes_output():
    a = _small_model(activation="tanh")
    b = _small_model(activation="relu")
    assert predict(a, 5.0, 20.0) != predict(b, 5.0, 20.0)
    with pytest.raises(ValueError):
        _small_model(activation="sigmoid")


@pytest.mark.parametrize(
    "change",
    [{"weights": np.zeros(3)}, {"activation": "gelu"}, {"width": 0}, {"n_blocks": -1}],
    ids=["weights", "activation", "width", "blocks"],
)
def test_model_rejects_a_bad_architecture_however_built(change):
    """The model type checks its own architecture, so a model built by
    ``dataclasses.replace`` or a loader is held to what init_model is."""
    with pytest.raises(ValueError):
        dataclasses.replace(_small_model(), **change)


def test_encoder_rejects_an_empty_matrix():
    with pytest.raises(ValueError, match="m must be positive"):
        FourierEncoder(np.zeros((0, 2)), 4.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_encoder_rejects_non_finite_numbers(bad):
    """A non-finite bandwidth would build an all-NaN encoder."""
    with pytest.raises(ValueError, match="sigma must be finite"):
        init_model(BOX, n_blocks=1, width=4, m=8, sigma=bad)
    with pytest.raises(ValueError, match="sigma must be finite"):
        FourierEncoder(np.ones((8, 2)), bad)
    b = np.ones((8, 2))
    b[3, 1] = bad
    with pytest.raises(ValueError, match="b_matrix must be finite"):
        FourierEncoder(b, 4.0)


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


@pytest.mark.parametrize("bounds, axis", [
    ((0.0, 8.0, 0.0, np.inf), "t"),
    ((-np.inf, 8.0, 0.0, 30.0), "x"),
    ((0.0, np.nan, 0.0, 30.0), "x"),
])
def test_non_finite_box_rejected(bounds, axis):
    """An infinite bound would normalize every coordinate on its axis to 0."""
    with pytest.raises(ValueError, match=f"not finite in {axis}"):
        NormalizationBox(*bounds)


def test_box_sample_is_all_x_draws_then_all_t_draws():
    rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
    rows = BOX.sample(rng_a, 50)
    x = rng_b.uniform(BOX.x_min_miles, BOX.x_max_miles, 50)
    t = rng_b.uniform(BOX.t_min_hours, BOX.t_max_hours, 50)
    assert rows.shape == (50, 2)
    np.testing.assert_array_equal(rows, np.column_stack((x, t)))
    assert rng_a.random() == rng_b.random()  # the stream is left at the same place
