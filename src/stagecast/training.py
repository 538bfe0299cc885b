"""Hybrid data/physics training for the stage surrogate.

The loss is ``L = L_data + lambda * L_physics``: a mean-squared data misfit
on solver samples plus the mean-squared residual of the governing equations
at freshly drawn collocation points.  Each iteration runs the network once
over the data rows and the collocation rows with their x and t tangent
rows (:func:`forward_loss`), then hands the adjoints of the two residuals
to the network's hand-written backward pass (:func:`loss_gradient`).  The
samples are fixed, so :func:`train` encodes them once per run and gathers
each batch's rows; only the fresh collocation points are encoded per
iteration.  The optimizer is Adam with an exponentially decaying learning rate.
Everything is seeded, and the supervised batch stream is independent of
the physics settings, so runs that share a seed share their batches
exactly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import (
    G_FT_S2,
    ChannelGeometry,
    RiverScenario,
    friction_slope,
    friction_slope_partials,
)
from .solver import FlowField
from .surrogate import (
    Dual,
    NormalizationBox,
    SurrogateModel,
    _backward,
    _collocation_rows,
    _features,
    _forward,
    _normalize,
    box_for_scenario,
    init_model,
    physics_duals,
    weight_views,
)

__all__ = [
    "TrainConfig",
    "TrainingSet",
    "AdamState",
    "HistoryRow",
    "LossPass",
    "TrainingDiverged",
    "NonFiniteGradient",
    "build_training_set",
    "data_loss",
    "physics_loss",
    "total_loss",
    "forward_loss",
    "loss_gradient",
    "init_adam",
    "adam_step",
    "train",
    "grid_search",
]


class TrainingDiverged(RuntimeError):
    """Training blew past the divergence guard; carries the partial history."""

    def __init__(self, message: str, history: list, iteration: int):
        super().__init__(message)
        self.history = history
        self.iteration = iteration


class NonFiniteGradient(ValueError):
    """A gradient component is NaN or infinite; ``index`` is the first such
    component of the flat gradient vector."""

    def __init__(self, index: int):
        super().__init__(f"non-finite gradient at component {index}")
        self.index = index


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training run.

    ``sigma`` is consumed when a model is built for this configuration
    (grid search and the ablation builder do this); :func:`train` itself
    uses the encoder already attached to the model.  ``collocation_per_batch``
    defaults to the batch size.  The learning rate follows
    ``lr_initial * lr_decay_rate ** (i / lr_decay_every)``.
    """

    lambda_physics: float = 0.1
    sigma: float = 4.0
    batch_size: int = 1024
    collocation_per_batch: int | None = None
    lr_initial: float = 1e-3
    lr_decay_rate: float = 0.5
    lr_decay_every: int = 20_000
    max_iterations: int = 100_000
    seed: int = 0
    record_every: int = 100
    validation_fraction: float = 0.1
    divergence_factor: float = 1e6

    def __post_init__(self):
        if self.lambda_physics < 0:
            raise ValueError("lambda_physics must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if not 0.0 < self.lr_decay_rate <= 1.0:
            raise ValueError("lr_decay_rate must be in (0, 1]")
        if self.lr_decay_every < 1:
            raise ValueError("lr_decay_every must be positive")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be non-negative")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in (0, 1)")

    @property
    def collocation_count(self) -> int:
        return self.batch_size if self.collocation_per_batch is None else self.collocation_per_batch


@dataclass(frozen=True)
class TrainingSet:
    """Flattened solver samples plus the normalization box they live in."""

    x_miles: np.ndarray
    t_hours: np.ndarray
    h_ft: np.ndarray
    u_fps: np.ndarray
    norm: NormalizationBox

    def __post_init__(self):
        n = self.x_miles.size
        if not (self.t_hours.size == n and self.h_ft.size == n and self.u_fps.size == n):
            raise ValueError("training set columns differ in length")
        if n < 2:
            raise ValueError("training set needs at least two samples")

    def __len__(self) -> int:
        return self.x_miles.size


def build_training_set(field: FlowField, scenario: RiverScenario) -> TrainingSet:
    """Flatten a solved field into (x, t, h, u) samples."""
    xx, tt = np.meshgrid(field.x_miles, field.t_hours)
    return TrainingSet(
        x_miles=xx.ravel(),
        t_hours=tt.ravel(),
        h_ft=field.h.ravel(),
        u_fps=field.u.ravel(),
        norm=box_for_scenario(scenario),
    )


class HistoryRow(NamedTuple):
    iteration: int
    data_loss: float
    physics_loss: float
    total_loss: float
    lr: float


# --------------------------------------------------------------------------
# losses
# --------------------------------------------------------------------------


def _residuals(h: Dual, u: Dual, geometry: ChannelGeometry | None):
    """Continuity and momentum residuals; friction and bed slope with ``geometry``."""
    r_c = h.dt + h.dx * u.value + h.value * u.dx
    r_m = u.dt + u.value * u.dx + G_FT_S2 * h.dx
    if geometry is not None:
        s_f = friction_slope(geometry.width_ft, geometry.manning_n, h.value, u.value)
        r_m = r_m + G_FT_S2 * (s_f - geometry.bed_slope)
    return r_c, r_m


class LossPass(NamedTuple):
    """The loss at one set of weights, with what :func:`loss_gradient` reads."""

    data_loss: float
    physics_loss: float
    total: float
    model: SurrogateModel
    views: dict
    net: tuple  # the network's forward pass over [data; collocation; tangent] rows
    data_error: tuple  # (h_hat - h, u_hat - u) on the data rows
    duals: tuple | None  # (h, u) duals at the collocation rows
    residuals: tuple | None  # (r_c, r_m) at the collocation rows
    geometry: ChannelGeometry | None  # set for the friction and bed-slope momentum terms
    lambda_physics: float


def forward_loss(
    model: SurrogateModel,
    batch,
    collocation=None,
    *,
    lambda_physics: float = 0.0,
    geometry: ChannelGeometry | None = None,
) -> LossPass:
    """Data loss, physics loss and their total in one network pass.

    ``batch`` is a tuple of arrays (x_miles, t_hours, h_ft, u_fps);
    ``collocation`` (C, 2) points of (x_miles, t_hours), or None for a
    purely supervised pass.  The data rows come first in the stacked pass.
    """
    x, t, h_true, u_true = batch
    v = _normalize(model, np.atleast_1d(x), np.atleast_1d(t), clamp=False)
    seeds = None
    if collocation is not None:
        v_c, seeds = _collocation_rows(model, collocation[:, 0], collocation[:, 1])
        v = np.concatenate((v, v_c))
    return _loss_pass(model, _features(model, v), h_true, u_true, seeds, lambda_physics, geometry)


def _loss_pass(model, x, h_true, u_true, seeds=None, lambda_physics=0.0, geometry=None) -> LossPass:
    """:func:`forward_loss` from the Fourier features ``x`` of the data rows
    and then of the collocation rows, whose tangent ``seeds`` are given."""
    n_data = x.shape[0] - (0 if seeds is None else seeds.shape[1])
    views = weight_views(model)
    net = _forward(model, views, x, seeds, keep=True)
    err_h = net.h[:n_data] - np.atleast_1d(np.asarray(h_true, dtype=np.float64))
    err_u = net.u[:n_data] - np.atleast_1d(np.asarray(u_true, dtype=np.float64))
    data = float(np.mean(err_h * err_h + err_u * err_u))
    if seeds is None:
        return LossPass(data, 0.0, data, model, views, net, (err_h, err_u), None, None, None, 0.0)
    h = Dual(net.h[n_data:], *net.h_tan)
    u = Dual(net.u[n_data:], *net.u_tan)
    r_c, r_m = _residuals(h, u, geometry)
    physics = float(np.mean(r_c * r_c + r_m * r_m))
    total = float(total_loss(data, physics, lambda_physics))
    return LossPass(
        data, physics, total, model, views, net, (err_h, err_u), (h, u), (r_c, r_m), geometry,
        lambda_physics,
    )


def loss_gradient(lp: LossPass) -> np.ndarray:
    """Flat gradient of ``lp.total`` with respect to the model's weights."""
    err_h, err_u = lp.data_error
    n_data = err_h.size
    n_rows = lp.net.h.size
    g_h = np.zeros(n_rows)
    g_u = np.zeros(n_rows)
    g_h[:n_data] = (2.0 / n_data) * err_h
    g_u[:n_data] = (2.0 / n_data) * err_u
    if lp.residuals is None:
        return _backward(lp.model, lp.views, lp.net, g_h, g_u)
    h, u = lp.duals
    r_c, r_m = lp.residuals
    scale = lp.lambda_physics * 2.0 / r_c.size
    a_c = scale * r_c
    a_m = scale * r_m
    # r_c = h_t + h_x u + h u_x and r_m = u_t + u u_x + g h_x [+ g (S_f(h, u) - S0)]
    g_h[n_data:] = a_c * u.dx
    g_u[n_data:] = a_c * h.dx + a_m * u.dx
    if lp.geometry is not None:
        geom = lp.geometry
        ds_dh, ds_du = friction_slope_partials(geom.width_ft, geom.manning_n, h.value, u.value)
        g_h[n_data:] += G_FT_S2 * a_m * ds_dh
        g_u[n_data:] += G_FT_S2 * a_m * ds_du
    g_h_tan = np.stack((a_c * u.value + G_FT_S2 * a_m, a_c))
    g_u_tan = np.stack((a_c * h.value + a_m * u.value, a_m))
    return _backward(lp.model, lp.views, lp.net, g_h, g_u, g_h_tan, g_u_tan)


def data_loss(model: SurrogateModel, batch) -> float:
    """Mean over the batch of (h_hat - h)^2 + (u_hat - u)^2.

    ``batch`` is a tuple of arrays (x_miles, t_hours, h_ft, u_fps).
    """
    return forward_loss(model, batch).data_loss


def physics_loss(
    model,
    collocation,
    *,
    geometry: ChannelGeometry | None = None,
) -> float:
    """Mean squared residual of the governing equations at collocation points.

    Continuity: r_c = h_t + h_x u + h u_x.  Momentum: r_m = u_t + u u_x +
    g h_x, extended with the g(S_f - S0) friction and bed-slope source when
    the channel ``geometry`` is given.  Any model that
    exposes ``physics_duals(x, t)`` returning depth/velocity duals works
    here, which is how closed-form mock fields are tested.
    """
    pts = np.asarray(collocation, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("collocation must have shape (N, 2)")
    x, t = pts[:, 0], pts[:, 1]
    if isinstance(model, SurrogateModel):
        h, u = physics_duals(model, x, t)
    else:
        h, u = model.physics_duals(x, t)
    r_c, r_m = _residuals(h, u, geometry)
    return float(np.mean(r_c * r_c + r_m * r_m))


def total_loss(data, physics, lambda_physics: float):
    """L = L_data + lambda * L_physics."""
    return data + lambda_physics * physics


# --------------------------------------------------------------------------
# Adam
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AdamState:
    """First/second moment estimates and the bias-correction step counter."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_adam(n_weights: int) -> AdamState:
    return AdamState(m=np.zeros(n_weights), v=np.zeros(n_weights))


def adam_step(weights: np.ndarray, grads: np.ndarray, state: AdamState, lr: float):
    """One bias-corrected Adam update; returns (new_weights, new_state).

    Leaves its inputs alone; computes in the returned arrays plus one scratch.
    """
    if weights.shape != grads.shape:
        raise ValueError(f"gradient shape {grads.shape} != weight shape {weights.shape}")
    finite = np.isfinite(grads)
    if not finite.all():
        raise NonFiniteGradient(int(np.argmax(~finite)))
    t = state.step + 1
    scratch = np.multiply(grads, 1.0 - state.beta1)
    m = np.multiply(state.m, state.beta1)
    m += scratch
    np.multiply(grads, 1.0 - state.beta2, out=scratch)
    scratch *= grads
    v = np.multiply(state.v, state.beta2)
    v += scratch
    np.divide(v, 1.0 - state.beta2**t, out=scratch)  # v_hat
    np.sqrt(scratch, out=scratch)
    scratch += state.eps
    step = np.divide(m, 1.0 - state.beta1**t)  # m_hat
    step *= lr
    step /= scratch
    np.subtract(weights, step, out=step)
    return step, dataclasses.replace(state, m=m, v=v, step=t)


def _learning_rate(config: TrainConfig, iteration: int) -> float:
    return config.lr_initial * config.lr_decay_rate ** (iteration / config.lr_decay_every)


# --------------------------------------------------------------------------
# training loop
# --------------------------------------------------------------------------


def _split_indices(n: int, fraction: float, seed: int):
    """Deterministic validation split shared by train() and grid_search()."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EED]))
    k_val = max(1, int(round(fraction * n)))
    if k_val >= n:
        raise ValueError("validation split leaves no training samples")
    perm = rng.permutation(n)
    return perm[k_val:], perm[:k_val]


def _param_name_at(manifest, flat_index: int) -> str:
    offset = 0
    for name, shape in manifest:
        size = int(np.prod(shape))
        if flat_index < offset + size:
            return name
        offset += size
    return f"<index {flat_index}>"


def train(
    model: SurrogateModel,
    training_set: TrainingSet,
    config: TrainConfig,
    *,
    geometry: ChannelGeometry | None = None,
):
    """Run the hybrid training loop; returns (trained model, loss history).

    A seeded 10 % holdout scores the model every ``record_every``
    iterations (plus once at the final iteration) and the returned model
    carries the best-by-validation weights.  The loop aborts with :class:`TrainingDiverged` (history
    attached) if the total loss exceeds ``divergence_factor`` times its
    initial value or stops being finite.  With ``geometry`` the momentum
    residual carries the friction and bed-slope source.
    """
    ss = np.random.SeedSequence(config.seed)
    batch_seed, colloc_seed = ss.spawn(2)
    rng_batch = np.random.default_rng(batch_seed)
    rng_colloc = np.random.default_rng(colloc_seed)
    train_idx, val_idx = _split_indices(len(training_set), config.validation_fraction, config.seed)

    ts = training_set
    box = ts.norm
    # the samples are fixed: normalize and encode them once, gather per batch
    features = _features(model, _normalize(model, ts.x_miles, ts.t_hours, clamp=False))
    val_rows = (features[val_idx], ts.h_ft[val_idx], ts.u_fps[val_idx])

    weights = model.weights.copy()
    state = init_adam(weights.size)
    history: list[HistoryRow] = []
    best_val = np.inf
    best_weights = weights.copy()
    initial_total = None

    for i in range(config.max_iterations):
        current = dataclasses.replace(model, weights=weights)
        pick = rng_batch.integers(0, train_idx.size, config.batch_size)
        idx = train_idx[pick]
        x, seeds = features[idx], None
        if config.lambda_physics > 0.0:
            x_c = rng_colloc.uniform(box.x_min_miles, box.x_max_miles, config.collocation_count)
            t_c = rng_colloc.uniform(box.t_min_hours, box.t_max_hours, config.collocation_count)
            v_c, seeds = _collocation_rows(current, x_c, t_c)
            x = np.concatenate((x, _features(current, v_c)))
        lp = _loss_pass(
            current,
            x,
            ts.h_ft[idx],
            ts.u_fps[idx],
            seeds,
            lambda_physics=config.lambda_physics,
            geometry=geometry,
        )
        row = HistoryRow(i + 1, lp.data_loss, lp.physics_loss, lp.total, _learning_rate(config, i))

        if initial_total is None:
            initial_total = lp.total
        if not np.isfinite(lp.total) or (
            initial_total > 0 and lp.total > config.divergence_factor * initial_total
        ):
            history.append(row)
            raise TrainingDiverged(
                f"loss {lp.total:.6g} at iteration {i} exceeds "
                f"{config.divergence_factor:g} x initial {initial_total:.6g}",
                history,
                i,
            )

        grads = loss_gradient(lp)
        try:
            weights, state = adam_step(weights, grads, state, _learning_rate(config, i))
        except NonFiniteGradient as err:
            raise ValueError(
                f"non-finite gradient in parameter {_param_name_at(current.manifest, err.index)!r} "
                f"at iteration {i}"
            ) from err

        if (i + 1) % config.record_every == 0 or (i + 1) == config.max_iterations:
            history.append(row)
            candidate = dataclasses.replace(model, weights=weights)
            val = _loss_pass(candidate, *val_rows).data_loss
            if val < best_val:
                best_val = val
                best_weights = weights.copy()

    if config.max_iterations == 0:
        best_weights = weights
    return dataclasses.replace(model, weights=best_weights), history


# --------------------------------------------------------------------------
# hyperparameter grid search
# --------------------------------------------------------------------------


def grid_search(
    training_set: TrainingSet,
    lambdas,
    sigmas,
    budget_iters: int,
    *,
    base_config: TrainConfig | None = None,
    width: int = 64,
    n_blocks: int = 2,
    m: int = 32,
    activation: str = "tanh",
    model_seed: int = 0,
):
    """Short-budget sweep over (lambda, sigma); returns (best pair, table).

    Every cell trains a fresh model for ``budget_iters`` iterations under
    the shared seed and is scored by stage MRAE on the validation split.
    Diverged cells score +inf instead of failing the sweep.  Ties break
    toward smaller sigma, then smaller lambda.
    """
    from .evaluation import mrae  # local import; evaluation depends on this module

    if budget_iters < 1:
        raise ValueError("budget_iters must be positive")
    base = base_config if base_config is not None else TrainConfig()
    _, val_idx = _split_indices(len(training_set), base.validation_fraction, base.seed)
    ts = training_set
    table = []
    scored = []
    for sigma in sigmas:
        for lam in lambdas:
            config = dataclasses.replace(
                base, lambda_physics=float(lam), sigma=float(sigma), max_iterations=budget_iters
            )
            model = init_model(
                ts.norm,
                n_blocks=n_blocks,
                width=width,
                m=m,
                sigma=float(sigma),
                activation=activation,
                seed=model_seed,
                use_fourier=True,
            )
            diverged = False
            score = np.inf
            try:
                trained, _ = train(model, ts, config)
                pred_h, _ = _predict_training_points(trained, ts, val_idx)
                score = mrae(pred_h, ts.h_ft[val_idx])
            except TrainingDiverged:
                diverged = True
            table.append(
                {
                    "lambda_physics": float(lam),
                    "sigma": float(sigma),
                    "val_mrae": float(score),
                    "diverged": diverged,
                }
            )
            scored.append((float(score), float(sigma), float(lam)))
    best = min(scored)
    return (best[2], best[1]), table


def _predict_training_points(model: SurrogateModel, ts: TrainingSet, idx):
    from .surrogate import predict_batch

    points = np.column_stack([ts.x_miles[idx], ts.t_hours[idx]])
    return predict_batch(model, points)
