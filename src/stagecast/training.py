"""Hybrid data/physics training for the stage surrogate.

The loss is ``L = L_data + lambda * L_physics``: a mean-squared data misfit
on solver samples plus the mean-squared residual of the shallow-water
equations at freshly drawn collocation points: continuity, and momentum
without a source term (no friction, no bed slope).  Each iteration runs
the network once over the data rows followed by the collocation rows
(:func:`forward_loss`); given the count of collocation rows, the network
adds their x and t tangent rows itself.  The residuals and their partials
live in one function, :func:`_residuals`; the pass contracts those
partials into the adjoints of the network's outputs and returns them, and
:func:`loss_gradient` hands them to the network's hand-written backward
pass.  The samples are fixed, so :func:`train` encodes them once per run
and gathers each batch's rows; only the fresh collocation points are
encoded per iteration.  Every buffer an iteration writes is made once per
run: the network's workspace for the stacked pass and its gradient, one
for the validation rows, and Adam's state.  Both workspaces hold the one
model the run builds; Adam updates its weights, and its own moments and
step, in place.  The optimizer is Adam with an exponentially decaying
learning rate.  :func:`train` alone checks each step, its loss and its
squared gradient norm, and a step that fails raises
:class:`TrainingDiverged`.  Everything is seeded, and the supervised
batch stream is independent of the physics settings, so runs that share a
seed share their batches exactly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import G_FT_S2, RiverScenario
from .solver import FlowField
from .surrogate import (
    Dual,
    NormalizationBox,
    SurrogateModel,
    _backward,
    _features,
    _forward,
    _normalize,
    _Workspace,
    box_for_scenario,
    physics_duals,
)

__all__ = [
    "TrainConfig",
    "TrainingSet",
    "AdamState",
    "HistoryRow",
    "LossPass",
    "TrainingDiverged",
    "build_training_set",
    "data_loss",
    "physics_loss",
    "forward_loss",
    "loss_gradient",
    "init_adam",
    "adam_step",
    "train",
]

_VALIDATION_FRACTION = 0.1  # share of the samples held out to pick the best weights
_DIVERGENCE_FACTOR = 1e6  # a total loss this many times the first one aborts the run


class TrainingDiverged(RuntimeError):
    """Training blew past the divergence guard; carries the partial history,
    whose last row is the failing step."""

    def __init__(self, message: str, history: list):
        super().__init__(message)
        self.history = history


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training run.

    ``sigma`` is read by no code in this package (:func:`train` uses the
    model's own encoder); a caller may set it to record the bandwidth.
    ``collocation_per_batch`` defaults to the batch size.  The learning
    rate follows ``lr_initial * lr_decay_rate ** (i / lr_decay_every)``.
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

    def __post_init__(self):
        if not 0.0 <= self.lambda_physics < np.inf:
            raise ValueError("lambda_physics must be finite and non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.collocation_per_batch is not None and self.collocation_per_batch < 1:
            raise ValueError("collocation_per_batch must be positive")
        if not 0.0 < self.lr_initial < np.inf:
            raise ValueError("lr_initial must be finite and positive")
        if not 0.0 < self.lr_decay_rate <= 1.0:
            raise ValueError("lr_decay_rate must be in (0, 1]")
        if self.lr_decay_every < 1:
            raise ValueError("lr_decay_every must be positive")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be non-negative")
        if self.record_every < 1:
            raise ValueError("record_every must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    @property
    def collocation_count(self) -> int:
        return self.batch_size if self.collocation_per_batch is None else self.collocation_per_batch


@dataclass(frozen=True)
class TrainingSet:
    """Solver samples: (x_miles, t_hours) rows with their depth and velocity,
    plus the normalization box they live in."""

    points: np.ndarray
    h_ft: np.ndarray
    u_fps: np.ndarray
    norm: NormalizationBox

    def __post_init__(self):
        n = self.h_ft.size
        if self.points.shape != (n, 2) or self.u_fps.size != n:
            raise ValueError("training set columns differ in length")
        if n < 2:
            raise ValueError("training set needs at least two samples")

    def __len__(self) -> int:
        return self.h_ft.size


def build_training_set(field: FlowField, scenario: RiverScenario) -> TrainingSet:
    """Flatten a solved field into (x, t, h, u) samples."""
    return TrainingSet(field.points, field.h.ravel(), field.u.ravel(), box_for_scenario(scenario))


class HistoryRow(NamedTuple):
    iteration: int
    data_loss: float
    physics_loss: float
    total_loss: float
    lr: float


# --------------------------------------------------------------------------
# losses
# --------------------------------------------------------------------------


def _residuals(h: Dual, u: Dual):
    """Continuity and momentum residuals, without a friction or bed-slope
    source, each as ``(r, partials)``: its partials along (h, u, h_x, h_t,
    u_x, u_t), an array or a constant each."""
    r_c = h.dt + h.dx * u.value + h.value * u.dx
    r_m = u.dt + u.value * u.dx + G_FT_S2 * h.dx
    d_c = (u.dx, h.dx, u.value, 1.0, h.value, 0.0)
    d_m = (0.0, u.dx, G_FT_S2, 0.0, u.value, 1.0)
    return (r_c, d_c), (r_m, d_m)


class LossPass(NamedTuple):
    """The loss at one set of weights, with the adjoints :func:`loss_gradient` reads."""

    data_loss: float
    physics_loss: float
    total: float
    net: _Workspace  # the network's pass over [data; collocation; tangent] rows
    adjoints: tuple  # d total / d (h, u) at every value row, then at the (2, C) tangents, if any


def forward_loss(
    model: SurrogateModel,
    batch,
    collocation=None,
    *,
    lambda_physics: float = 0.0,
) -> LossPass:
    """Data loss, physics loss and their total in one network pass.

    ``batch`` is a tuple of arrays (x_miles, t_hours, h_ft, u_fps);
    ``collocation`` (C, 2) points of (x_miles, t_hours), or None for a
    purely supervised pass.  The data rows come first in the stacked pass,
    which has buffers of its own.
    """
    x, t, h_true, u_true = batch
    points = np.column_stack((np.atleast_1d(x), np.atleast_1d(t)))
    c = 0
    if collocation is not None:
        c = len(collocation)
        points = np.concatenate((points, collocation))
    net = _Workspace(model, len(points), c, grad=True)
    _features(model, _normalize(model, points, clamp=False), net.x[: len(points)])
    return _loss_pass(net, h_true, u_true, lambda_physics)


def _loss_pass(net: _Workspace, h_true, u_true, lambda_physics=0.0) -> LossPass:
    """:func:`forward_loss` on the pass ``net``, whose input rows hold the
    features of the data rows and then of its ``net.c`` collocation rows."""
    c = net.c
    n_data = net.n - c
    _forward(net)
    err_h = net.h[:n_data] - np.atleast_1d(np.asarray(h_true, dtype=np.float64))
    err_u = net.u[:n_data] - np.atleast_1d(np.asarray(u_true, dtype=np.float64))
    data = float(np.mean(err_h * err_h + err_u * err_u))
    g_h, g_u = (2.0 / n_data) * err_h, (2.0 / n_data) * err_u
    if not c:
        return LossPass(data, 0.0, data, net, (g_h, g_u))
    h = Dual(net.h[n_data:], *net.h_tan)
    u = Dual(net.u[n_data:], *net.u_tan)
    (r_c, d_c), (r_m, d_m) = _residuals(h, u)
    physics = float(np.mean(r_c * r_c + r_m * r_m))
    scale = lambda_physics * 2.0 / c
    a_c, a_m = scale * r_c, scale * r_m
    # the adjoint of each output is a_c dr_c/d(output) + a_m dr_m/d(output)
    p_h, p_u, p_hx, p_ht, p_ux, p_ut = (a_c * p + a_m * q for p, q in zip(d_c, d_m))
    adjoints = (np.concatenate((g_h, p_h)), np.concatenate((g_u, p_u)),
                np.stack((p_hx, p_ht)), np.stack((p_ux, p_ut)))
    return LossPass(data, physics, data + lambda_physics * physics, net, adjoints)


def loss_gradient(lp: LossPass) -> np.ndarray:
    """Flat gradient of ``lp.total`` with respect to the weights of ``lp.net.model``."""
    return _backward(lp.net, *lp.adjoints)


def data_loss(model: SurrogateModel, batch) -> float:
    """Mean over the batch of (h_hat - h)^2 + (u_hat - u)^2.

    ``batch`` is a tuple of arrays (x_miles, t_hours, h_ft, u_fps).
    """
    return forward_loss(model, batch).data_loss


def physics_loss(model, collocation) -> float:
    """Mean squared residual of the governing equations at collocation points.

    Continuity: r_c = h_t + h_x u + h u_x.  Momentum: r_m = u_t + u u_x +
    g h_x, with no friction or bed-slope source.  Any model that exposes
    ``physics_duals(x, t)`` returning depth/velocity duals works here,
    which is how closed-form mock fields are tested.
    """
    pts = np.asarray(collocation, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("collocation must have shape (N, 2)")
    x, t = pts[:, 0], pts[:, 1]
    if isinstance(model, SurrogateModel):
        h, u = physics_duals(model, x, t)
    else:
        h, u = model.physics_duals(x, t)
    (r_c, _), (r_m, _) = _residuals(h, u)
    return float(np.mean(r_c * r_c + r_m * r_m))


# --------------------------------------------------------------------------
# Adam
# --------------------------------------------------------------------------


_BETA1 = 0.9  # Adam's first-moment decay
_BETA2 = 0.999  # Adam's second-moment decay
_EPS = 1e-8  # Adam's denominator floor


@dataclass
class AdamState:
    """First/second moment estimates, the bias-correction step counter, and
    two scratch rows for the update; :func:`adam_step` updates all of them
    in place, and :func:`init_adam` makes them."""

    m: np.ndarray
    v: np.ndarray
    step: int
    scratch: np.ndarray  # (2, n_weights)


def init_adam(n_weights: int) -> AdamState:
    return AdamState(m=np.zeros(n_weights), v=np.zeros(n_weights), step=0,
                     scratch=np.empty((2, n_weights)))


def adam_step(weights: np.ndarray, grads: np.ndarray, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update of ``weights`` and ``state``, in place.

    Leaves the gradient alone.  It trusts the gradient: :func:`train` checks
    it first.
    """
    if weights.shape != grads.shape:
        raise ValueError(f"gradient shape {grads.shape} != weight shape {weights.shape}")
    state.step += 1
    t, m, v = state.step, state.m, state.v
    scratch, update = state.scratch
    np.multiply(grads, 1.0 - _BETA1, out=scratch)
    m *= _BETA1
    m += scratch
    np.multiply(grads, 1.0 - _BETA2, out=scratch)
    scratch *= grads
    v *= _BETA2
    v += scratch
    np.divide(v, 1.0 - _BETA2**t, out=scratch)  # v_hat
    np.sqrt(scratch, out=scratch)
    scratch += _EPS
    np.divide(m, 1.0 - _BETA1**t, out=update)  # m_hat
    update *= lr
    update /= scratch
    weights -= update


def _learning_rate(config: TrainConfig, iteration: int) -> float:
    return config.lr_initial * config.lr_decay_rate ** (iteration / config.lr_decay_every)


# --------------------------------------------------------------------------
# training loop
# --------------------------------------------------------------------------


def _split_indices(n: int, seed: int):
    """Deterministic (train, validation) split of ``n >= 2`` samples."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EED]))
    k_val = max(1, int(round(_VALIDATION_FRACTION * n)))
    perm = rng.permutation(n)
    return perm[k_val:], perm[:k_val]


def _param_name_at(model: SurrogateModel, flat_index: int) -> str:
    """The name of the weight array that holds flat component ``flat_index``."""
    for name, view in model.views.items():
        if flat_index < view.size:
            return name
        flat_index -= view.size


def train(
    model: SurrogateModel,
    training_set: TrainingSet,
    config: TrainConfig,
):
    """Run the hybrid training loop; returns (trained model, loss history).

    A seeded 10 % holdout scores the model every ``record_every``
    iterations (plus once at the final iteration) and the returned model
    carries the best-by-validation weights.  :class:`TrainingDiverged`, with
    the history and the failing row last, ends a step whose total loss passes
    a million times the first or is not finite, or whose squared gradient
    norm is not finite: a NaN or inf, or a size that would overflow Adam.
    """
    if training_set.norm != model.norm:  # collocation is drawn in one box, normalized by the other
        raise ValueError("training set box does not match the model's normalization box")
    ss = np.random.SeedSequence(config.seed)
    batch_seed, colloc_seed = ss.spawn(2)
    rng_batch = np.random.default_rng(batch_seed)
    rng_colloc = np.random.default_rng(colloc_seed)
    train_idx, val_idx = _split_indices(len(training_set), config.seed)

    ts = training_set
    n_data = config.batch_size
    c = config.collocation_count if config.lambda_physics > 0.0 else 0
    current = dataclasses.replace(model, weights=model.weights.copy())  # adam_step writes these
    # the pass of every iteration, and of every validation, writes into buffers made here
    net = _Workspace(current, n_data + c, c, grad=True)
    val_net = _Workspace(current, val_idx.size)
    # the samples are fixed: normalize and encode them once, gather per batch
    features = np.empty((len(ts), net.x.shape[1]))
    _features(current, _normalize(current, ts.points, clamp=False), features)
    np.take(features, val_idx, axis=0, out=val_net.x)
    val_h, val_u = ts.h_ft[val_idx], ts.u_fps[val_idx]

    state = init_adam(current.n_weights)
    history: list[HistoryRow] = []
    best_val = np.inf
    best_weights = model.weights.copy()
    initial_total = None

    for i in range(config.max_iterations):
        pick = rng_batch.integers(0, train_idx.size, n_data)
        idx = train_idx[pick]
        np.take(features, idx, axis=0, out=net.x[:n_data])
        if c:
            colloc = _normalize(current, ts.norm.sample(rng_colloc, c), clamp=False)
            _features(current, colloc, net.x[n_data : n_data + c])
        lr = _learning_rate(config, i)
        failure = None
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is the guards' to judge
            lp = _loss_pass(net, ts.h_ft[idx], ts.u_fps[idx], config.lambda_physics)
            if initial_total is None:
                initial_total = lp.total
            if not np.isfinite(lp.total) or (
                initial_total > 0 and lp.total > _DIVERGENCE_FACTOR * initial_total
            ):
                failure = (f"loss {lp.total:.6g} exceeds {_DIVERGENCE_FACTOR:g} x initial "
                           f"{initial_total:.6g}")
            else:
                grads = loss_gradient(lp)
                if not np.isfinite(np.vdot(grads, grads)):  # vdot overflows to inf silently
                    name = _param_name_at(current, int(np.argmax(np.abs(grads))))  # NaN, else max
                    failure = f"gradient not finite or overflowing in parameter {name!r}"
        row = HistoryRow(i + 1, lp.data_loss, lp.physics_loss, lp.total, lr)
        if failure:
            history.append(row)
            raise TrainingDiverged(f"{failure} at iteration {row.iteration}", history)

        adam_step(current.weights, grads, state, lr)

        if (i + 1) % config.record_every == 0 or (i + 1) == config.max_iterations:
            history.append(row)
            val = _loss_pass(val_net, val_h, val_u).data_loss
            if val < best_val:
                best_val = val
                np.copyto(best_weights, current.weights)

    return dataclasses.replace(model, weights=best_weights), history
