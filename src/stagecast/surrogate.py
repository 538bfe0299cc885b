"""Fourier-feature residual MLP surrogate for stage and velocity fields.

The network maps a normalized space-time coordinate to (depth, velocity)
at that point.  Coordinates are scaled into the unit square, lifted by a
random Fourier encoding whose projection matrix is frozen at
initialization, pushed through residual blocks, and decoded by a linear
head.  Depth passes through a softplus plus a small floor so predictions
are always physically positive.

One forward pass serves inference, input derivatives and training.  It
takes value rows and, optionally, tangent rows -- the derivatives of the
input rows along x and t (forward mode).  All rows are stacked, so each
linear layer is one gemm; biases, activations and the softplus act on the
value rows, and the tangent rows are scaled by the activation slope at
their value rows.  The backward pass is written out by hand for this one
chain: two gemms per layer plus the slope terms, and, for the tangent
rows, the second derivatives of the activations (forward-over-reverse).
Inference runs the same pass without tangent rows, on fixed 64-row blocks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import HOUR_S, MILE_FT, RiverScenario

__all__ = [
    "DEPTH_FLOOR_FT",
    "Dual",
    "ExtrapolationWarning",
    "NormalizationBox",
    "FourierEncoder",
    "SurrogateModel",
    "init_model",
    "encode",
    "weight_views",
    "predict",
    "predict_batch",
    "physics_duals",
    "box_for_scenario",
]

DEPTH_FLOOR_FT = 0.01  # keeps predicted depth strictly positive
_ACTIVATIONS = ("relu", "tanh")


class ExtrapolationWarning(UserWarning):
    """Issued when a query point falls outside the normalization box."""


class Dual(NamedTuple):
    """A field value with its derivatives along x (per foot) and t (per second)."""

    value: np.ndarray
    dx: np.ndarray
    dt: np.ndarray


@dataclass(frozen=True)
class NormalizationBox:
    """Physical coordinate ranges mapped onto the unit square."""

    x_min_miles: float
    x_max_miles: float
    t_min_hours: float
    t_max_hours: float

    def __post_init__(self):
        if not self.x_max_miles > self.x_min_miles:
            raise ValueError("normalization box is degenerate in x")
        if not self.t_max_hours > self.t_min_hours:
            raise ValueError("normalization box is degenerate in t")


def box_for_scenario(scenario: RiverScenario) -> NormalizationBox:
    return NormalizationBox(0.0, scenario.geometry.length_miles, 0.0, scenario.t_total_hours)


@dataclass(frozen=True)
class FourierEncoder:
    """Random Fourier feature map gamma(v) = [cos(2 pi B v); sin(2 pi B v)].

    ``b_matrix`` has shape (m, 2) with entries drawn N(0, sigma^2) once and
    never trained; the array is marked read-only to keep it that way.
    """

    b_matrix: np.ndarray
    sigma: float

    def __post_init__(self):
        b = np.asarray(self.b_matrix, dtype=np.float64).copy()
        if b.ndim != 2 or b.shape[1] != 2:
            raise ValueError("b_matrix must have shape (m, 2)")
        b.setflags(write=False)
        object.__setattr__(self, "b_matrix", b)

    @property
    def m(self) -> int:
        return self.b_matrix.shape[0]

    @property
    def output_dim(self) -> int:
        return 2 * self.m


def encode(encoder: FourierEncoder, v):
    """Encode normalized coordinates ``v`` of shape (..., 2) to (..., 2m).

    The cosine block comes first, then the sine block.
    """
    arg = (v @ encoder.b_matrix.T) * (2.0 * np.pi)
    return np.concatenate((np.cos(arg), np.sin(arg)), axis=-1)


@dataclass
class SurrogateModel:
    """The trainable surrogate: encoder, weights, and normalization.

    ``weights`` is one flat float64 vector; ``manifest`` records the layer
    name and shape of each contiguous segment, in storage order.  Residual
    blocks hold two affine layers with the activation between them and an
    identity skip; each block's second layer starts at zero, so a freshly
    initialized network is near-identity around its input projection.
    """

    encoder: FourierEncoder | None
    weights: np.ndarray
    manifest: tuple[tuple[str, tuple[int, ...]], ...]
    width: int
    n_blocks: int
    activation: str
    norm: NormalizationBox
    seed: int

    output_datum = "depth"  # predictions are depth above bed, not elevation

    @property
    def uses_fourier(self) -> bool:
        return self.encoder is not None

    @property
    def n_weights(self) -> int:
        return self.weights.size


def _manifest(in_dim: int, width: int, n_blocks: int):
    entries = [("proj.W", (in_dim, width)), ("proj.b", (width,))]
    for k in range(n_blocks):
        entries.append((f"block{k}.W1", (width, width)))
        entries.append((f"block{k}.b1", (width,)))
        entries.append((f"block{k}.W2", (width, width)))
        entries.append((f"block{k}.b2", (width,)))
    entries.append(("head.W", (width, 2)))
    entries.append(("head.b", (2,)))
    return tuple(entries)


def _views(manifest, flat: np.ndarray) -> dict[str, np.ndarray]:
    views = {}
    offset = 0
    for name, shape in manifest:
        size = math.prod(shape)
        views[name] = flat[offset : offset + size].reshape(shape)
        offset += size
    return views


def weight_views(model: SurrogateModel) -> dict[str, np.ndarray]:
    """Name -> array view into the flat weight vector (shared memory)."""
    return _views(model.manifest, model.weights)


def init_model(
    norm: NormalizationBox,
    *,
    n_blocks: int = 6,
    width: int = 512,
    m: int = 128,
    sigma: float = 4.0,
    activation: str = "relu",
    seed: int = 0,
    use_fourier: bool = True,
) -> SurrogateModel:
    """Create a surrogate with Kaiming fan-in initialization.

    With ``use_fourier`` off the raw normalized coordinates feed the input
    projection directly (the ablation baseline).  The Fourier matrix and
    the weights come from one seeded generator, so a seed pins the entire
    starting state.
    """
    if activation not in _ACTIVATIONS:
        raise ValueError(f"activation must be one of {_ACTIVATIONS}")
    rng = np.random.default_rng(seed)
    encoder = None
    in_dim = 2
    if use_fourier:
        encoder = FourierEncoder(rng.normal(0.0, sigma, size=(m, 2)), float(sigma))
        in_dim = encoder.output_dim

    manifest = _manifest(in_dim, width, n_blocks)
    total = sum(int(np.prod(shape)) for _, shape in manifest)
    flat = np.zeros(total, dtype=np.float64)
    gain = 2.0 if activation == "relu" else 1.0
    offset = 0
    for name, shape in manifest:
        size = int(np.prod(shape))
        if name.endswith(".W") or name.endswith(".W1"):
            fan_in = shape[0]
            flat[offset : offset + size] = rng.normal(
                0.0, np.sqrt(gain / fan_in), size=size
            )
        # biases and each block's closing layer stay zero
        offset += size
    return SurrogateModel(
        encoder=encoder,
        weights=flat,
        manifest=manifest,
        width=width,
        n_blocks=n_blocks,
        activation=activation,
        norm=norm,
        seed=seed,
    )


# --------------------------------------------------------------------------
# forward and backward
# --------------------------------------------------------------------------


class _Pass(NamedTuple):
    """Outputs of one forward pass, and the rows its backward pass reads."""

    h: np.ndarray  # (N,) depth at the value rows
    u: np.ndarray  # (N,) velocity at the value rows
    h_tan: np.ndarray | None  # (K, C) depth tangents of the last C value rows
    u_tan: np.ndarray | None  # (K, C) velocity tangents
    inputs: list  # input rows of each linear layer: proj, (W1, W2) per block, head
    pre: list  # pre-activation rows of each block (both lists empty unless kept)
    out: np.ndarray  # head output rows


def _affine(x, w, b, n):
    """x @ w, plus the bias on the first ``n`` (value) rows."""
    y = x @ w
    y[:n] += b
    return y


def _slope(activation: str, a):
    """Activation slope at value rows whose activations are ``a``.

    The relu slope is the mask a > 0, so its subgradient at 0 is 0.
    """
    return a > 0.0 if activation == "relu" else 1.0 - a * a


def _sigmoid(x):
    """Logistic function (the softplus slope); its exp never overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def _forward(model: SurrogateModel, views, v, seeds=None, keep: bool = False) -> _Pass:
    """The network on value rows ``v`` (N, 2) and, optionally, tangent rows.

    ``seeds`` (K, C, 2) holds K input directions for each of the last C
    value rows.  Rows are stacked as ``[values; direction 1; ...]``.  With
    ``keep`` the pass holds every layer's rows for :func:`_backward`;
    without it they are freed as the pass goes.
    """
    n = v.shape[0]
    tangents = seeds is not None
    if tangents:
        k, c = seeds.shape[:2]
        seed_rows = seeds.reshape(k * c, 2)
    if model.uses_fourier:
        x = encode(model.encoder, v)
        if tangents:
            m = model.encoder.m
            arg = ((seed_rows @ model.encoder.b_matrix.T) * (2.0 * np.pi)).reshape(k, c, m)
            cos_c, sin_c = x[n - c :, :m], x[n - c :, m:]
            x_tan = np.concatenate((-sin_c * arg, cos_c * arg), axis=-1)
            x = np.concatenate((x, x_tan.reshape(k * c, 2 * m)))
    else:
        x = np.concatenate((v, seed_rows)) if tangents else v

    inputs = [x] if keep else []
    pre = []
    z = _affine(x, views["proj.W"], views["proj.b"], n)
    for b in range(model.n_blocks):
        p = _affine(z, views[f"block{b}.W1"], views[f"block{b}.b1"], n)
        a = np.empty_like(p)
        if model.activation == "relu":
            np.maximum(p[:n], 0.0, out=a[:n])
        else:
            np.tanh(p[:n], out=a[:n])
        if tangents:
            slope = _slope(model.activation, a[n - c : n])
            np.multiply(p[n:].reshape(k, c, -1), slope, out=a[n:].reshape(k, c, -1))
        if keep:
            inputs += [z, a]
            pre.append(p)
        z = z + _affine(a, views[f"block{b}.W2"], views[f"block{b}.b2"], n)
    if keep:
        inputs.append(z)
    out = _affine(z, views["head.W"], views["head.b"], n)
    h = np.logaddexp(0.0, out[:n, 0]) + DEPTH_FLOOR_FT
    h_tan = u_tan = None
    if tangents:
        out_tan = out[n:].reshape(k, c, 2)
        h_tan = _sigmoid(out[n - c : n, 0]) * out_tan[..., 0]
        u_tan = out_tan[..., 1]
    return _Pass(h, out[:n, 1], h_tan, u_tan, inputs, pre, out)


def _backward(model: SurrogateModel, views, fwd: _Pass, g_h, g_u, g_h_tan=None, g_u_tan=None):
    """Flat weight gradient of a scalar, given its adjoints at the outputs.

    ``g_h``/``g_u`` (N,) are the adjoints of depth and velocity at the value
    rows, ``g_h_tan``/``g_u_tan`` (K, C) those of the tangents, when the
    forward pass carried tangent rows.
    """
    n = fwd.h.size
    out = fwd.out
    grad = np.empty(model.n_weights)
    grads = _views(model.manifest, grad)

    def affine(x, g, layer, bias):
        np.matmul(x.T, g, out=grads[layer])
        np.sum(g[:n], axis=0, out=grads[bias])
        return g @ views[layer].T

    sig = _sigmoid(out[:n, 0])
    g = np.empty_like(out)
    g[:n, 0] = g_h * sig
    g[:n, 1] = g_u
    tangents = g_h_tan is not None
    if tangents:
        k, c = g_h_tan.shape
        sig_c = sig[n - c :]
        g_tan = g[n:].reshape(k, c, 2)
        g_tan[..., 0] = g_h_tan * sig_c
        g_tan[..., 1] = g_u_tan
        # h_tan = sigmoid(out) * out_tan also moves with the value row
        g[n - c : n, 0] += sig_c * (1.0 - sig_c) * (g_h_tan * out[n:, 0].reshape(k, c)).sum(axis=0)

    g_z = affine(fwd.inputs[-1], g, "head.W", "head.b")
    for b in reversed(range(model.n_blocks)):
        z_in, a = fwd.inputs[1 + 2 * b], fwd.inputs[2 + 2 * b]
        g_a = affine(a, g_z, f"block{b}.W2", f"block{b}.b2")
        slope = _slope(model.activation, a[:n])
        g_p = np.empty_like(g_a)
        np.multiply(g_a[:n], slope, out=g_p[:n])
        if tangents:
            g_a_tan = g_a[n:].reshape(k, c, -1)
            np.multiply(g_a_tan, slope[n - c :], out=g_p[n:].reshape(k, c, -1))
            if model.activation == "tanh":
                # a_tan = (1 - a^2) p_tan; d(1 - a^2)/dp = -2 a (1 - a^2); relu's is 0
                p_tan = fwd.pre[b][n:].reshape(k, c, -1)
                curvature = -2.0 * a[n - c : n] * slope[n - c :]
                g_p[n - c : n] += curvature * (p_tan * g_a_tan).sum(axis=0)
        g_z = g_z + affine(z_in, g_p, f"block{b}.W1", f"block{b}.b1")
    np.matmul(fwd.inputs[0].T, g_z, out=grads["proj.W"])
    np.sum(g_z[:n], axis=0, out=grads["proj.b"])
    return grad


# --------------------------------------------------------------------------
# inference and input derivatives
# --------------------------------------------------------------------------


def _normalize(model: SurrogateModel, x_miles, t_hours, clamp: bool) -> np.ndarray:
    """Physical coordinates -> (N, 2) rows of unit-square coordinates."""
    box = model.norm
    x = np.asarray(x_miles, dtype=np.float64)
    t = np.asarray(t_hours, dtype=np.float64)
    if clamp:
        outside = (
            (x < box.x_min_miles)
            | (x > box.x_max_miles)
            | (t < box.t_min_hours)
            | (t > box.t_max_hours)
        )
        if np.any(outside):
            warnings.warn(
                f"{int(np.count_nonzero(outside))} query point(s) outside the "
                "normalization box; clamping to the box",
                ExtrapolationWarning,
                stacklevel=3,
            )
            x = np.clip(x, box.x_min_miles, box.x_max_miles)
            t = np.clip(t, box.t_min_hours, box.t_max_hours)
    xhat = (x - box.x_min_miles) / (box.x_max_miles - box.x_min_miles)
    that = (t - box.t_min_hours) / (box.t_max_hours - box.t_min_hours)
    return np.column_stack([xhat, that])


def _collocation_rows(model: SurrogateModel, x_miles, t_hours):
    """Value rows and their (2, C, 2) tangent seeds: d/dx per foot, d/dt per second."""
    v = _normalize(model, x_miles, t_hours, clamp=False)
    box = model.norm
    seeds = np.zeros((2,) + v.shape)
    seeds[0, :, 0] = 1.0 / ((box.x_max_miles - box.x_min_miles) * MILE_FT)
    seeds[1, :, 1] = 1.0 / ((box.t_max_hours - box.t_min_hours) * HOUR_S)
    return v, seeds


_INFERENCE_BLOCK = 64


def _forward_plain(model: SurrogateModel, v: np.ndarray):
    # BLAS picks different gemm kernels for different row counts and their
    # rounding can disagree in the last ulp, which would break the contract
    # that a batched prediction equals the same points predicted one at a
    # time.  Rows within a fixed-shape gemm are position-independent, so
    # every inference forward runs on exactly _INFERENCE_BLOCK rows: the
    # input is zero-padded to whole blocks and processed block by block.
    n = v.shape[0]
    views = weight_views(model)
    rows = -(-n // _INFERENCE_BLOCK) * _INFERENCE_BLOCK
    padded = np.zeros((rows, v.shape[1]))
    padded[:n] = v
    h = np.empty(rows)
    u = np.empty(rows)
    for start in range(0, rows, _INFERENCE_BLOCK):
        block = slice(start, start + _INFERENCE_BLOCK)
        fwd = _forward(model, views, padded[block])
        h[block] = fwd.h
        u[block] = fwd.u
    return h[:n], u[:n]


def predict(model: SurrogateModel, x_miles: float, t_hours: float) -> tuple[float, float]:
    """Depth (ft) and velocity (ft/s) at one point.

    Points outside the normalization box are clamped onto it, with an
    :class:`ExtrapolationWarning`.
    """
    h, u = _forward_plain(model, _normalize(model, float(x_miles), float(t_hours), clamp=True))
    return float(h[0]), float(u[0])


def predict_batch(model: SurrogateModel, points) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`predict` over an (N, 2) array of (x_miles, t_hours)."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must have shape (N, 2)")
    if pts.shape[0] == 0:
        return np.zeros(0), np.zeros(0)
    return _forward_plain(model, _normalize(model, pts[:, 0], pts[:, 1], clamp=True))


def physics_duals(model: SurrogateModel, x_miles, t_hours) -> tuple[Dual, Dual]:
    """Depth and velocity with their input derivatives in physical units.

    Returns ``(h, u)`` as :class:`Dual` values whose ``dx`` components are
    derivatives with respect to feet and ``dt`` with respect to seconds --
    the units the governing equations are written in.
    """
    v, seeds = _collocation_rows(model, x_miles, t_hours)
    fwd = _forward(model, weight_views(model), v, seeds)
    return Dual(fwd.h, *fwd.h_tan), Dual(fwd.u, *fwd.u_tan)
