"""Fourier-feature residual MLP surrogate for stage and velocity fields.

The network maps a normalized space-time coordinate to (depth, velocity)
at that point.  Coordinates are scaled into the unit square, lifted by a
random Fourier encoding whose projection matrix is frozen at
initialization, pushed through residual blocks, and decoded by a linear
head.  Depth passes through a softplus plus a small floor so predictions
are always physically positive.

One forward pass serves inference, input derivatives and training.  It
runs value rows, and the tangent rows of the last ``c`` of them: their
derivatives along x (per foot) and t (per second), built from the
normalization box (forward mode).  All rows are stacked, so each linear
layer is one gemm, or in inference a few of at most 128 rows; biases,
activations and the softplus act on the value rows, and the tangent rows
are scaled by the activation slope at their value rows.  The pass starts
from the Fourier features, so training encodes its fixed samples once per
run.  It writes every layer's rows into a workspace made once for its
model and shape: once per training run, and once per inference call and
thread (a span holds at most 512 stacked rows).  A pass holds its model,
so it cannot run one model's weights with another's encoder or box.  Its
ufuncs take ``out`` positionally, which numpy parses in about half the
time of the keyword, a saving a 4-row ``predict`` can measure.  The
backward pass is written out by hand for this one chain: two gemms per
layer plus the slope terms the forward pass stored, and, for the tangent
rows, the second derivatives of the activations (forward-over-reverse);
it writes into the same workspace and its one gradient vector.
Inference runs the same pass on the query rows, zero-padded to whole
4-row tiles and cut once, into spans of at most 512 stacked rows on at
most two threads: a span's Fourier projection is one gemm, and its layer
gemms take at most 128 rows; ``physics_duals`` adds every row's tangents.

A model makes its weight views once, and every pass reads them.  Every
query, one point or a batch, is normalized by one function, which
rejects a non-finite coordinate and clamps a point outside the box.
"""

from __future__ import annotations

import collections
import functools
import math
import os
import threading
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import HOUR_S, MILE_FT, RiverScenario

__all__ = [
    "ACTIVATIONS",
    "DEPTH_FLOOR_FT",
    "Dual",
    "ExtrapolationWarning",
    "NormalizationBox",
    "FourierEncoder",
    "SurrogateModel",
    "init_model",
    "encode",
    "predict",
    "predict_batch",
    "physics_duals",
    "box_for_scenario",
]

DEPTH_FLOOR_FT = 0.01  # keeps predicted depth strictly positive
ACTIVATIONS = ("relu", "tanh")  # the hidden activations a model may use


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
        for axis, lo, hi in (
            ("x", self.x_min_miles, self.x_max_miles),
            ("t", self.t_min_hours, self.t_max_hours),
        ):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"normalization box is not finite in {axis}")
            if not hi > lo:
                raise ValueError(f"normalization box is degenerate in {axis}")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` uniform (x_miles, t_hours) rows: all x draws, then all t draws."""
        return np.column_stack((
            rng.uniform(self.x_min_miles, self.x_max_miles, n),
            rng.uniform(self.t_min_hours, self.t_max_hours, n),
        ))


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
        if b.shape[0] < 1:
            raise ValueError("m must be positive")
        if not math.isfinite(self.sigma):
            raise ValueError("sigma must be finite")
        if not np.isfinite(b).all():
            raise ValueError("b_matrix must be finite")
        b.setflags(write=False)
        object.__setattr__(self, "b_matrix", b)

    @property
    def m(self) -> int:
        return self.b_matrix.shape[0]

    @property
    def output_dim(self) -> int:
        return 2 * self.m


def encode(encoder: FourierEncoder, v, out=None):
    """Encode normalized coordinates ``v`` of shape (..., 2) to (..., 2m),
    written into ``out`` when it is given.

    The cosine block comes first, then the sine block.
    """
    arg = v @ encoder.b_matrix.T
    arg *= 2.0 * np.pi
    if out is None:
        out = np.empty((*arg.shape[:-1], encoder.output_dim))
    np.cos(arg, out[..., : encoder.m])
    np.sin(arg, out[..., encoder.m :])
    return out


@dataclass(frozen=True)
class SurrogateModel:
    """The trainable surrogate: encoder, weights, and normalization.

    ``weights`` is one flat float64 vector; ``manifest`` records the layer
    name and shape of each contiguous segment, in storage order, and
    ``views`` a view of each; the model is frozen, so they cannot go stale.
    A model checks its weight count in closed form, without a manifest,
    and refuses a non-finite weight, naming the first.
    Residual blocks hold two affine layers with the activation between
    them and an identity skip; each block's second layer starts at zero,
    so a freshly initialized network is near-identity around its input
    projection.
    """

    encoder: FourierEncoder | None
    weights: np.ndarray
    width: int
    n_blocks: int
    activation: str
    norm: NormalizationBox
    seed: int

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")
        if self.width < 1:
            raise ValueError("width must be positive")
        if self.n_blocks < 0:
            raise ValueError("n_blocks must be non-negative")
        in_dim = self.encoder.output_dim if self.uses_fourier else 2
        expected = (_weight_count(in_dim, self.width, self.n_blocks),)
        if self.weights.shape != expected:
            raise ValueError(f"weights have shape {self.weights.shape}, the layers {expected}")
        bad = ~np.isfinite(self.weights)
        if bad.any():
            raise ValueError(f"weight {int(np.argmax(bad))} is not finite")

    @property
    def uses_fourier(self) -> bool:
        return self.encoder is not None

    @property
    def manifest(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        in_dim = self.encoder.output_dim if self.uses_fourier else 2
        return _manifest(in_dim, self.width, self.n_blocks)

    @property
    def n_weights(self) -> int:
        return self.weights.size

    @functools.cached_property
    def views(self) -> dict[str, np.ndarray]:
        """Name -> array view into the flat weight vector, made once per model."""
        return _views(self.manifest, self.weights)


def _weight_count(in_dim: int, width: int, n_blocks: int) -> int:
    """The weight count of :func:`_manifest`: input projection, blocks, head."""
    return (in_dim + 1) * width + n_blocks * 2 * width * (width + 1) + 2 * (width + 1)


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
    if seed < 0:
        raise ValueError("seed must be non-negative")
    rng = np.random.default_rng(seed)
    # a negative size draws and allocates nothing, so the encoder or the model
    # names it; the weights are drawn once the model accepts its architecture
    encoder = None
    in_dim = 2
    if use_fourier:
        encoder = FourierEncoder(rng.normal(0.0, sigma, size=(max(m, 0), 2)), float(sigma))
        in_dim = encoder.output_dim
    model = SurrogateModel(
        encoder=encoder,
        weights=np.zeros(max(_weight_count(in_dim, width, n_blocks), 0)),
        width=width,
        n_blocks=n_blocks,
        activation=activation,
        norm=norm,
        seed=seed,
    )
    gain = 2.0 if activation == "relu" else 1.0
    for name, w in model.views.items():
        if name.endswith((".W", ".W1")):
            w[...] = rng.normal(0.0, np.sqrt(gain / w.shape[0]), size=w.shape)
        # biases and each block's closing layer stay zero
    return model


# --------------------------------------------------------------------------
# forward and backward
# --------------------------------------------------------------------------


_LINE = 64  # bytes: a cache line, and the width of an AVX-512 load
_ALIGNED_ROWS = 64  # a workspace of this many rows or more starts each buffer on a _LINE


def _aligned_empty(shape) -> np.ndarray:
    """``np.empty(shape)`` whose data starts on a _LINE-byte boundary.

    The heap leaves an array on any 16-byte boundary, and where it falls
    depends on everything the process allocated before.  Training's passes
    took about 7 % longer at the other three offsets than on a line
    (width 64, lambda 0, one process), so without this a run's speed
    rested on its heap's history.  Reading the address costs about 1 us,
    more than a 4-row pass gains, hence _ALIGNED_ROWS.
    """
    size = math.prod(shape) if isinstance(shape, tuple) else shape
    raw = np.empty(size + _LINE // 8)
    skip = -raw.ctypes.data % _LINE // 8
    return raw[skip : skip + size].reshape(shape)


class _Workspace:
    """The buffers of one network pass, made once and written by every pass.

    The pass runs ``n`` value rows and the tangent rows of the last ``c``
    of them, stacked as ``[values; d/dx rows; d/dt rows]``.  ``x`` holds
    the input-layer rows: the caller writes the value rows (see
    :func:`_features`) and :func:`_forward` the tangent rows.  Each block
    has its pre-activation ``p`` and activation ``a`` rows and, when the
    pass carries tangents or ``grad`` is set, its activation slope at the
    value rows; ``z`` holds the rows at each block boundary, ``out`` the
    head's.  ``grad`` adds the rows of :func:`_backward` and the flat
    weight gradient with its views.  ``model`` is the model it was made for.
    :func:`_forward` cuts each layer's gemm into the row ``chunks`` of at
    most ``gemm_rows`` rows, or runs one (``chunks`` None) by default; the
    Fourier projection that fills ``x`` stays one gemm.  A workspace of
    _ALIGNED_ROWS rows or more starts each buffer on a cache line.
    """

    def __init__(self, model: SurrogateModel, n: int, c: int = 0, grad: bool = False,
                 gemm_rows: int | None = None):
        width, blocks, rows = model.width, model.n_blocks, n + 2 * c
        self.model, self.n, self.c = model, n, c
        empty = _aligned_empty if rows >= _ALIGNED_ROWS else np.empty
        step = gemm_rows or rows
        self.chunks = None if rows <= step else [slice(r, r + step) for r in range(0, rows, step)]
        self.x = empty((rows, model.views["proj.W"].shape[0]))
        layers = list(empty((3 * blocks + 1, rows, width)))
        self.p, self.a, self.z = layers[:blocks], layers[blocks : 2 * blocks], layers[2 * blocks :]
        self.slope = list(empty((blocks, n, width))) if c or grad else None
        self.out = empty((rows, 2))
        self.h = empty(n)  # depth at the value rows
        self.u = self.out[:n, 1]  # velocity at the value rows
        self.h_tan = self.u_tan = None  # (2, c) x and t tangents of the last c value rows
        if c:
            self.h_tan = empty((2, c))
            self.u_tan = self.out[n:].reshape(2, c, 2)[..., 1]
            box = model.norm
            # the input direction of one foot and of one second, in unit-square coordinates
            steps = np.array([
                1.0 / ((box.x_max_miles - box.x_min_miles) * MILE_FT),
                1.0 / ((box.t_max_hours - box.t_min_hours) * HOUR_S),
            ])
            if model.uses_fourier:
                # d cos(arg) = -sin(arg) d arg and d sin(arg) = cos(arg) d arg
                arg = ((steps[:, None] * model.encoder.b_matrix.T) * (2.0 * np.pi))[:, None, :]
                self.phase_steps = (-arg, arg)
            else:  # the tangents of the raw coordinates are constant
                self.x[n:] = np.repeat(np.diag(steps), c, axis=0)
        if grad:
            self.g = empty((rows, 2))
            self.g_z, self.g_a, self.g_p = (empty((rows, width)) for _ in range(3))
            self.scratch = empty((2, c, width))
            self.grad = empty(model.n_weights)
            self.grads = _views(model.manifest, self.grad)


def _affine(x, w, b, n, out, chunks):
    """x @ w into ``out``, one gemm per row chunk, plus the bias on the
    first ``n`` (value) rows."""
    if chunks is None:  # one gemm, without the slicing a 4-row predict can measure
        np.matmul(x, w, out)
    else:
        for r in chunks:
            np.matmul(x[r], w, out[r])
    out[:n] += b
    return out


def _slope(activation: str, a, out):
    """Activation slope at value rows whose activations are ``a``, into ``out``.

    The relu slope is 1.0 where a > 0 and 0.0 elsewhere, so its subgradient
    at 0 is 0.
    """
    if activation == "relu":
        np.greater(a, 0.0, out)
    else:
        np.multiply(a, a, out)
        np.subtract(1.0, out, out)


def _sigmoid(x):
    """Logistic function (the softplus slope); its exp never overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def _features(model: SurrogateModel, v, out) -> None:
    """Write the input-layer rows of normalized coordinates ``v`` into
    ``out``: their Fourier features, by one projection gemm, or ``v``
    itself without an encoder."""
    if model.uses_fourier:
        encode(model.encoder, v, out)
    else:
        out[...] = v


def _forward(ws: _Workspace) -> None:
    """The network of ``ws.model`` on the value rows of ``ws.x``, into ``ws``.

    Every layer's rows stay in ``ws`` for :func:`_backward`; the outputs
    are ``ws.h`` and ``ws.u`` and, with tangent rows, ``ws.h_tan`` and
    ``ws.u_tan``.
    """
    model, n, c, x, chunks = ws.model, ws.n, ws.c, ws.x, ws.chunks
    views = model.views
    if c and model.uses_fourier:
        m = model.encoder.m
        x_tan = x[n:].reshape(2, c, 2 * m)
        negative, positive = ws.phase_steps
        np.multiply(x[n - c : n, m:], negative, x_tan[..., :m])
        np.multiply(x[n - c : n, :m], positive, x_tan[..., m:])

    z = _affine(x, views["proj.W"], views["proj.b"], n, ws.z[0], chunks)
    for b in range(model.n_blocks):
        p, a = ws.p[b], ws.a[b]
        _affine(z, views[f"block{b}.W1"], views[f"block{b}.b1"], n, p, chunks)
        if model.activation == "relu":
            np.maximum(p[:n], 0.0, out=a[:n])  # a positional out is deprecated here
        else:
            np.tanh(p[:n], a[:n])
        if ws.slope is not None:
            slope = ws.slope[b]
            _slope(model.activation, a[:n], slope)
            if c:
                np.multiply(p[n:].reshape(2, c, -1), slope[n - c :], a[n:].reshape(2, c, -1))
        z_next = _affine(a, views[f"block{b}.W2"], views[f"block{b}.b2"], n, ws.z[b + 1], chunks)
        z_next += z  # the identity skip
        z = z_next
    out = _affine(z, views["head.W"], views["head.b"], n, ws.out, chunks)
    np.logaddexp(0.0, out[:n, 0], ws.h)
    ws.h += DEPTH_FLOOR_FT
    if c:
        np.multiply(_sigmoid(out[n - c : n, 0]), out[n:, 0].reshape(2, c), ws.h_tan)


def _backward(ws: _Workspace, g_h, g_u, g_h_tan=None, g_u_tan=None):
    """Flat weight gradient of a scalar, given its adjoints at the outputs
    of the pass in ``ws`` (made with ``grad``); returns ``ws.grad``.

    ``g_h``/``g_u`` (N,) are the adjoints of depth and velocity at the value
    rows, ``g_h_tan``/``g_u_tan`` (2, C) those of the tangents, when the
    forward pass carried tangent rows.
    """
    model, n, c, out = ws.model, ws.n, ws.c, ws.out
    views, grads = model.views, ws.grads

    def affine(x, g, layer, bias, out):
        np.matmul(x.T, g, grads[layer])
        np.sum(g[:n], axis=0, out=grads[bias])
        return np.matmul(g, views[layer].T, out)

    sig = _sigmoid(out[:n, 0])
    g = ws.g
    np.multiply(g_h, sig, g[:n, 0])
    g[:n, 1] = g_u
    tangents = g_h_tan is not None
    if tangents:
        sig_c = sig[n - c :]
        g_tan = g[n:].reshape(2, c, 2)
        np.multiply(g_h_tan, sig_c, g_tan[..., 0])
        g_tan[..., 1] = g_u_tan
        # h_tan = sigmoid(out) * out_tan also moves with the value row
        g[n - c : n, 0] += sig_c * (1.0 - sig_c) * (g_h_tan * out[n:, 0].reshape(2, c)).sum(axis=0)

    g_z = affine(ws.z[-1], g, "head.W", "head.b", ws.g_z)
    g_a, g_p = ws.g_a, ws.g_p
    for b in reversed(range(model.n_blocks)):
        a, slope = ws.a[b], ws.slope[b]
        affine(a, g_z, f"block{b}.W2", f"block{b}.b2", g_a)
        np.multiply(g_a[:n], slope, g_p[:n])
        if tangents:
            g_a_tan = g_a[n:].reshape(2, c, -1)
            np.multiply(g_a_tan, slope[n - c :], g_p[n:].reshape(2, c, -1))
            if model.activation == "tanh":
                # a_tan = (1 - a^2) p_tan; d(1 - a^2)/dp = -2 a (1 - a^2); relu's is 0
                t = np.multiply(ws.p[b][n:].reshape(2, c, -1), g_a_tan, ws.scratch)
                np.add(t[0], t[1], t[0])  # the sum over the two tangent rows
                curvature = np.multiply(a[n - c : n], -2.0, t[1])
                curvature *= slope[n - c :]
                curvature *= t[0]
                g_p[n - c : n] += curvature
        g_z += affine(ws.z[b], g_p, f"block{b}.W1", f"block{b}.b1", g_a)
    np.matmul(ws.x.T, g_z, grads["proj.W"])
    np.sum(g_z[:n], axis=0, out=grads["proj.b"])
    return ws.grad


# --------------------------------------------------------------------------
# inference and input derivatives
# --------------------------------------------------------------------------


def _normalize(model: SurrogateModel, points, clamp: bool) -> np.ndarray:
    """(N, 2) rows of (x_miles, t_hours) -> rows of unit-square coordinates;
    with ``clamp``, rows outside the box are clamped onto it, with a warning."""
    if not np.isfinite(points).all():
        raise ValueError("query points must be finite")
    box = model.norm
    lo = np.array([box.x_min_miles, box.t_min_hours])
    hi = np.array([box.x_max_miles, box.t_max_hours])
    if clamp:
        outside = np.count_nonzero(((points < lo) | (points > hi)).any(axis=1))
        if outside:
            warnings.warn(  # attributed to the caller of predict / predict_batch
                f"{outside} query point(s) outside the normalization box; clamping to the box",
                ExtrapolationWarning,
                stacklevel=3,
            )
            points = np.clip(points, lo, hi)
    return (points - lo) / (hi - lo)


_TILE = 4  # every gemm's row count is a multiple of this
_GEMM_ROWS = 128  # and a layer gemm's at most this, below where OpenBLAS starts its threads
_SPAN = 512  # stacked rows per span: the unit of work one thread takes at a time


def _usable_cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _run_spans(model: SurrogateModel, padded, span: int, duals: bool, starts, out) -> None:
    """The network on the ``span`` rows of ``padded`` from each start row
    it takes off the deque ``starts``, one span after another through one
    workspace, into the columns of ``out``; threads may share ``starts``."""
    ws = None
    while starts:
        try:
            start = starts.popleft()  # atomic, so no two threads take one span
        except IndexError:  # the other thread took the last one
            return
        rows = padded[start : start + span]
        k = len(rows)
        if ws is None or ws.n != k:  # the last span may be shorter
            ws = _Workspace(model, k, k if duals else 0, gemm_rows=_GEMM_ROWS)
        _features(model, rows, ws.x[:k])  # the value rows; _forward writes the tangent rows
        _forward(ws)
        out[:, start : start + k] = (ws.h, *ws.h_tan, ws.u, *ws.u_tan) if duals else (ws.h, ws.u)


def _forward_blocks(model: SurrogateModel, v: np.ndarray, duals: bool = False) -> np.ndarray:
    """The network on normalized rows ``v``, span by span.

    The result holds the rows (h, u), or with ``duals`` every row's
    tangents too: (h, h_x, h_t, u, u_x, u_t).
    """
    # A point must get the same bits alone as in any batch.  Measured on
    # OpenBLAS 0.3.31 with its SkylakeX dgemm kernel (the one
    # scipy_openblas_get_corename64_ names; numpy's "Haswell" is its build
    # target), at 1 and 2 BLAS threads: a row's bits stop depending on the
    # row count once the count is a multiple of 4, while one row goes to
    # gemv and 2 or 3 rows round the 2-column head differently.  That holds
    # only up to a size: gemms of 7,680 rows kept every row's bits, and of
    # 8,192 rows or more did not.  So the rows are zero-padded to whole
    # _TILE-row tiles and cut once, into spans of at most _SPAN stacked
    # rows, which bound a batch's memory.  A span's Fourier projection is
    # one gemm: with two columns it is less work than one layer gemm, and
    # OpenBLAS runs it on one thread.  Each layer gemm takes at most
    # _GEMM_ROWS rows, which keeps it on one BLAS thread: a 64-wide gemm
    # timed the same at 1 and 2 BLAS threads up to 192 rows, and OpenBLAS's
    # own threads, which start at 256 rows, made two Python threads slower
    # than one.  With two spans or more and two usable cores or more, a
    # second thread takes spans too, each through its own workspace; numpy
    # releases the interpreter lock inside each gemm and ufunc.  Only two
    # threads: no host of more cores has been measured.  Another dgemm
    # kernel may need 8 or 16 rows; the child interpreters of
    # tests/test_batch_invariance.py, at 1 and 2 BLAS threads and under a
    # second kernel, guard the assumption.
    n = v.shape[0]
    padded = np.zeros((-(-n // _TILE) * _TILE, 2))
    padded[:n] = v
    out = np.empty((6 if duals else 2, padded.shape[0]))
    span = _SPAN // 3 // _TILE * _TILE if duals else _SPAN  # points per span
    # each span goes to the first free thread, so a thread that another
    # process slows does not hold the call up
    queue = collections.deque(range(0, padded.shape[0], span))
    if len(queue) < 2 or _usable_cores() < 2:
        _run_spans(model, padded, span, duals, queue, out)
        return out[:, :n]

    failures = []

    def run():
        try:
            _run_spans(model, padded, span, duals, queue, out)
        except BaseException as exc:  # raised on the calling thread once both are done
            queue.clear()  # so the other thread stops after its span
            failures.append(exc)

    model.views  # made here, before a second thread can race to make them too
    helper = threading.Thread(target=run)
    helper.start()
    run()
    helper.join()
    if failures:
        raise failures[0]
    return out[:, :n]


def predict(model: SurrogateModel, x_miles: float, t_hours: float) -> tuple[float, float]:
    """Depth (ft) and velocity (ft/s) at one point.

    Points outside the normalization box are clamped onto it, with an
    :class:`ExtrapolationWarning`; a non-finite coordinate raises
    ``ValueError``.
    """
    row = np.array([[float(x_miles), float(t_hours)]])
    out = _forward_blocks(model, _normalize(model, row, clamp=True))
    return float(out[0, 0]), float(out[1, 0])


def predict_batch(model: SurrogateModel, points) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`predict` over an (N, 2) array of (x_miles, t_hours)."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must have shape (N, 2)")
    h, u = _forward_blocks(model, _normalize(model, pts, clamp=True))
    return h, u


def physics_duals(model: SurrogateModel, x_miles, t_hours) -> tuple[Dual, Dual]:
    """Depth and velocity with their input derivatives in physical units.

    Returns ``(h, u)`` as :class:`Dual` values whose ``dx`` components are
    derivatives with respect to feet and ``dt`` with respect to seconds --
    the units the governing equations are written in.  ``x_miles`` and
    ``t_hours`` pair up by numpy broadcasting, and the result is flat.  The
    points run in the spans of inference, so that a point's duals are the
    same bits in a batch of any size or order.
    """
    x, t = np.broadcast_arrays(np.asarray(x_miles, np.float64), np.asarray(t_hours, np.float64))
    v = _normalize(model, np.column_stack((x.ravel(), t.ravel())), clamp=False)
    out = _forward_blocks(model, v, duals=True)
    return Dual(*out[:3]), Dual(*out[3:])
