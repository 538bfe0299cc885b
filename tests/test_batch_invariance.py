"""Batch invariance: a point's prediction does not depend on its batch.

``predict_batch`` over any number of points, in any order, must give each
point the bits ``predict`` gives it alone and the bits of the frozen
inference pass in ``oracles.reference_forward``.  The BLAS thread count is
fixed when numpy is first imported, so the property and the workload-size
rows are also run in child interpreters whose BLAS thread variables are set
to 1 and to 2, and in one that runs OpenBLAS's Sandybridge dgemm kernel.
``physics_duals`` must likewise give each point the same bits in a batch of
any size, one included, and in any order.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stagecast
from oracles import reference_forward
from stagecast.surrogate import NormalizationBox, init_model, physics_duals, predict, predict_batch

BOX = NormalizationBox(x_min_miles=0.0, x_max_miles=10.0, t_min_hours=0.0, t_max_hours=48.0)
CONFIGS = [(act, fourier) for act in ("relu", "tanh") for fourier in (True, False)]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _model(activation, use_fourier, width=16, m=8):
    model = init_model(
        BOX, n_blocks=2, width=width, m=m, sigma=4.0, activation=activation, seed=23,
        use_fourier=use_fourier,
    )
    model.weights[:] = np.random.default_rng(23).normal(0.0, 0.5, model.n_weights)
    return model


MODELS = {config: _model(*config) for config in CONFIGS}


@pytest.mark.parametrize("activation, use_fourier", CONFIGS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(size=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
def test_batch_rows_equal_single_predictions_and_reference(activation, use_fourier, size, seed):
    model = MODELS[(activation, use_fourier)]
    rng = np.random.default_rng(seed)
    points = np.column_stack([rng.uniform(0.0, 10.0, size), rng.uniform(0.0, 48.0, size)])
    order = rng.permutation(size)

    h, u = predict_batch(model, points)
    h_perm, u_perm = predict_batch(model, points[order])
    assert np.array_equal(h_perm, h[order]) and np.array_equal(u_perm, u[order])

    h_ref, u_ref = reference_forward(model, points)
    assert np.array_equal(h, h_ref) and np.array_equal(u, u_ref)

    singles = np.array([predict(model, x, t) for x, t in points])
    assert np.array_equal(singles[:, 0], h) and np.array_equal(singles[:, 1], u)


@pytest.mark.parametrize("threads, coretype", [("1", None), ("2", None), ("2", "Sandybridge")],
                         ids=["1", "2", "2-Sandybridge"])
def test_batch_invariance_at_each_blas_thread_count(threads, coretype):
    """The property above and the workload-size rows below, in a child
    interpreter whose BLAS pool has ``threads``, under the dgemm kernel
    OpenBLAS picks for the host or under ``coretype``'s: only the workload
    sizes run the width-64 network, whose gemms are large enough for a
    thread count or a kernel to change a row's bits."""
    src = Path(stagecast.__file__).resolve().parents[1]
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, threads)}
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    nodes = [
        f"{Path(__file__).resolve()}::{name}"
        for name in ("test_batch_rows_equal_single_predictions_and_reference",
                     "test_rows_keep_their_bits_at_the_workload_sizes")
    ]
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *nodes],
        cwd=src.parent,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout[-3000:] + result.stderr[-3000:]
    assert "8 passed" in result.stdout


def _dual_rows(model, x, t):
    """The six dual components of ``physics_duals`` at (x, t), one row each."""
    h, u = physics_duals(model, x, t)
    return np.stack([*h, *u])


@pytest.mark.parametrize("activation, use_fourier", CONFIGS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(size=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
def test_physics_duals_rows_equal_the_batched_rows(activation, use_fourier, size, seed):
    """Sub-batches of one point, of a random size and of all points, each
    in a random order, give every point its bits in the whole batch."""
    model = MODELS[(activation, use_fourier)]
    rng = np.random.default_rng(seed)
    x, t = rng.uniform(0.0, 10.0, size), rng.uniform(0.0, 48.0, size)
    batched = _dual_rows(model, x, t)
    for k in (1, int(rng.integers(1, size + 1)), size):
        pick = rng.permutation(size)[:k]
        assert np.array_equal(_dual_rows(model, x[pick], t[pick]), batched[:, pick]), k


@pytest.mark.parametrize("activation, use_fourier", CONFIGS)
def test_batches_of_several_spans_keep_every_row_bits(activation, use_fourier):
    """A batch of several full spans and a partial one, run on every usable
    core, gives each point the bits of the frozen forward pass and of the
    same points in another order: 2,600 points in predict_batch (512 per
    span) and 1,100 in physics_duals (168 per span)."""
    model = _model(activation, use_fourier, width=64, m=32)
    rng = np.random.default_rng(2_600)
    points = np.column_stack([rng.uniform(0.0, 10.0, 2_600), rng.uniform(0.0, 48.0, 2_600)])
    order = rng.permutation(2_600)
    h, u = predict_batch(model, points)
    h_ref, u_ref = reference_forward(model, points)
    assert np.array_equal(h, h_ref) and np.array_equal(u, u_ref)
    h_perm, u_perm = predict_batch(model, points[order])
    assert np.array_equal(h_perm, h[order]) and np.array_equal(u_perm, u[order])

    x, t = points[:1_100].T
    batched = _dual_rows(model, x, t)
    assert np.array_equal(batched[[0, 3]], np.stack([h_ref[:1_100], u_ref[:1_100]]))
    order = rng.permutation(1_100)
    assert np.array_equal(_dual_rows(model, x[order], t[order]), batched[:, order])


@pytest.mark.parametrize("activation, use_fourier", CONFIGS)
def test_rows_keep_their_bits_at_the_workload_sizes(activation, use_fourier):
    """The benchmark queries 20,000 points in one predict_batch and scores
    10,000 in one physics_duals call; sampled rows of each equal the point
    alone, bit for bit.  The network is the benchmark's (width 64, 32
    Fourier rows): on OpenBLAS 0.3.31, blocks of 4,096 rows or more kept
    every row's bits at width 16 but not at width 64, so only this width
    pins the cap on a gemm's rows."""
    model = _model(activation, use_fourier, width=64, m=32)
    rng = np.random.default_rng(20_000)
    points = np.column_stack([rng.uniform(0.0, 10.0, 20_000), rng.uniform(0.0, 48.0, 20_000)])
    h, u = predict_batch(model, points)
    pick = rng.choice(20_000, 256, replace=False)
    singles = np.array([predict(model, x, t) for x, t in points[pick]])
    assert np.array_equal(singles, np.column_stack((h[pick], u[pick])))

    x, t = points[:10_000].T
    batched = _dual_rows(model, x, t)
    pick = rng.choice(10_000, 64, replace=False)
    singles = np.column_stack([_dual_rows(model, x[i : i + 1], t[i : i + 1]) for i in pick])
    assert np.array_equal(singles, batched[:, pick])
