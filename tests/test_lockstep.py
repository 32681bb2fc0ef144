"""Lockstep OGD against a per-cell reference.

`reference_ogd` is the per-step, per-cell, per-tap recursion that `ogd`
replaced, kept here verbatim in behaviour: one cell per call, one
projection per tap.  Batched `ogd` must agree with it on every cell of a
batch to 1e-12, on fixed learners and on random blocks (a `hypothesis`
property), and `run_experiment` must pick the same learning rate as
a grid search that runs the reference cell by cell.
"""

import warnings
from math import sqrt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqprecond import harness as H
from seqprecond import learners
from seqprecond.learners import (
    RegressionLearner,
    Rows,
    SpectralLearner,
    lagged,
    ogd,
    oracle_weights,
    project_to_ball,
)
from seqprecond.dynsys import gaussian_inputs, sample_system, simulate_lds
from seqprecond.poly import ComplexSector, CoefficientVector, chebyshev_monic
from seqprecond.spectral import build_filter_bank

TOL = 1e-12


def reference_project(M, radius):
    """One matrix onto its spectral-norm ball: norm clip or an SVD."""
    M = np.asarray(M, dtype=float)
    if min(M.shape) == 1:
        nrm = np.linalg.norm(M)
        return M if nrm <= radius else M * (radius / nrm)
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    if s[0] <= radius:
        return M
    return (U * np.minimum(s, radius)) @ Vt


def reference_ogd(blocks, targets):
    """One cell, stepped one tap at a time."""
    y = np.asarray(targets, dtype=float)
    T, d_out = y.shape
    Xs = [X for X, _, _, _ in blocks]
    Ws = [np.array(W0, dtype=float) for _, W0, _, _ in blocks]
    steps = [(b, lr0, radius) for b, (_, _, lr0, radius) in enumerate(blocks) if lr0 != 0]
    preds = np.empty((T, d_out))
    for t in range(T):
        xs = [X[t] for X in Xs]
        pred = np.zeros(d_out)
        for W, x in zip(Ws, xs):
            pred = pred + (W @ x if W.ndim == 1 else np.einsum("joi,ji->o", W, x))
        preds[t] = pred
        s = np.sign(pred - y[t])
        if not s.any():
            continue
        root = sqrt(t + 1)
        for b, lr0, radius in steps:
            W, x = Ws[b], xs[b]
            grad = x @ s if W.ndim == 1 else s[None, :, None] * x[:, None, :]
            W = W - (lr0 / root) * grad
            if radius is not None:
                for j in range(W.shape[0]):
                    W[j] = reference_project(W[j], radius)
            Ws[b] = W
    return preds, Ws


@given(st.data())
def test_stacked_projection_matches_the_reference(data):
    cells = tuple(data.draw(st.lists(st.integers(1, 3), max_size=2), label="cells"))
    m, n = data.draw(st.integers(1, 4), label="m"), data.draw(st.integers(1, 4), label="n")
    radius = data.draw(st.sampled_from([0.0, 0.3, 1.0, 10.0]), label="radius")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    # per-matrix scales put some matrices inside the ball and some over it
    scale = rng.choice([0.0, 0.1, 1.0, 4.0], size=(*cells, 1, 1))
    M = rng.standard_normal((*cells, m, n)) * scale
    for cell in np.ndindex(*cells):
        if rng.random() < 0.2:
            M[cell][rng.integers(m), rng.integers(n)] = rng.choice([np.inf, -np.inf, np.nan])
    out = project_to_ball(M, radius)
    assert out.shape == M.shape
    for cell in np.ndindex(*cells):
        if np.isfinite(M[cell]).all():
            want = reference_project(M[cell], radius)
            np.testing.assert_allclose(out[cell], want, rtol=TOL, atol=TOL)
        else:
            np.testing.assert_array_equal(out[cell], M[cell])


def make_learner(kind, rng, T, rate, taps=None):
    """A learner of `kind` at `rate` (a float, or rates broadcast over cells)."""
    c = CoefficientVector(np.concatenate([[1.0], rng.uniform(-0.9, 0.9, rng.integers(0, 4))]))
    if kind == "spectral":
        bank = build_filter_bank(T - c.degree - 1, ComplexSector(0.1), int(rng.integers(1, 5)))
        return SpectralLearner(c, bank, total_horizon=T, lr0=rate, norm_bound=0.3)
    return RegressionLearner(c, num_taps=taps, domain_bound=0.2, lr0=rate,
                             lr_coeffs0=rate / 10 if kind == "learned" else 0.0)


# each id names the ball the weights are projected onto
CASES = [
    pytest.param(kind, d, taps, id=f"{kind}-{d}-spectral-{taps}")
    for kind in ("regression", "learned", "spectral")
    for d in (1, 2, 3)
    for taps in ((None, 0) if kind != "spectral" else (None,))
]


@pytest.mark.parametrize("kind, d, taps", CASES)
def test_every_cell_matches_the_reference(kind, d, taps):
    rng = np.random.default_rng([d, len(kind), len("spectral"), taps or 9])
    T, runs, rates = 40, 3, np.array([0.05, 0.5, 3.0])
    d_in, d_out = d, int(rng.integers(1, 4))
    u = rng.standard_normal((runs, T, d_in))
    y = rng.standard_normal((runs, T, d_out))
    y[1, :5] = 0.0  # run 1 starts on exact zero residuals; the others do not
    u[1, :5] = 0.0
    state = rng.bit_generator.state
    batched = make_learner(kind, rng, T, rates[:, None], taps)
    preds, Ws = ogd(batched.blocks(u[None], y[None]), y[None])
    assert preds.shape == (len(rates), runs, T, d_out)
    for g, rate in enumerate(rates):
        rng.bit_generator.state = state  # the same coefficients and bank
        learner = make_learner(kind, rng, T, float(rate), taps)
        for r in range(runs):
            want, want_W = reference_ogd(learner.blocks(u[r], y[r]), y[r])
            np.testing.assert_allclose(preds[g, r], want, rtol=TOL, atol=TOL)
            for W, w in zip(Ws, want_W):
                np.testing.assert_allclose(W[g, r], w, rtol=TOL, atol=TOL)


def draw_block(data, rng, cells, T, d_in, d_out, lag):
    """One ogd block on random features: a matrix block (taps, d_out, d_in)
    with an optional ball, or a lag block with one scalar weight per tap
    and none.  Features and weights each span every cell axis or share
    size-1 ones; the rate is drawn per cell and may be 0."""

    def lead():
        return cells if data.draw(st.booleans(), label="per cell") else (1,) * len(cells)

    taps = data.draw(st.integers(1, 3), label="taps")
    X = rng.standard_normal((*lead(), T, taps, d_out if lag else d_in))
    W0 = rng.normal(scale=0.5, size=(*lead(), taps, *(() if lag else (d_out, d_in))))
    n = int(np.prod(cells))
    rates = st.lists(st.sampled_from([0.0, 1e-3, 0.05, 0.5, 2.0]), min_size=n, max_size=n)
    lr0 = np.reshape(data.draw(rates, label="rates"), cells)
    radius = None if lag else data.draw(st.none() | st.floats(0.05, 2.0), label="radius")
    return X, W0, lr0, radius


def cell_of(a, cell):
    """The entry of `a` for `cell`, reading a size-1 cell axis as shared."""
    return a[tuple(i if n > 1 else 0 for i, n in zip(cell, a.shape))]


@given(st.data())
def test_random_batches_match_the_reference_on_every_cell(data):
    cells = tuple(data.draw(st.lists(st.integers(1, 3), max_size=2), label="cells"))
    T = data.draw(st.integers(1, 12), label="T")
    d_in, d_out = data.draw(st.integers(1, 3), label="d_in"), data.draw(st.integers(1, 3), label="d_out")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    blocks = [draw_block(data, rng, cells, T, d_in, d_out, lag=False)
              for _ in range(data.draw(st.integers(1, 2), label="matrix blocks"))]
    if data.draw(st.booleans(), label="lag block"):
        blocks.append(draw_block(data, rng, cells, T, d_in, d_out, lag=True))
    y = rng.standard_normal((*cells, T, d_out))
    preds, Ws = ogd(blocks, y)
    assert preds.shape == y.shape
    for cell in np.ndindex(*cells):
        mine = [(cell_of(X, cell), cell_of(W0, cell), float(lr0[cell]), radius)
                for X, W0, lr0, radius in blocks]
        want, want_W = reference_ogd(mine, y[cell])
        np.testing.assert_allclose(preds[cell], want, rtol=TOL, atol=TOL)
        for W, w in zip(Ws, want_W):
            np.testing.assert_allclose(W[cell], w, rtol=TOL, atol=TOL)


@pytest.mark.parametrize("d", [1, 3])
def test_frozen_cells_with_their_own_weights(d):
    rng = np.random.default_rng(d)
    T, runs = 30, 4
    c = CoefficientVector(np.array([1.0, -0.5, 0.25]))
    Q = rng.standard_normal((runs, 2, d, d))
    u, y = rng.standard_normal((runs, T, d)), rng.standard_normal((runs, T, d))
    learner = RegressionLearner(c, lr0=0.0, init_Q=Q)
    preds, (W, _) = ogd(learner.blocks(u, y), y)
    np.testing.assert_array_equal(W, Q)
    for r in range(runs):
        single = RegressionLearner(c, lr0=0.0, init_Q=Q[r])
        want, _ = reference_ogd(single.blocks(u[r], y[r]), y[r])
        np.testing.assert_allclose(preds[r], want, rtol=TOL, atol=TOL)


def test_exact_zero_residual_skips_only_that_cell():
    # feature 1 and rate 1, so the residuals that vanish vanish exactly.
    # Each cell starts at 2, outside the ball of radius 1.5, which only an
    # update projects.  Cell 0 predicts its targets exactly at steps 0 and
    # 1, cell 1 from step 1 on, cell 2 never; all run on one schedule.
    X = np.ones((1, 4, 1, 1))
    targets = np.array([[2.0, 2.0, -8.0, -8.0], [3.0, 1.5, 1.5, 1.5], [-1.0, 5.0, 5.0, 5.0]])
    y = targets[:, :, None]
    preds, (W,) = ogd([(X, np.full((1, 1, 1, 1), 2.0), 1.0, 1.5)], y)
    for cell in range(3):
        want, (w,) = reference_ogd([(X[0], np.full((1, 1, 1), 2.0), 1.0, 1.5)], y[cell])
        np.testing.assert_array_equal(preds[cell], want)
        np.testing.assert_array_equal(W[cell], w)
    assert preds[0, 1, 0] == 2.0 and preds[1, 1, 0] == 1.5  # the exact hits


def test_rate_zero_in_one_cell_leaves_its_weights():
    # the weights start outside the ball: only an update may project them
    rng = np.random.default_rng(4)
    X = rng.standard_normal((1, 20, 2, 3))
    y = rng.standard_normal((1, 20, 2))
    W0 = np.full((1, 2, 2, 3), 0.5)
    preds, (W,) = ogd([(X, W0, np.array([0.0, 0.3]), 0.5)], y)
    np.testing.assert_array_equal(W[0], W0[0])
    want, (w,) = reference_ogd([(X[0], W0[0], 0.3, 0.5)], y[0])
    np.testing.assert_allclose(W[1], w, rtol=TOL, atol=TOL)
    np.testing.assert_allclose(preds[1], want, rtol=TOL, atol=TOL)


def test_diverging_cell_is_named_and_leaves_the_others_to_finish():
    # cell 1's rate overflows its weights at d=3, where the projection is an
    # SVD; the batch still reaches the end, and every cell's predictions,
    # cell 1's non-finite rows included, are those of its own recursion
    rng = np.random.default_rng(2)
    X = rng.standard_normal((1, 30, 2, 3))
    y = rng.standard_normal((1, 30, 3))
    rates = (0.1, 1e308, 0.2)
    preds, _ = ogd([(X, np.zeros((1, 2, 3, 3)), np.array(rates), 1e300)], y)
    finite = np.isfinite(preds).all(axis=-1)
    assert finite[[0, 2]].all() and not finite[1].all()
    for cell, lr in enumerate(rates):
        alone, _ = ogd([(X[0], np.zeros((2, 3, 3)), lr, 1e300)], y[0])
        np.testing.assert_array_equal(preds[cell], alone)


# ---------------------------------------------------------------------------
# the paths a step skips: fixed blocks, and the ball before it can bind


def assert_cells_match(blocks, y, preds, Ws, cells):
    """Every cell of a batch against its own reference recursion."""
    for cell in np.ndindex(*cells):
        mine = [(X.streams[X.index[cell]] if isinstance(X, Rows) else cell_of(X, cell),
                 cell_of(W0, cell), float(cell_of(np.asarray(lr0), cell)),
                 radius if radius is None else float(cell_of(np.asarray(radius), cell)))
                for X, W0, lr0, radius in blocks]
        want, want_W = reference_ogd(mine, cell_of(y, cell))
        np.testing.assert_allclose(preds[cell], want, rtol=TOL, atol=TOL)
        for W, w in zip(Ws, want_W):
            np.testing.assert_allclose(W[cell], w, rtol=TOL, atol=TOL)


@pytest.mark.parametrize("d", [1, 3])
def test_ball_crossed_midway_clips_one_cell_and_spares_the_other(d, monkeypatch):
    # Positive features and targets far below every prediction keep each
    # sign at +1, so each tap moves outward at every step almost as fast as
    # the bound on its norm grows: max |x| and |x| differ by under 10%.
    # Cell 0's radius is that bound at T/2, so its ball binds soon after
    # the bound crosses it; cell 1's is ten times the bound at T.
    rng = np.random.default_rng(d)
    T, taps, lr = 200, 3, 0.05
    X = 1.0 + 0.1 * rng.random((1, T, taps, d))
    y = np.full((1, T, d), -1e3)
    bound = np.cumsum(lr / np.sqrt(np.arange(1, T + 1)) * sqrt(d)
                      * np.linalg.norm(X[0], axis=-1).max(axis=-1))
    radius = np.array([bound[T // 2], 10 * bound[-1]])
    calls = []

    def counted(M, r):
        # ogd projects a stack only once some tap's Frobenius norm, which
        # bounds its spectral norm, is over its radius
        assert (np.sqrt(np.einsum("...ij,...ij->...", M, M)) > r).any()
        calls.append(1)
        return project_to_ball(M, r)

    monkeypatch.setattr(learners, "project_to_ball", counted)
    blocks = [(X, np.zeros((1, taps, d, d)), lr, radius)]
    preds, Ws = ogd(blocks, y)
    monkeypatch.undo()
    assert_cells_match(blocks, y, preds, Ws, (2,))
    norms = [np.linalg.norm(W, 2) for W in Ws[0][0]]
    np.testing.assert_allclose(max(norms), radius[0], rtol=TOL)  # a tap ends on the ball
    assert max(np.linalg.norm(W, 2) for W in Ws[0][1]) < radius[1] / 5
    # a projection is called only at steps where some norm exceeds its radius
    assert 0 < len(calls) <= T - T // 2


@pytest.mark.parametrize("d", [1, 3])
def test_fixed_block_between_two_moving_blocks(d):
    # the spectral block order: input window, fixed lag coefficients, deep
    # past; the fixed block's features are rows that two cells share
    rng = np.random.default_rng(10 + d)
    T, cells = 40, 3
    u, y = rng.standard_normal((cells, T, d)), rng.standard_normal((cells, T, d))
    rates = np.array([0.05, 0.5, 0.0])  # the last cell holds every block still
    lags = rng.uniform(-0.9, 0.9, (cells, 3))
    blocks = [(lagged(u, 2), rng.normal(scale=0.3, size=(cells, 2, d, d)), rates, 0.8),
              (Rows(lagged(-y, 3, 1), np.array([1, 0, 1])), lags, 0.0, None),
              (rng.standard_normal((cells, T, 4, d)),
               rng.normal(scale=0.3, size=(cells, 4, d, d)), rates, 0.5)]
    preds, Ws = ogd(blocks, y)
    assert_cells_match(blocks, y, preds, Ws, (cells,))
    np.testing.assert_array_equal(Ws[1], lags)
    np.testing.assert_array_equal(Ws[0][2], blocks[0][1][2])


@pytest.mark.parametrize("d", [1, 3])
def test_rate_zero_cells_outside_the_ball_keep_their_weights(d):
    rng = np.random.default_rng(20 + d)
    T, rates = 50, np.array([0.0, 0.3, 0.0, 2.0])
    X, y = rng.standard_normal((4, T, 2, d)), rng.standard_normal((4, T, d))
    W0 = rng.normal(scale=0.3, size=(4, 2, d, d))
    W0[[0, 2]] *= 10 / np.linalg.norm(W0[[0, 2]], axis=(-2, -1), keepdims=True)
    blocks = [(X, W0, rates, 1.0)]
    preds, Ws = ogd(blocks, y)
    np.testing.assert_array_equal(Ws[0][[0, 2]], W0[[0, 2]])
    assert_cells_match(blocks, y, preds, Ws, (4,))


# ---------------------------------------------------------------------------
# the step without masks: a zero sign or rate must still leave weights as they are


@pytest.mark.parametrize("radius", [None, 1.0])
def test_a_zero_residual_keeps_the_weights_where_rate_times_features_overflows(radius):
    # cell 1 steps at rate 1e308 on features over 2, so its rates times its
    # features overflow in every chunk, and its targets are its predictions
    # at its initial weights, so every residual is exactly 0: (sign rate) x
    # is 0 there, where sign (rate x) would be 0 inf = nan
    rng = np.random.default_rng(31)
    T, d = 70, 2
    X = rng.choice([-1.0, 1.0], (2, T, 3, d)) * (2.5 + rng.random((2, T, 3, d)))
    W0 = rng.normal(scale=0.2, size=(2, 3, d, d))
    y = rng.standard_normal((2, T, d))
    y[1] = ogd([(X[1], W0[1], 0.0, None)], y[1])[0]
    blocks = [(X, W0, np.array([0.05, 1e308]), radius)]
    preds, Ws = ogd(blocks, y)
    np.testing.assert_array_equal(Ws[0][1], W0[1])
    np.testing.assert_array_equal(preds[1], y[1])
    want, (w,) = reference_ogd([(X[0], W0[0], 0.05, radius)], y[0])
    np.testing.assert_allclose(preds[0], want, rtol=TOL, atol=TOL)
    np.testing.assert_allclose(Ws[0][0], w, rtol=TOL, atol=TOL)


@pytest.mark.parametrize("block", ["matrix", "lag"])
def test_an_inf_feature_leaves_its_cell_at_zero_signs_and_the_others_as_alone(block):
    # one inf feature of cell 1 at step 20 makes its prediction there
    # non-finite, a zero-sign step: the cell's weights after it are those
    # before it, and every other cell of the chunk is bit for bit its solo
    # run.  No ball, whose test would mask the step anyway.
    rng = np.random.default_rng(32)
    T, d, cells, at = 70, 2, 3, 20
    X, L = rng.standard_normal((cells, T, 2, d)), rng.standard_normal((cells, T, 3, d))
    (X if block == "matrix" else L)[1, at, 1, 0] = np.inf
    W0, lags = rng.normal(scale=0.3, size=(cells, 2, d, d)), rng.uniform(-0.5, 0.5, (cells, 3))
    y = rng.standard_normal((cells, T, d))
    rates, lag_rates = np.array([0.05, 0.5, 0.2]), np.array([0.01, 0.1, 0.0])

    def run(cut, cell=slice(None)):
        return ogd([(X[cell, :cut], W0[cell], rates[cell], None),
                    (L[cell, :cut], lags[cell], lag_rates[cell], None)], y[cell, :cut])

    preds, Ws = run(T)
    before, after = run(at)[1], run(at + 1)[1]
    assert not np.isfinite(preds[1, at]).all()
    for W, w in zip(after, before):
        np.testing.assert_array_equal(W[1], w[1])
    for cell in (0, 2):
        alone, alone_W = run(T, slice(cell, cell + 1))
        np.testing.assert_array_equal(preds[cell], alone[0])
        for W, w in zip(Ws, alone_W):
            np.testing.assert_array_equal(W[cell], w[0])


@pytest.mark.parametrize("d", [1, 3])
def test_a_zero_rate_cell_of_a_moving_lag_block_keeps_its_coefficients(d):
    rng = np.random.default_rng(40 + d)
    T, cells = 70, 3
    u, y = rng.standard_normal((cells, T, d)), rng.standard_normal((cells, T, d))
    lags = rng.uniform(-0.9, 0.9, (cells, 3))
    blocks = [(lagged(u, 2), rng.normal(scale=0.3, size=(cells, 2, d, d)),
               np.array([0.05, 0.5, 0.2]), 0.8),
              (lagged(-y, 3, 1), lags, np.array([0.01, 0.0, 0.1]), None)]
    preds, Ws = ogd(blocks, y)
    np.testing.assert_array_equal(Ws[1][1], lags[1])
    assert not np.array_equal(Ws[1][[0, 2]], lags[[0, 2]])
    assert_cells_match(blocks, y, preds, Ws, (cells,))


@pytest.mark.parametrize("d", [1, 3])
def test_moving_block_with_zero_taps(d):
    rng = np.random.default_rng(30 + d)
    T, rates = 30, np.array([0.1, 0.5])
    u, y = rng.standard_normal((2, T, d)), rng.standard_normal((2, T, d))
    blocks = [(Rows(np.zeros((1, T, 0, d)), np.zeros(2, dtype=int)), np.zeros((2, 0, d, d)),
               rates, 0.5),
              (lagged(u, 2), np.zeros((2, 2, d, d)), rates, 0.5),
              (lagged(-y, 2, 1), np.tile([-0.5, 0.2], (2, 1)), rates / 10, None)]
    preds, Ws = ogd(blocks, y)
    assert Ws[0].shape == (2, 0, d, d)
    assert_cells_match(blocks, y, preds, Ws, (2,))


# ---------------------------------------------------------------------------
# features and targets gathered a chunk of steps at a time


CHUNK = learners._CHUNK


@pytest.mark.parametrize("T", [1, CHUNK // 2, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
@pytest.mark.parametrize("layout", ["rates-by-runs", "one-cell", "fixed-lag", "all-fixed"])
def test_chunk_boundaries_match_the_reference(T, layout):
    # every part a chunk gathers, at d_in = d_out = 3: input windows read to
    # each cell's own tap count (pads), a lag block with its own counts, a
    # deep block of 8 taps, and the targets, as Rows or plain; one cell runs
    # on numpy's two lanes; a fixed lag block goes first and, like every
    # block of an all-fixed call, adds its term a chunk at a time
    rng = np.random.default_rng([T, len(layout)])
    d, rates = 3, np.repeat([0.01, 1.0], 2)
    index = np.tile([2, 0], 2)  # stream 1 is never read
    taps, lag_taps = np.array([4, 2, 0, 3]), np.array([3, 0, 2, 1])
    if layout == "one-cell":
        rates, index, taps, lag_taps = rates[3:], index[3:], taps[3:], lag_taps[3:]
    lag_rates = 0.0 * rates if layout in ("fixed-lag", "all-fixed") else rates / 10
    if layout == "all-fixed":
        rates = lag_rates
    cells = len(index)
    u, y = rng.standard_normal((3, T, d)), rng.standard_normal((3, T, d))
    X, L, D = lagged(u, 4), lagged(-y, 3, 1), 0.3 * rng.standard_normal((3, T, 8, d))
    W0, lags = rng.normal(scale=0.1, size=(cells, 4, d, d)), rng.uniform(-0.5, 0.5, (cells, 3))
    blocks = [(Rows(X, index, taps), W0, rates, 0.6),
              (Rows(L, index, lag_taps), lags, lag_rates, None),
              (Rows(D, index), np.zeros((cells, 8, d, d)), rates, 0.4)]
    preds, Ws = ogd(blocks, Rows(y, index))
    assert preds.shape == (cells, T, d)
    plain, plain_Ws = ogd(blocks, y[index])
    np.testing.assert_array_equal(plain, preds)
    for W, w in zip(plain_Ws, Ws):
        np.testing.assert_array_equal(W, w)
    errors = {"got": np.zeros(len(np.unique(rates))), "want": np.zeros(len(np.unique(rates)))}
    for cell, stream in enumerate(index):
        mine = [(np.where(np.arange(4)[:, None] < taps[cell], X[stream], 0.0), W0[cell],
                 rates[cell], 0.6),
                (np.where(np.arange(3)[:, None] < lag_taps[cell], L[stream], 0.0), lags[cell],
                 lag_rates[cell], None),
                (D[stream], np.zeros((8, d, d)), rates[cell], 0.4)]
        want, want_W = reference_ogd(mine, y[stream])
        np.testing.assert_allclose(preds[cell], want, rtol=TOL, atol=TOL)
        for W, w in zip(Ws, want_W):
            np.testing.assert_allclose(W[cell], w, rtol=TOL, atol=TOL)
        point = np.searchsorted(np.unique(rates), rates[cell])
        errors["got"][point] += np.abs(preds[cell] - y[stream]).mean()
        errors["want"][point] += np.abs(want - y[stream]).mean()
    assert errors["got"].argmin() == errors["want"].argmin()


def tap_major_sum(blocks, cells, T, d_out):
    """Each fixed block's term summed from 0, tap by tap and channel by
    channel, then the terms summed from 0 in block order."""
    preds = np.zeros((cells, T, d_out))
    for X, W, _, _ in blocks:
        X = np.where(np.arange(X.streams.shape[2])[:, None] < X.taps[:, None, None, None],
                     X.streams[X.index], 0.0)  # (cells, T, taps, channels)
        term = np.zeros((cells, T, d_out))
        for j in range(X.shape[2]):
            if W.ndim == 2:  # lag
                term += X[:, :, j] * W[:, None, j, None]
                continue
            for i in range(X.shape[3]):
                term += X[:, :, j, i, None] * W[:, None, j, :, i]
        preds += term
    return preds


@pytest.mark.parametrize("T", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 2])
@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("layout", ["lag", "oracle"])
def test_fixed_terms_are_tap_major_sums_bit_for_bit(T, d, layout):
    # with every block fixed, each block's products are reduced a chunk at
    # a time, tap-major and channel-minor: the predictions have the bits of
    # sums from 0 in that order.  Cell 2 reads no taps against negative
    # weights, so its products are all -0.0 and its predictions +0.0.  The
    # oracle comparator's layout is an input window, then lag coefficients.
    rng = np.random.default_rng([T, d, len(layout)])
    cells, index = 3, np.array([1, 0, 1])
    u, y = rng.standard_normal((2, T, d)), rng.standard_normal((2, T, d))
    lags = rng.uniform(-0.9, 0.9, (cells, 4))
    lags[2] = -np.abs(lags[2])
    blocks = [(Rows(lagged(-y, 4, 1), index, np.array([4, 2, 0])), lags, 0.0, None)]
    if layout == "oracle":
        W0 = rng.normal(size=(cells, 5, d, d))
        W0[2] = -np.abs(W0[2])
        blocks.insert(0, (Rows(lagged(u, 5), index, np.array([5, 3, 0])), W0, 0.0, 1.0))
    preds, Ws = ogd(blocks, Rows(y, index))
    want = tap_major_sum(blocks, cells, T, d)
    np.testing.assert_array_equal(preds.view(np.int64), want.view(np.int64))
    assert not np.signbit(preds[2]).any()
    for W, (_, W0, _, _) in zip(Ws, blocks):
        np.testing.assert_array_equal(W, W0)


def count_ball_work(monkeypatch):
    """Record, in order, each norm of a block's taps that `ogd` computes
    ("norm": a tested step, or a crossing from the norms now) and each call
    that projects ("project")."""
    events, einsum, project = [], np.einsum, learners.project_to_ball

    def norms(subscripts, *operands, **kwargs):
        if subscripts == "joil,joil->jl":
            events.append("norm")
        return einsum(subscripts, *operands, **kwargs)

    def projection(*args):
        events.append("project")
        return project(*args)

    monkeypatch.setattr(np, "einsum", norms)
    monkeypatch.setattr(learners, "project_to_ball", projection)
    return events


@pytest.mark.parametrize("d", [1, 3])
def test_a_ball_that_binds_after_a_re_arm_matches_the_reference(monkeypatch, d):
    # the targets alternate for 150 steps, so the taps swing about 0 while
    # their growth bound passes the radius: the ball is tested, found slack
    # and re-armed from the small norms; then constant targets push the taps
    # straight out, and the ball binds (a norm clip at d=1, an SVD at d=3).
    # A cell at rate 0 starts outside the ball, and neither moves nor holds
    # the test on.
    rng = np.random.default_rng(d)
    T, radius, rates = 300, 0.8 * d, np.array([0.0, 0.02, 0.05, 0.2])
    u = 1.0 + 0.1 * rng.standard_normal((T, d))
    y = np.where(np.arange(T)[:, None] < 150, 5.0 * (-1.0) ** np.arange(T)[:, None], 5.0)
    y = y + 0.1 * rng.standard_normal((T, d))
    X, W0 = lagged(u, 2), np.zeros((4, 2, d, d))
    W0[0] = 2.0 * radius / d
    events = count_ball_work(monkeypatch)
    preds, (W,) = ogd([(X[None], W0, rates, radius)], y)
    monkeypatch.undo()
    # the first crossing, then tested steps that found every tap inside and
    # the crossings re-armed from them, all before the ball binds: 18 norms,
    # where a bound that only grew tested about 195 steps before it bound
    assert 3 <= events.index("project") <= 30
    np.testing.assert_array_equal(W[0], W0[0])
    errors = {"got": [], "want": []}
    for cell, rate in enumerate(rates):
        want, (want_W,) = reference_ogd([(X, W0[cell], rate, radius)], y)
        np.testing.assert_allclose(preds[cell], want, rtol=TOL, atol=TOL)
        np.testing.assert_allclose(W[cell], want_W, rtol=TOL, atol=TOL)
        errors["got"].append(np.abs(preds[cell] - y).mean())
        errors["want"].append(np.abs(want - y).mean())
    assert np.argmin(errors["got"]) == np.argmin(errors["want"])


@pytest.mark.parametrize("rate, nan_at", [(4e306, None), (0.1, 5)], ids=["overflow", "nan"])
def test_a_ball_whose_growth_bound_is_not_finite_still_binds(rate, nan_at):
    # at rate 4e306 the summed growth bound passes the float range near step
    # 800; a nan feature at step 5 makes it nan from there.  Either must bind,
    # so the ball is tested at every step.  At steps 1500-1502 the targets
    # equal the features, the tap of radius 1 predicts them exactly, and a
    # test finds it inside.  Re-armed there, the bound must bind again: the
    # targets of 1e3 push the tap straight out.
    T, radius = 2000, 1.0
    u = np.random.default_rng(30).uniform(0.5, 1.0, (T, 1))
    y = np.full((T, 1), 1e3)
    y[1500:1503] = u[1500:1503]
    if nan_at is not None:
        u[nan_at] = np.nan
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        preds, (W,) = ogd([(lagged(u, 1), np.zeros((1, 1, 1)), rate, radius)], y)
    assert abs(W.item()) <= radius * (1 + 1e-12)
    assert (np.abs(preds[1503:]) <= radius * (1 + 1e-12) * u[1503:]).all()
    assert [str(w.message) for w in caught if w.category is RuntimeWarning] == []


def test_a_huge_finite_residual_warns_nothing():
    # targets of 1e200 give residuals whose squares, in the finiteness test
    # of every step, pass the float range; the predictions stay finite, so
    # nothing is wrong and nothing is warned
    T = 200
    u = np.random.default_rng(31).uniform(0.5, 1.0, (T, 1))
    y = np.full((T, 1), 1e200)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        preds, _ = ogd([(lagged(u, 1), np.zeros((1, 1, 1)), 0.1, None)], y)
    assert np.isfinite(preds).all()
    assert [str(w.message) for w in caught if w.category is RuntimeWarning] == []


def test_a_spectral_call_tests_its_balls_at_a_few_steps(monkeypatch):
    # the perfbench spectral call's shape at T=300: one LDS run, its three
    # rates as cells, window and deep-past balls that never bind.  The
    # window's growth bound passes R_Q early on; re-armed from the taps'
    # norms after each test, the balls are tested at a handful of steps,
    # where a bound that only grew tested the window ball at 188 of them
    T, c = 300, chebyshev_monic(5)
    bank = build_filter_bank(T - c.degree - 1, ComplexSector(0.1), 8)
    system = sample_system(10, 1, 1, 0.01, 0.9, 1.0, 0, noise_sigma=0.1)
    traj = simulate_lds(system, gaussian_inputs(T, 1, 1), 2)
    learner = SpectralLearner(c, bank, total_horizon=T, lr0=np.array([1e-3, 1e-2, 1e-1]))
    blocks = learner.blocks(traj.inputs, traj.outputs)
    events = count_ball_work(monkeypatch)
    _, Ws = ogd(blocks, traj.outputs)
    monkeypatch.undo()
    assert "project" not in events
    assert len(events) <= 12
    assert np.sqrt((Ws[0] ** 2).sum(axis=(-2, -1))).max() < learner.R_Q / 2


# ---------------------------------------------------------------------------
# the grid search, cell by cell over the reference


def test_one_learner_serves_streams_of_any_width():
    # the widths come from the streams: the same learner object steps
    # (d_out, d_in) maps of zeros from each stream, at a rate set by d_out
    rng = np.random.default_rng(17)
    c = CoefficientVector(np.array([1.0, -0.5, 0.25]))
    learner = RegressionLearner(c, domain_bound=0.2, lr_coeffs0=0.05)
    T = 30
    for d_in, d_out in ((1, 1), (3, 2)):
        u, y = 3 * rng.standard_normal((T, d_in)), rng.standard_normal((T, d_out))
        lr0 = 2.0 * learner.R_Q / sqrt(d_out)
        blocks = [
            (lagged(u, 2), np.zeros((2, d_out, d_in)), lr0, learner.R_Q),
            (lagged(-y, 2, 1), c.coeffs[1:], 0.05, None),
        ]
        want, want_W = reference_ogd(blocks, y)
        preds, Ws = ogd(learner.blocks(u, y), y)
        np.testing.assert_allclose(learner.run(u, y), want, rtol=TOL, atol=TOL)
        np.testing.assert_allclose(preds, want, rtol=TOL, atol=TOL)
        assert Ws[0].shape == (2, d_out, d_in)
        for W, w in zip(Ws, want_W):
            np.testing.assert_allclose(W, w, rtol=TOL, atol=TOL)


def test_rows_step_the_cells_of_their_gathered_features():
    # cells 1 and 2 read one stream, cell 3 sits between them in memory
    rng = np.random.default_rng(11)
    T, d, index = 30, 2, np.array([2, 0, 0, 1, 2])
    u, y = 3 * rng.standard_normal((3, T, d)), rng.standard_normal((3, T, d))
    X, L = lagged(u, 3), lagged(-y, 2, 1)
    W0, lags = np.zeros((5, 3, d, d)), np.tile([-0.5, 0.2], (5, 1))
    lr, radius = np.array([0.1, 0.5, 1.0, 0.0, 3.0]), np.array([0.3, 0.3, 1.0, 0.3, 10.0])
    want = ogd([(X[index], W0, lr, radius), (L[index], lags, lr / 10, None)], y[index])
    got = ogd([(Rows(X, index), W0, lr, radius), (Rows(L, index), lags, lr / 10, None)], y[index])
    np.testing.assert_array_equal(got[0], want[0])
    for W, w in zip(got[1], want[1]):
        np.testing.assert_array_equal(W, w)
    for cell, stream in enumerate(index):
        blocks = [(X[stream], W0[cell], lr[cell], radius[cell]),
                  (L[stream], lags[cell], lr[cell] / 10, None)]
        np.testing.assert_array_equal(got[0][cell], ogd(blocks, y[stream])[0])


def reference_experiment(spec):
    """Per-grid-point mean final-window errors and the chosen rate, from
    one reference recursion per (rate, run) cell."""
    c = H.resolve_coefficients(spec)
    runs, _ = H._load([H._data_key(spec)])[H._data_key(spec)]
    if spec.variant == "learned":
        grid = [(m, cc) for m in spec.lr_grid for cc in spec.lr_grid_coeffs or spec.lr_grid]
    else:
        grid = list(spec.lr_grid)
    T = spec.horizon
    taps = spec.num_taps if spec.num_taps is not None else max(spec.degree, 1)
    means = []
    for lr in grid:
        if spec.algo == "spectral":
            bank = build_filter_bank(T - c.degree - 1, ComplexSector(spec.beta), spec.filter_count)
            learner = SpectralLearner(c, bank, total_horizon=T, lr0=lr)
        elif spec.variant == "learned":
            learner = RegressionLearner(c, num_taps=taps, lr0=lr[0], lr_coeffs0=lr[1])
        else:
            learner = RegressionLearner(c, num_taps=taps, lr0=lr)
        finals = []
        for traj in runs:
            preds, _ = reference_ogd(learner.blocks(traj.inputs, traj.outputs), traj.outputs)
            finals.append(np.abs(preds - traj.outputs).sum(axis=1)[-spec.window :].mean())
        means.append(float(np.mean(finals)))
    best = min(range(len(grid)), key=lambda g: (means[g], grid[g]))
    chosen = list(grid[best]) if isinstance(grid[best], tuple) else grid[best]
    return means, chosen


GEN = H.GeneratorConfig(d_h=6, tau=0.05)
GRID_SPECS = {
    "chebyshev": dict(),
    "none": dict(variant="none"),
    "learned": dict(variant="learned", lr_grid=(1e-2, 1e-1), lr_grid_coeffs=(1e-3, 1e-1)),
    "d3": dict(generator=H.GeneratorConfig(d_h=6, d_in=3, d_out=2, tau=0.05)),
    "spectral": dict(algo="spectral", n_runs=2, filter_count=6),
}


@pytest.mark.parametrize("name", list(GRID_SPECS))
def test_grid_search_picks_the_reference_rate(name):
    spec = H.ExperimentSpec(**{**dict(generator=GEN, n_runs=3, horizon=150, window=40,
                                      degree=3, master_seed=5), **GRID_SPECS[name]})
    means, chosen = reference_experiment(spec)
    report = H.run_experiment(spec)
    assert report.chosen_lr == chosen
    np.testing.assert_allclose([g["mean"] for g in report.grid_results], means, rtol=TOL)


def test_oracle_comparator_matches_per_run_reference():
    spec = H.ExperimentSpec(generator=GEN, n_runs=3, horizon=150, window=40, degree=3,
                            master_seed=5, oracle_comparator=True)
    c = H.resolve_coefficients(spec)
    want = []
    for traj, system in zip(*H._load([H._data_key(spec)])[H._data_key(spec)]):
        learner = RegressionLearner(c, num_taps=3, lr0=0.0, init_Q=oracle_weights(system, c))
        preds, _ = reference_ogd(learner.blocks(traj.inputs, traj.outputs), traj.outputs)
        want.append(np.abs(preds - traj.outputs).sum(axis=1)[-spec.window :].mean())
    report = H.run_experiment(spec)
    np.testing.assert_allclose(report.per_run_final_errors, want, rtol=TOL)
