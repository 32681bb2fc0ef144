"""Lockstep OGD against a per-cell reference.

`reference_ogd` is the per-step, per-cell, per-tap recursion that `ogd`
replaced, kept here verbatim in behaviour: one cell per call, one
projection per tap.  Batched `ogd` must agree with it on every cell of a
batch to 1e-12, on fixed learners and on random blocks (a `hypothesis`
property), and `run_experiment` must pick the same learning rate as
a grid search that runs the reference cell by cell.
"""

from math import sqrt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqprecond import harness as H
from seqprecond.learners import RegressionLearner, SpectralLearner, ogd, oracle_weights
from seqprecond.poly import ComplexSector, CoefficientVector
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


def make_learner(kind, rng, d_in, d_out, T, rate, taps=None):
    """A learner of `kind` at `rate` (a float, or rates broadcast over cells)."""
    c = CoefficientVector(np.concatenate([[1.0], rng.uniform(-0.9, 0.9, rng.integers(0, 4))]))
    if kind == "spectral":
        bank = build_filter_bank(T - c.degree - 1, ComplexSector(0.1), int(rng.integers(1, 5)))
        return SpectralLearner(c, bank, d_in, d_out, total_horizon=T, lr0=rate, norm_bound=0.3)
    return RegressionLearner(c, d_in, d_out, num_taps=taps, domain_bound=0.2, lr0=rate,
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
    batched = make_learner(kind, rng, d_in, d_out, T, rates[:, None], taps)
    preds, Ws = ogd(batched.blocks(u[None], y[None]), y[None])
    assert preds.shape == (len(rates), runs, T, d_out)
    for g, rate in enumerate(rates):
        rng.bit_generator.state = state  # the same coefficients and bank
        learner = make_learner(kind, rng, d_in, d_out, T, float(rate), taps)
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
    learner = RegressionLearner(c, d, d, lr0=0.0, init_Q=Q)
    preds, (W, _) = ogd(learner.blocks(u, y), y)
    np.testing.assert_array_equal(W, Q)
    for r in range(runs):
        single = RegressionLearner(c, d, d, lr0=0.0, init_Q=Q[r])
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_cell_is_named_and_leaves_the_others_to_finish():
    # cell 1's rate overflows its weights at d=3, where the projection is an
    # SVD; the batch still reaches the end and names that cell's first
    # non-finite step, as the cell's own recursion does
    rng = np.random.default_rng(2)
    X = rng.standard_normal((1, 30, 2, 3))
    y = rng.standard_normal((1, 30, 3))
    block = (X, np.zeros((1, 2, 3, 3)), np.array([0.1, 1e308, 0.2]), 1e300)
    with pytest.raises(ValueError) as exc:
        ogd([block], y)
    assert exc.value.cell == (1,)
    with pytest.raises(ValueError) as ref:
        ogd([(X[0], np.zeros((2, 3, 3)), 1e308, 1e300)], y[0])
    assert str(exc.value) == str(ref.value)
    assert ref.value.cell == ()


# ---------------------------------------------------------------------------
# the grid search, cell by cell over the reference


def reference_experiment(spec):
    """Per-grid-point mean final-window errors and the chosen rate, from
    one reference recursion per (rate, run) cell."""
    c = H.resolve_coefficients(spec)
    seeds = H.derive_seeds(spec.master_seed, spec.n_runs)
    runs = [
        H._make_run_data(spec.generator, spec.horizon, seeds, r)[0] for r in range(spec.n_runs)
    ]
    if spec.variant == "learned":
        grid = [(m, cc) for m in spec.lr_grid for cc in spec.lr_grid_coeffs or spec.lr_grid]
    else:
        grid = list(spec.lr_grid)
    d_in, d_out, T = runs[0].inputs.shape[1], runs[0].outputs.shape[1], spec.horizon
    taps = spec.num_taps if spec.num_taps is not None else max(spec.degree, 1)
    means = []
    for lr in grid:
        if spec.algo == "spectral":
            bank = build_filter_bank(T - c.degree - 1, ComplexSector(spec.beta), spec.filter_count)
            learner = SpectralLearner(c, bank, d_in, d_out, total_horizon=T, lr0=lr)
        elif spec.variant == "learned":
            learner = RegressionLearner(c, d_in, d_out, num_taps=taps,
                                        lr0=lr[0], lr_coeffs0=lr[1])
        else:
            learner = RegressionLearner(c, d_in, d_out, num_taps=taps, lr0=lr)
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
    seeds = H.derive_seeds(spec.master_seed, spec.n_runs)
    want = []
    for r in range(spec.n_runs):
        traj, system = H._make_run_data(spec.generator, spec.horizon, seeds, r)
        learner = RegressionLearner(c, 1, 1, num_taps=3, lr0=0.0,
                                    init_Q=oracle_weights(system, c))
        preds, _ = reference_ogd(learner.blocks(traj.inputs, traj.outputs), traj.outputs)
        want.append(np.abs(preds - traj.outputs).sum(axis=1)[-spec.window :].mean())
    report = H.run_experiment(spec)
    np.testing.assert_allclose(report.per_run_final_errors, want, rtol=TOL)
