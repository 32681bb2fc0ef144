"""Release gate: the ten headline guarantees, one pass/fail line each.

Each test prints a single summary line (visible with ``pytest -s`` or on
failure) and asserts with the tolerance pinned next to it.  The two
desk-scale experiment criteria share one module-scoped set of runs.
"""

import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import dblquad

from seqprecond import harness as H
from seqprecond.dynsys import (
    gaussian_inputs,
    sample_system,
    simulate_lds,
    spectrum_summary,
    system_from_eigenvalues,
)
from seqprecond.learners import RegressionLearner, SpectralLearner, ogd, oracle_weights
from seqprecond.poly import (
    CoefficientVector,
    ComplexSector,
    chebyshev_exact,
    chebyshev_monic,
    eval_complex,
)
from seqprecond.precond import convolve, reconstruct_prediction
from seqprecond.spectral import build_filter_bank, build_gram, gram_entry

TOL_GRAM_DIAG = 1e-12
TOL_GRAM_QUAD = 1e-8
TOL_IDENTITY = 1e-12
POLAR_GRID = 256
DESK = dict(n_runs=20, horizon=2000, window=200, master_seed=0)


def _line(num, title, ok, detail):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {title}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def desk_runs():
    """Shared desk-scale experiments: baseline, degree 5, degree 10."""
    out = {}
    for key, variant, degree in [
        ("none", "none", 5),
        ("cheb5", "chebyshev", 5),
        ("cheb10", "chebyshev", 10),
    ]:
        out[key] = H.run_experiment(
            H.ExperimentSpec(variant=variant, degree=degree, **DESK)
        )
    return out


def test_01_chebyshev_sector_decay():
    t0 = time.time()
    worst = 0.0
    violations = 0
    for n in range(1, 11):
        c = chebyshev_monic(n)
        beta = 1.0 / (64.0 * n * n)
        r = np.linspace(0.0, 1.0, POLAR_GRID)
        theta = np.linspace(-beta, beta, POLAR_GRID)
        z = r[:, None] * np.exp(1j * theta[None, :])
        vals = np.abs(eval_complex(c, z))
        bound = 2.0 ** (2 - n)
        violations += int((vals > bound).sum())
        worst = max(worst, float(vals.max() / bound))
    elapsed = time.time() - t0
    _line(
        1,
        "monic Chebyshev sector decay",
        violations == 0 and elapsed < 10.0,
        f"degrees 1..10, {POLAR_GRID}x{POLAR_GRID} polar grid, "
        f"{violations} violations, worst ratio {worst:.3f}, {elapsed:.1f}s",
    )


def test_02_coefficient_growth_exact():
    t0 = time.time()
    violations = 0
    for n in range(1, 21):
        mx = max(abs(v) for v in chebyshev_exact(n))
        if mx**10 > Fraction(2) ** (3 * n):  # max|c| <= 2^(3n/10), exactly
            violations += 1
    elapsed = time.time() - t0
    _line(
        2,
        "coefficient growth in exact arithmetic",
        violations == 0 and elapsed < 1.0,
        f"degrees 1..20, {violations} violations, {elapsed:.2f}s",
    )


def test_03_gram_closed_form():
    worst_diag = 0.0
    for beta in (0.01, 0.1, 0.5):
        sector = ComplexSector(beta)
        for j in range(257):
            ref = beta * (1 / (j + 1) + 1 / (j + 3)) - np.sin(2 * beta) / (j + 2)
            worst_diag = max(worst_diag, abs(gram_entry(j, j, sector) - ref))
    spots = [
        (0, 1), (0, 2), (1, 3), (2, 5), (3, 4), (5, 8), (7, 2), (10, 13),
        (16, 5), (20, 21), (24, 30), (32, 17), (40, 45), (50, 8), (64, 66),
        (80, 3), (100, 101), (128, 40), (200, 5), (256, 250),
    ]
    worst_quad = 0.0
    for idx, (j, k) in enumerate(spots):
        beta = (0.01, 0.1, 0.5)[idx % 3]

        def integrand(th, r):
            return (
                (1 - 2 * r**2 * np.cos(2 * th) + r**4)
                * r ** (j + k + 1)
                * np.cos((j - k) * th)
            )

        ref, _ = dblquad(integrand, 0, 1, -beta, beta, epsabs=1e-13)
        worst_quad = max(worst_quad, abs(gram_entry(j, k, ComplexSector(beta)) - ref))
    _line(
        3,
        "Gram entries match quadrature",
        worst_diag < TOL_GRAM_DIAG and worst_quad < TOL_GRAM_QUAD,
        f"diagonal j<=256 err {worst_diag:.2e} (tol {TOL_GRAM_DIAG}), "
        f"{len(spots)}-point off-diagonal err {worst_quad:.2e} (tol {TOL_GRAM_QUAD})",
    )


def test_04_gram_eigendecay():
    t0 = time.time()
    ok = True
    details = []
    for horizon in (64, 256, 1024):
        for beta in (0.01, 0.1):
            Z = build_gram(horizon, ComplexSector(beta))
            sigma = np.linalg.eigvalsh(Z)
            trace_bound = 6 * beta * np.log(horizon)
            count_bound = 6 * np.log(horizon)
            big = int((sigma > beta).sum())
            ok &= np.trace(Z) <= trace_bound and big <= count_bound
            details.append(f"T'={horizon},b={beta}:tr {np.trace(Z):.3f}<={trace_bound:.2f},#{big}<={count_bound:.0f}")
    elapsed = time.time() - t0
    _line(4, "Gram trace and large-eigenvalue count", ok and elapsed < 60.0,
          "; ".join(details[:2]) + f"; ... {elapsed:.1f}s")


def test_05_oracle_weights_per_step():
    t0 = time.time()
    degree, horizon = 5, 200
    c = chebyshev_monic(degree)
    rng = np.random.default_rng(99)
    worst_margin = 0.0
    ok = True
    for trial in range(10):
        d_h = int(rng.integers(2, 9))
        eigs = rng.uniform(0.0, 0.99, size=d_h)
        system = system_from_eigenvalues(
            eigs, d_in=1, d_out=1, seed=int(rng.integers(1 << 31)),
            basis_cond=float(rng.uniform(1.0, 5.0)),
        )
        traj = simulate_lds(system, gaussian_inputs(horizon, 1, seed=trial))
        learner = RegressionLearner(
            c, 1, 1, num_taps=degree, frozen=True,
            init_Q=oracle_weights(system, c),
        )
        errs = np.abs(learner.run(traj.inputs, traj.outputs) - traj.outputs).sum(axis=1)
        kappa = spectrum_summary(system)["kappa"]
        bound = (
            np.linalg.norm(system.C, 2) * np.linalg.norm(system.B, 2)
            * kappa * 2.0 ** (2 - degree) * horizon
        )
        ok &= bool((errs <= bound).all())
        worst_margin = max(worst_margin, float(errs.max() / bound))
    elapsed = time.time() - t0
    _line(5, "frozen oracle weights within comparator bound",
          ok and elapsed < 30.0,
          f"10 noiseless systems, every step, worst err/bound {worst_margin:.2e}, {elapsed:.1f}s")


def test_06_ogd_regret():
    T = 10_000
    trivial = CoefficientVector(np.array([1.0]))
    G, D = 1.0, 2.0  # unit inputs, domain [-1, 1]
    bound = 1.5 * G * D * np.sqrt(T)
    results = []
    ok = True
    for name, ys in [
        ("constant", np.full(T, 2.0)),
        ("alternating", 2.0 * (-1.0) ** np.arange(T)),
    ]:
        learner = RegressionLearner(trivial, 1, 1, num_taps=1, domain_bound=1.0)
        preds = learner.run(np.ones((T, 1)), ys[:, None])
        total = float(np.abs(preds[:, 0] - ys).sum())
        grid = np.linspace(-1.0, 1.0, 2001)
        best = np.abs(grid[:, None] - ys[None, :]).sum(axis=1).min()
        regret = total - best
        ok &= regret <= bound
        results.append(f"{name} {regret:.1f}")
    _line(6, "projected subgradient regret", ok,
          f"regret {', '.join(results)} <= 1.5*G*D*sqrt(T) = {bound:.0f}")


def test_07_desk_scale_improvement(desk_runs):
    cheb5, baseline = desk_runs["cheb5"], desk_runs["none"]
    ok = cheb5.mean < 0.8 * baseline.mean
    _line(7, "degree-5 improvement over baseline at desk scale", ok,
          f"chebyshev-5 {cheb5.mean:.4f}±{cheb5.std:.4f} vs "
          f"0.8 x baseline {baseline.mean:.4f}±{baseline.std:.4f} = {0.8 * baseline.mean:.4f}")


def test_08_degree_degradation(desk_runs):
    cheb5, cheb10 = desk_runs["cheb5"], desk_runs["cheb10"]
    ok = cheb10.mean > cheb5.mean
    _line(8, "high-degree degradation at desk scale", ok,
          f"chebyshev-10 {cheb10.mean:.4f} > chebyshev-5 {cheb5.mean:.4f}")


def test_09_identities_and_determinism():
    rng = np.random.default_rng(5)
    c = chebyshev_monic(4)

    # convolve then reconstruct returns the raw stream
    y = rng.standard_normal((80, 2))
    z = convolve(y, c)
    worst_rt = 0.0
    for t in range(80):
        hist = y[max(0, t - 4):t][::-1]
        if hist.shape[0] < 4:
            hist = np.vstack([hist, np.zeros((4 - hist.shape[0], 2))])
        worst_rt = max(worst_rt, float(np.abs(reconstruct_prediction(z[t], hist, c) - y[t]).max()))

    # direct online learner == offline transform + inner learner + reconstruction
    system = sample_system(d_h=8, d_in=2, d_out=2, tau_thresh=0.05,
                           radius_lo=0.8, radius_hi=0.95, seed=11, noise_sigma=0.05)
    traj = simulate_lds(system, gaussian_inputs(150, 2, seed=12), seed=13)
    online = RegressionLearner(c, 2, 2, num_taps=4, lr0=0.05).run(traj.inputs, traj.outputs)
    z = convolve(traj.outputs, c)
    inner = RegressionLearner(CoefficientVector(np.array([1.0])), 2, 2, num_taps=4, lr0=0.05)
    z_hats = inner.run(traj.inputs, z)
    worst_stream = 0.0
    for t, z_hat in enumerate(z_hats):
        hist = traj.outputs[max(0, t - 4):t][::-1]
        if hist.shape[0] < 4:
            hist = np.vstack([hist, np.zeros((4 - hist.shape[0], 2))])
        raw_hat = reconstruct_prediction(z_hat, hist, c)
        worst_stream = max(worst_stream, float(np.abs(raw_hat - online[t]).max()))

    # spectral prediction is additive in its parameter blocks
    bank = build_filter_bank(60, ComplexSector(0.1), 8)
    spectral = SpectralLearner(chebyshev_monic(3), bank, 2, 2, total_horizon=80)
    u_hist = rng.standard_normal((40, 2))
    y_hist = rng.standard_normal((40, 2))
    (X_Q, Q0, *rest_Q), lag, (X_M, M0, *rest_M) = spectral.blocks(u_hist, y_hist)
    Q = rng.standard_normal(Q0.shape)
    M = rng.standard_normal(M0.shape)

    def predict(Q, M):
        blocks = [(X_Q, Q, *rest_Q), lag, (X_M, M, *rest_M)]
        return ogd(blocks, y_hist, frozen=True)[0]

    deletion = (
        predict(Q, M)
        - predict(Q, np.zeros_like(M))
        - predict(np.zeros_like(Q), M)
        + predict(np.zeros_like(Q), np.zeros_like(M))
    )
    worst_del = float(np.abs(deletion).max())

    # reports are byte-identical under a fixed master seed
    deterministic = True
    for algo in ("regression", "spectral"):
        spec = H.ExperimentSpec(
            algo=algo, generator=H.GeneratorConfig(d_h=6, tau=0.05),
            n_runs=2, horizon=100, window=25, degree=3, master_seed=4,
            lr_grid=(1e-2,), filter_count=8,
        )
        deterministic &= H.report_to_json(H.run_experiment(spec)) == H.report_to_json(
            H.run_experiment(spec)
        )

    ok = (
        worst_rt < TOL_IDENTITY
        and worst_stream < TOL_IDENTITY
        and worst_del < TOL_IDENTITY
        and deterministic
    )
    _line(9, "equivalence identities and determinism", ok,
          f"round-trip {worst_rt:.1e}, offline-vs-online {worst_stream:.1e}, "
          f"term-deletion {worst_del:.1e}, reports byte-identical: {deterministic}")


def test_10_average_error_decays_with_horizon():
    t0 = time.time()
    system = sample_system(d_h=50, d_in=1, d_out=1, tau_thresh=0.01,
                           radius_lo=0.9, radius_hi=1.0, seed=2024, noise_sigma=0.0)
    c = chebyshev_monic(5)
    at_short, at_long = [], []
    for seed in range(10):
        traj = simulate_lds(system, gaussian_inputs(4000, 1, seed=seed))
        learner = RegressionLearner(c, 1, 1, num_taps=5, lr0=0.01)
        errs = np.abs(learner.run(traj.inputs, traj.outputs) - traj.outputs).sum(axis=1)
        at_short.append(errs[:1000].mean())
        at_long.append(errs.mean())
    short, long_ = float(np.mean(at_short)), float(np.mean(at_long))
    elapsed = time.time() - t0
    _line(10, "average error decays from T=1000 to T=4000",
          long_ < short,
          f"one noiseless system, 10 seeds: {long_:.4f} < {short:.4f} "
          f"(ratio {long_ / short:.2f}), {elapsed:.1f}s")
